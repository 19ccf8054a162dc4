// dynamo/util/cli.hpp
//
// Tiny argument parser shared by the `dynamo` CLI and the scenario layer.
//
// Grammar actually parsed (exactly this, nothing more):
//
//   --key=value     one token; everything after the first '=' is the
//                   value, including further '=' signs and leading '-'.
//   --key value     two tokens; the next token is consumed as the value
//                   unless it itself starts with "--". A value starting
//                   with a SINGLE dash (a negative number: `--offset -3`)
//                   is consumed as a value, not treated as a new flag.
//   --key           bare flag; stored with an empty value, tested with
//                   get_flag()/has().
//   anything else   positional argument, kept in order. A lone "-" and
//                   single-dash tokens ("-x") are positionals, not flags.
//
// Ambiguity: without a schema, `--flag token` cannot distinguish a bare
// flag followed by a positional from a key/value pair — the parser greedily
// binds `token` as the value. Pass a Grammar (built from a scenario's
// declared parameters) to resolve it: declared flags never consume the
// next token, declared value keys always do (even a "--"-prefixed one),
// and only undeclared keys fall back to the greedy rule.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace dynamo {

/// Optional parsing schema: which "--key"s are bare flags and which take a
/// value. Keys in neither set parse under the greedy fallback rule above.
struct CliGrammar {
    std::set<std::string> flag_keys;
    std::set<std::string> value_keys;
};

class CliArgs {
  public:
    CliArgs(int argc, const char* const* argv) : CliArgs(argc, argv, CliGrammar{}) {}

    CliArgs(int argc, const char* const* argv, const CliGrammar& grammar) {
        DYNAMO_REQUIRE(argc >= 1, "argc must include the program name");
        program_ = argv[0];
        for (int i = 1; i < argc; ++i) {
            std::string tok = argv[i];
            if (tok.rfind("--", 0) != 0 || tok == "--") {
                positional_.push_back(std::move(tok));
                continue;
            }
            tok.erase(0, 2);
            const auto eq = tok.find('=');
            if (eq != std::string::npos) {
                values_[tok.substr(0, eq)] = tok.substr(eq + 1);
                continue;
            }
            if (grammar.flag_keys.count(tok) != 0) {
                values_[tok] = "";  // declared bare flag: never eats the next token
                continue;
            }
            if (grammar.value_keys.count(tok) != 0) {
                DYNAMO_REQUIRE(i + 1 < argc, "--" + tok + " expects a value");
                values_[tok] = argv[++i];  // declared value key: always eats it
                continue;
            }
            // Greedy fallback: the next token is the value unless it looks
            // like another long option. "-3" is a value, "--next" is not.
            if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
                values_[tok] = argv[++i];
            } else {
                values_[tok] = "";  // bare flag
            }
        }
    }

    /// Args assembled programmatically (campaign points): every map entry
    /// becomes a --key=value binding; no positionals.
    explicit CliArgs(const std::map<std::string, std::string>& params,
                     std::string program = "dynamo")
        : program_(std::move(program)), values_(params) {}

    const std::string& program() const noexcept { return program_; }
    const std::vector<std::string>& positional() const noexcept { return positional_; }

    bool has(const std::string& key) const { return values_.count(key) != 0; }

    /// Every parsed --key, in sorted order (schema validation, hashing).
    const std::map<std::string, std::string>& values() const noexcept { return values_; }

    std::string get_string(const std::string& key, const std::string& fallback) const {
        const auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
        const auto it = values_.find(key);
        if (it == values_.end()) return fallback;
        std::istringstream is(it->second);
        std::int64_t v = 0;
        DYNAMO_REQUIRE(static_cast<bool>(is >> v),
                       "--" + key + " expects an integer, got '" + it->second + "'");
        return v;
    }

    /// Full-range unsigned parse: RNG substream seeds cover all 64 bits,
    /// beyond what get_int accepts.
    std::uint64_t get_uint64(const std::string& key, std::uint64_t fallback) const {
        const auto it = values_.find(key);
        if (it == values_.end()) return fallback;
        std::istringstream is(it->second);
        std::uint64_t v = 0;
        DYNAMO_REQUIRE(static_cast<bool>(is >> v) && it->second.find('-') == std::string::npos,
                       "--" + key + " expects an unsigned integer, got '" + it->second + "'");
        return v;
    }

    double get_double(const std::string& key, double fallback) const {
        const auto it = values_.find(key);
        if (it == values_.end()) return fallback;
        std::istringstream is(it->second);
        double v = 0;
        DYNAMO_REQUIRE(static_cast<bool>(is >> v),
                       "--" + key + " expects a number, got '" + it->second + "'");
        return v;
    }

    bool get_flag(const std::string& key) const { return has(key); }

  private:
    std::string program_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

} // namespace dynamo
