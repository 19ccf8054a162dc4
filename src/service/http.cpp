// dynamo/service/http.cpp
//
// Minimal HTTP/1.1 over POSIX sockets (scope in http.hpp).
#include "service/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace dynamo::service {

namespace {

/// {"error": "<message>"} with proper JSON escaping.
std::string error_body(const std::string& message) {
    util::JsonObject body;
    body.emplace_back("error", util::Json(message));
    return util::Json(std::move(body)).dump(0) + "\n";
}

std::string lowercase(std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

std::string trim(const std::string& s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
    while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) --e;
    return s.substr(b, e - b);
}

/// Hard ceiling on request bodies (manifests are a few KB; anything near
/// this is abuse or a bug): 8 MiB.
constexpr std::size_t kMaxBody = 8u << 20;

/// One deadline for reading a whole request, counted from accept(). The
/// loop is serial, so a peer that connects and then stalls (idle, or a
/// half-sent head or body) would otherwise hold every other client off
/// until it closed; past the deadline it gets 400 instead. Loopback
/// clients send a request in one write, far inside this.
constexpr std::chrono::milliseconds kRequestDeadline{1000};

} // namespace

std::optional<HttpRequest> parse_http_request(const std::string& text) {
    const std::size_t head_end = text.find("\r\n\r\n");
    if (head_end == std::string::npos) return std::nullopt;

    std::istringstream head(text.substr(0, head_end));
    std::string line;
    if (!std::getline(head, line)) return std::nullopt;
    // Request line: METHOD SP TARGET SP VERSION
    std::istringstream request_line(trim(line));
    HttpRequest request;
    std::string version;
    if (!(request_line >> request.method >> request.target >> version)) return std::nullopt;
    if (version.rfind("HTTP/1.", 0) != 0) return std::nullopt;

    while (std::getline(head, line)) {
        line = trim(line);
        if (line.empty()) continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos) return std::nullopt;
        request.headers[lowercase(trim(line.substr(0, colon)))] = trim(line.substr(colon + 1));
    }

    request.body = text.substr(head_end + 4);
    return request;
}

std::string render_http_response(const HttpResponse& response) {
    std::ostringstream out;
    out << "HTTP/1.1 " << response.status << " " << http_status_text(response.status)
        << "\r\n"
        << "Content-Type: " << response.content_type << "\r\n"
        << "Content-Length: " << response.body.size() << "\r\n"
        << "Connection: close\r\n\r\n"
        << response.body;
    return out.str();
}

const char* http_status_text(int status) {
    switch (status) {
        case 200: return "OK";
        case 202: return "Accepted";
        case 400: return "Bad Request";
        case 404: return "Not Found";
        case 405: return "Method Not Allowed";
        case 409: return "Conflict";
        case 413: return "Payload Too Large";
        case 500: return "Internal Server Error";
        default: return "Unknown";
    }
}

HttpServer::HttpServer(std::uint16_t port) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("http: cannot create socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 16) != 0) {
        const std::string why = std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error("http: cannot listen on 127.0.0.1:" + std::to_string(port) +
                                 ": " + why);
    }

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
}

HttpServer::~HttpServer() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
}

void HttpServer::serve_forever(
    const std::function<HttpResponse(const HttpRequest&)>& handler) {
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            return;  // stop() shut the listening socket down
        }

        // Read head, then exactly Content-Length body bytes.
        const auto deadline = std::chrono::steady_clock::now() + kRequestDeadline;
        std::string data;
        char buf[4096];
        bool bad_request = false;
        std::size_t need = std::string::npos;  // total bytes once head is seen
        for (;;) {
            if (need == std::string::npos) {
                const std::size_t head_end = data.find("\r\n\r\n");
                if (head_end != std::string::npos) {
                    std::size_t content_length = 0;
                    const auto parsed = parse_http_request(data.substr(0, head_end + 4));
                    if (!parsed) {
                        bad_request = true;
                        break;
                    }
                    const auto it = parsed->headers.find("content-length");
                    if (it != parsed->headers.end()) {
                        // Digits only: "-1" and "0junk" are malformed, not
                        // a wrapped or truncated length.
                        const std::string& text = it->second;
                        const char* end = text.data() + text.size();
                        const auto [stop, error] =
                            std::from_chars(text.data(), end, content_length);
                        if (error != std::errc() || stop != end) {
                            bad_request = true;
                            break;
                        }
                    }
                    if (content_length > kMaxBody) {
                        need = kMaxBody + 1;  // sentinel: answer 413 below
                        break;
                    }
                    need = head_end + 4 + content_length;
                }
            }
            if (need != std::string::npos && data.size() >= need) break;
            const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now());
            pollfd pfd{fd, POLLIN, 0};
            const int ready =
                left.count() > 0 ? ::poll(&pfd, 1, static_cast<int>(left.count())) : 0;
            if (ready < 0 && errno == EINTR) continue;
            if (ready <= 0) break;  // deadline passed: short request, answered 400 below
            const ssize_t n = ::read(fd, buf, sizeof(buf));
            if (n <= 0) break;  // peer closed or reset: answered below, short body is 400
            data.append(buf, static_cast<std::size_t>(n));
            if (data.size() > kMaxBody + 16384) break;  // refuse unbounded heads
        }

        HttpResponse response;
        if (need == kMaxBody + 1) {
            response = {413, "application/json", error_body("request body too large")};
        } else if (bad_request || need == std::string::npos || data.size() < need) {
            response = {400, "application/json", error_body("malformed request")};
        } else {
            const auto request = parse_http_request(data.substr(0, need));
            if (!request) {
                response = {400, "application/json", error_body("malformed request")};
            } else {
                try {
                    response = handler(*request);
                } catch (const std::exception& e) {
                    response = {500, "application/json", error_body(e.what())};
                }
            }
        }

        // MSG_NOSIGNAL: a peer that reset the connection must cost this
        // reply (EPIPE), not the process (SIGPIPE).
        const std::string wire = render_http_response(response);
        std::size_t sent = 0;
        while (sent < wire.size()) {
            const ssize_t n =
                ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
            if (n <= 0) break;
            sent += static_cast<std::size_t>(n);
        }
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
}

void HttpServer::stop() {
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void write_port_file(const std::string& path, std::uint16_t port) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) throw std::runtime_error("cannot write port file '" + path + "'");
        out << port << "\n";
        out.flush();
        if (!out) throw std::runtime_error("cannot write port file '" + path + "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw std::runtime_error("cannot publish port file '" + path + "': " +
                                 std::strerror(errno));
}

} // namespace dynamo::service
