// dynamo/io/ascii.hpp
//
// Text renderers for grids and traces. The paper's figures are small
// annotated grids (Figures 1-6); every bench binary reprints its
// configuration and result matrices through these helpers so
// bench_output.txt is a self-contained reproduction record.
#pragma once

#include <string>
#include <vector>

#include "core/coloring.hpp"
#include "core/run/result.hpp"
#include "grid/torus.hpp"

namespace dynamo::io {

/// Render a coloring as an m x n character grid: the seed color k prints
/// as 'B' (the paper draws seeds black), other colors as 'a', 'b', 'c'...
/// in color order.
std::string render_field(const grid::Torus& torus, const ColorField& field, Color k);

/// Render per-vertex adoption rounds (RunResult::k_time) as an aligned numeric
/// matrix - the format of the paper's Figures 5 and 6. Vertices that never
/// adopted print as '.'.
std::string render_time_matrix(const grid::Torus& torus,
                               const std::vector<std::uint32_t>& k_time);

/// One-line wavefront profile: "r0:a r1:b ..." from RunResult::newly_k.
std::string render_wavefront(const std::vector<std::uint32_t>& newly_k);

} // namespace dynamo::io
