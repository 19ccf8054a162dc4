// I/O: ASCII renders (the Figures' format), PPM frames, CSV quoting.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/builders.hpp"
#include "io/ascii.hpp"
#include "io/csv.hpp"
#include "io/ppm.hpp"

namespace dynamo::io {
namespace {

using grid::Topology;
using grid::Torus;

TEST(Ascii, RendersSeedsAsBAndForeignColorsAsLetters) {
    Torus t(Topology::ToroidalMesh, 2, 3);
    //   k=1 at (0,0); colors 2 and 3 elsewhere.
    ColorField f{1, 2, 3, 2, 3, 2};
    const std::string out = render_field(t, f, 1);
    EXPECT_EQ(out, "B a b \na b a \n");
}

TEST(Ascii, SeedGlyphFollowsK) {
    Torus t(Topology::ToroidalMesh, 2, 2);
    ColorField f{2, 1, 1, 2};
    const std::string out = render_field(t, f, 2);
    EXPECT_EQ(out, "B a \na B \n");
}

TEST(Ascii, UnsetRendersAsQuestionMark) {
    Torus t(Topology::ToroidalMesh, 2, 2);
    ColorField f{1, kUnset, 2, 2};
    const std::string out = render_field(t, f, 1);
    EXPECT_NE(out.find('?'), std::string::npos);
}

TEST(Ascii, TimeMatrixMatchesFigureFormat) {
    Torus t(Topology::ToroidalMesh, 2, 3);
    std::vector<std::uint32_t> times{0, 1, 2, 10, kNeverK, 3};
    const std::string out = render_time_matrix(t, times);
    EXPECT_EQ(out, " 0  1  2 \n10  .  3 \n");
}

TEST(Ascii, WavefrontProfile) {
    EXPECT_EQ(render_wavefront({9, 3, 4}), "0:9 1:3 2:4");
    EXPECT_EQ(render_wavefront({}), "");
}

TEST(Ppm, WritesHeaderAndPixelPayload) {
    Torus t(Topology::ToroidalMesh, 3, 4);
    const Configuration cfg = build_theorem2_configuration(t);
    const std::string path = "/tmp/dynamo_test_frame.ppm";
    write_ppm(path, t, cfg.field, 2);

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::string magic;
    std::size_t w = 0, h = 0, depth = 0;
    in >> magic >> w >> h >> depth;
    EXPECT_EQ(magic, "P6");
    EXPECT_EQ(w, 8u);   // cols * scale
    EXPECT_EQ(h, 6u);   // rows * scale
    EXPECT_EQ(depth, 255u);
    in.get();  // single whitespace after header
    std::vector<char> payload(w * h * 3);
    in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
    EXPECT_EQ(static_cast<std::size_t>(in.gcount()), payload.size());
    std::remove(path.c_str());
}

TEST(Ppm, DistinctColorsGetDistinctPaletteEntries) {
    for (Color a = 0; a < 16; ++a) {
        for (Color b = a + 1; b < 16; ++b) {
            EXPECT_NE(palette_rgb(a), palette_rgb(b)) << int(a) << " vs " << int(b);
        }
    }
}

TEST(Ppm, RejectsBadInputs) {
    Torus t(Topology::ToroidalMesh, 3, 3);
    ColorField wrong(4, 1);
    EXPECT_THROW(write_ppm("/tmp/x.ppm", t, wrong, 1), std::invalid_argument);
    ColorField ok(t.size(), 1);
    EXPECT_THROW(write_ppm("/nonexistent-dir/x.ppm", t, ok, 1), std::runtime_error);
}

TEST(Csv, QuotesSpecialCharacters) {
    const std::string path = "/tmp/dynamo_test.csv";
    {
        CsvWriter csv(path);
        csv.row("plain", "with,comma", "with\"quote");
        csv.row(1, 2.5, "x");
    }
    std::ifstream in(path);
    std::string line1, line2;
    std::getline(in, line1);
    std::getline(in, line2);
    EXPECT_EQ(line1, "plain,\"with,comma\",\"with\"\"quote\"");
    EXPECT_EQ(line2, "1,2.5,x");
    std::remove(path.c_str());
}

} // namespace
} // namespace dynamo::io
