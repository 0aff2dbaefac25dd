/// IO tests: the PGM/PPM image writers (round-trip + malformed input),
/// the stream's mapped PGM band writer, the `.asc` grid writer round-trip
/// and number parser (parity with `istream >> double`), SVG rendering, and
/// the bench table formatter (Markdown + CSV).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>

#include "asc_reference.hpp"
#include "core/hsr.hpp"
#include "envelope/build.hpp"
#include "io/band_writer.hpp"
#include "io/csv.hpp"
#include "io/image.hpp"
#include "io/svg.hpp"
#include "terrain/asc_io.hpp"
#include "terrain/generators.hpp"
#include "test_util.hpp"

namespace thsr {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST(Svg, VisibilityRenderContainsVisiblePieces) {
  GenOptions opt;
  opt.grid = 10;
  const Terrain t = make_terrain(opt);
  const auto r = hidden_surface_removal(t);
  const std::string path = test::temp_path("thsr_vis", ".svg");
  render_visibility_svg(t, r.map, path);
  const std::string svg = slurp(path);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("#0b6623"), std::string::npos);  // visible strokes present
  std::remove(path.c_str());
}

TEST(Svg, EnvelopeRender) {
  GenOptions opt;
  opt.grid = 8;
  const Terrain t = make_terrain(opt);
  std::vector<u32> ids;
  std::vector<Seg2> segs(t.edge_count(), Seg2{0, 0, 1, 0});
  for (u32 e = 0; e < t.edge_count(); ++e) {
    if (!t.is_sliver(e)) {
      segs[e] = t.image_segment(e);
      ids.push_back(e);
    }
  }
  const Envelope env = envelope_of(ids, segs);
  const std::string path = test::temp_path("thsr_env", ".svg");
  render_envelope_svg(t, env, segs, path);
  EXPECT_NE(slurp(path).find("#c1121f"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Table, MarkdownFormatting) {
  Table t({"n", "time_ms", "note"});
  t.row({"10", Table::num(1.5), "a"});
  t.row({"2000", Table::num(12.25), "bb"});
  std::ostringstream os;
  t.print_markdown(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| n    | time_ms | note |"), std::string::npos);
  EXPECT_NE(s.find("| 2000 | 12.250  | bb   |"), std::string::npos);
  EXPECT_NE(s.find("|------|"), std::string::npos);
}

TEST(Table, NumHelpers) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(static_cast<long long>(-42)), "-42");
  EXPECT_EQ(Table::num(static_cast<unsigned long long>(7)), "7");
}

TEST(Table, CsvWriterHonorsEnvironment) {
  Table t({"a", "b"});
  t.row({"1", "x"});
  t.row({"2", "y"});
  const std::string cwd_guard = test::temp_path("thsr_csv_test");
  ASSERT_EQ(setenv("THSR_BENCH_CSV", "0", 1), 0);
  t.maybe_write_csv(cwd_guard + "_off");
  EXPECT_FALSE(std::ifstream(cwd_guard + "_off.csv").good());
  ASSERT_EQ(setenv("THSR_BENCH_CSV", "1", 1), 0);
  t.maybe_write_csv(cwd_guard);
  std::ifstream is(cwd_guard + ".csv");
  ASSERT_TRUE(is.good());
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "a,b");
  std::getline(is, line);
  EXPECT_EQ(line, "1,x");
  ASSERT_EQ(unsetenv("THSR_BENCH_CSV"), 0);
  std::remove((cwd_guard + ".csv").c_str());
}

// ---------------------------------------------------------------------------
// PGM / PPM writers (io/image.hpp)
// ---------------------------------------------------------------------------

io::GrayImage random_gray(u64 seed, u32 w, u32 h, std::uint16_t maxval) {
  auto g = test::rng(seed);
  std::uniform_int_distribution<int> px(0, maxval);
  io::GrayImage img;
  img.width = w;
  img.height = h;
  img.maxval = maxval;
  img.pixels.resize(std::size_t{w} * h);
  for (auto& p : img.pixels) p = static_cast<std::uint16_t>(px(g));
  return img;
}

TEST(Pgm, RoundTripEightBit) {
  const io::GrayImage img = random_gray(11, 23, 17, 255);
  std::stringstream ss;
  io::write_pgm(img, ss);
  const io::GrayImage back = io::read_pgm(ss);
  EXPECT_EQ(back.width, img.width);
  EXPECT_EQ(back.height, img.height);
  EXPECT_EQ(back.maxval, img.maxval);
  EXPECT_EQ(back.pixels, img.pixels);
}

TEST(Pgm, RoundTripSixteenBit) {
  const io::GrayImage img = random_gray(12, 9, 31, 65535);
  std::stringstream ss;
  io::write_pgm(img, ss);
  const io::GrayImage back = io::read_pgm(ss);
  EXPECT_EQ(back.maxval, 65535);
  EXPECT_EQ(back.pixels, img.pixels);
}

TEST(Pgm, RoundTripThroughFile) {
  const io::GrayImage img = random_gray(13, 8, 6, 1000);
  const std::string path = test::temp_path("thsr_io", ".pgm");
  io::write_pgm(img, path);
  const io::GrayImage back = io::read_pgm(path);
  EXPECT_EQ(back.pixels, img.pixels);
  std::remove(path.c_str());
}

TEST(Pgm, ReaderAcceptsHeaderComments) {
  std::stringstream ss("P5\n# a comment\n2 1\n# more\n255\n\x01\x02");
  const io::GrayImage img = io::read_pgm(ss);
  EXPECT_EQ(img.width, 2u);
  EXPECT_EQ(img.pixels, (std::vector<std::uint16_t>{1, 2}));
}

TEST(Pgm, MalformedInputsThrow) {
  const auto rejects = [](const std::string& data) {
    std::stringstream ss(data);
    EXPECT_THROW((void)io::read_pgm(ss), std::runtime_error) << "accepted: " << data;
  };
  rejects("P6\n2 2\n255\nxxxx");          // wrong magic for PGM
  rejects("junk");                        // no magic at all
  rejects("P5\n0 2\n255\n");              // zero dimension
  rejects("P5\n2 2\n0\n\0\0\0\0");        // maxval 0
  rejects("P5\n2 2\n70000\n");            // maxval over 65535
  rejects("P5\n2 2\n255\n\x01\x02");      // truncated pixel data
  rejects("P5\nx 2\n255\n");              // non-numeric dimension
  rejects("P5\n999999999 999999999\n255\n");  // hostile dimensions
  EXPECT_THROW((void)io::read_pgm(std::string("/nonexistent/thsr.pgm")), std::runtime_error);
}

TEST(Pgm, WriterRejectsInvalidImages) {
  std::stringstream ss;
  io::GrayImage empty;
  EXPECT_THROW(io::write_pgm(empty, ss), std::runtime_error);
  io::GrayImage mismatched{2, 2, 255, {1, 2, 3}};  // 3 pixels for a 2x2 image
  EXPECT_THROW(io::write_pgm(mismatched, ss), std::runtime_error);
  io::GrayImage overflow{1, 1, 10, {11}};  // sample above maxval
  EXPECT_THROW(io::write_pgm(overflow, ss), std::runtime_error);
}

TEST(Ppm, RoundTrip) {
  auto g = test::rng(21);
  std::uniform_int_distribution<int> px(0, 255);
  io::RgbImage img;
  img.width = 19;
  img.height = 13;
  img.rgb.resize(std::size_t{img.width} * img.height * 3);
  for (auto& b : img.rgb) b = static_cast<unsigned char>(px(g));
  std::stringstream ss;
  io::write_ppm(img, ss);
  const io::RgbImage back = io::read_ppm(ss);
  EXPECT_EQ(back.width, img.width);
  EXPECT_EQ(back.height, img.height);
  EXPECT_EQ(back.rgb, img.rgb);
}

TEST(Ppm, MalformedInputsThrow) {
  const auto rejects = [](const std::string& data) {
    std::stringstream ss(data);
    EXPECT_THROW((void)io::read_ppm(ss), std::runtime_error) << "accepted: " << data;
  };
  rejects("P5\n1 1\n255\nx");        // PGM magic on the PPM reader
  rejects("P6\n1 1\n65535\n");       // 16-bit PPM unsupported
  rejects("P6\n1 1\n255\nxx");       // truncated (needs 3 bytes)
  rejects("P6\n1\n255\nxxx");        // missing height
}

// ---------------------------------------------------------------------------
// .asc writer round-trip (the third raster output container)
// ---------------------------------------------------------------------------

TEST(AscWriter, RoundTripsBitExactly) {
  AscGrid g;
  g.ncols = 5;
  g.nrows = 3;
  g.xll = 1234.5;
  g.yll = -42.25;
  g.cellsize = 2.5;
  g.nodata = -9999.0;
  g.cell_centered = true;
  g.values = {0.5, 1.25, -9999.0, 3.0,  4.0,  5.5, 6.0, 7.75,
              8.0, 9.0,  10.125,  11.0, 12.0, 13.5, 14.0};
  std::stringstream ss;
  save_asc_grid(g, ss);
  const AscGrid back = load_asc_grid(ss);
  EXPECT_EQ(back.ncols, g.ncols);
  EXPECT_EQ(back.nrows, g.nrows);
  EXPECT_EQ(back.xll, g.xll);
  EXPECT_EQ(back.yll, g.yll);
  EXPECT_EQ(back.cellsize, g.cellsize);
  EXPECT_EQ(back.cell_centered, g.cell_centered);
  ASSERT_TRUE(back.nodata.has_value());
  EXPECT_EQ(*back.nodata, *g.nodata);
  EXPECT_EQ(back.values, g.values);
}

TEST(AscWriter, MalformedInputsThrow) {
  const auto rejects = [](const std::string& data) {
    std::stringstream ss(data);
    EXPECT_THROW((void)load_asc_grid(ss), std::runtime_error) << "accepted: " << data;
  };
  rejects("nrows 2\ncellsize 1\nxllcorner 0\nyllcorner 0\n1 2\n3 4\n");  // missing ncols
  rejects("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\n1 2 3 4\n");      // missing cellsize
  rejects("ncols 2\nncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3 4\n");
  rejects("ncols 2\nnrows 2\nxllcorner 0\nyllcenter 0\ncellsize 1\n1 2 3 4\n");  // mixed origin
  rejects("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n");    // short data
  rejects("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3 oops\n");
  rejects("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize -1\n1 2 3 4\n");
}

// ---------------------------------------------------------------------------
// terrain_from_asc limits: the kMaxAscGrid auto-stride budget and NODATA
// degeneracies
// ---------------------------------------------------------------------------

/// ncols x nrows grid of gently varying NODATA-free heights.
AscGrid synthetic_grid(u32 ncols, u32 nrows) {
  AscGrid g;
  g.ncols = ncols;
  g.nrows = nrows;
  g.cellsize = 1.0;
  g.values.reserve(static_cast<std::size_t>(ncols) * nrows);
  for (u32 r = 0; r < nrows; ++r) {
    for (u32 c = 0; c < ncols; ++c) g.values.push_back(static_cast<double>((r + c) % 7));
  }
  return g;
}

u32 auto_stride_of(u32 ncols, u32 nrows) {
  AscMapping m;
  (void)terrain_from_asc(synthetic_grid(ncols, nrows), {}, &m);
  return m.stride;
}

TEST(AscTerrain, AutoStrideBudgetBoundary) {
  // stride = smallest s with (max(ncols,nrows)-1)/s + 1 <= kMaxAscGrid, so
  // the budget boundary sits exactly at kMaxAscGrid source columns:
  //   180 -> 1 (180 samples, at budget)   181 -> 2 (91 samples)
  //   360 -> 2 (180 samples, at budget)   361 -> 3 (121 samples)
  EXPECT_EQ(auto_stride_of(kMaxAscGrid, 2), 1u);
  EXPECT_EQ(auto_stride_of(kMaxAscGrid + 1, 3), 2u);
  EXPECT_EQ(auto_stride_of(2 * kMaxAscGrid, 4), 2u);
  EXPECT_EQ(auto_stride_of(2 * kMaxAscGrid + 1, 4), 3u);

  // Sampled extents and georeferencing follow the chosen stride.
  AscMapping m;
  (void)terrain_from_asc(synthetic_grid(kMaxAscGrid + 1, 3), {}, &m);
  EXPECT_EQ(m.cols, (kMaxAscGrid + 1 - 1) / 2 + 1);
  EXPECT_EQ(m.rows, 2u);
  EXPECT_EQ(m.cellsize, 2.0);
}

TEST(AscTerrain, ExplicitStrideOverBudgetThrows) {
  // An explicit stride is honored, not clamped: leaving the sampled grid
  // over the kMaxAscGrid budget (or under 2 rows/cols) must throw, never
  // silently resample.
  EXPECT_THROW((void)terrain_from_asc(synthetic_grid(kMaxAscGrid + 1, 3), {.stride = 1}),
               std::runtime_error);
  EXPECT_THROW((void)terrain_from_asc(synthetic_grid(8, 2), {.stride = 2}),
               std::runtime_error);  // 2 rows stride to 1
}

TEST(AscTerrain, NodataOnlyGridThrows) {
  AscGrid g = synthetic_grid(4, 4);
  g.nodata = -9999.0;
  for (double& v : g.values) v = -9999.0;
  EXPECT_THROW((void)terrain_from_asc(g), std::runtime_error);

  // A single data cell short of a full 2x2 block is still untriangulable.
  AscGrid holes = synthetic_grid(4, 4);
  holes.nodata = -9999.0;
  for (u32 r = 0; r < 4; ++r) {
    for (u32 c = 0; c < 4; ++c) {
      if ((r + c) % 2 == 0) holes.values[static_cast<std::size_t>(r) * 4 + c] = -9999.0;
    }
  }
  EXPECT_THROW((void)terrain_from_asc(holes), std::runtime_error);
}

// ---------------------------------------------------------------------------
// AscRowReader: streaming row reads, windowed loads, adversarial payloads
// (the feed for the out-of-core pipeline, src/stream/)
// ---------------------------------------------------------------------------

/// A small grid with distinct values everywhere (detects any misaligned
/// windowed read immediately).
AscGrid distinct_grid(u32 ncols, u32 nrows) {
  AscGrid g;
  g.ncols = ncols;
  g.nrows = nrows;
  g.cellsize = 1.0;
  g.values.resize(static_cast<std::size_t>(ncols) * nrows);
  for (std::size_t i = 0; i < g.values.size(); ++i) {
    g.values[i] = static_cast<double>(i) + 0.25;
  }
  return g;
}

std::string asc_text(const AscGrid& g) {
  std::stringstream ss;
  save_asc_grid(g, ss);
  return ss.str();
}

TEST(AscReader, WindowedReadsMatchWholeFileLoad) {
  const AscGrid g = distinct_grid(6, 5);
  std::stringstream ss(asc_text(g));
  AscRowReader rd(ss);
  EXPECT_EQ(rd.header().ncols, g.ncols);
  EXPECT_EQ(rd.header().nrows, g.nrows);
  EXPECT_EQ(rd.header().cellsize, g.cellsize);

  const auto row_slice = [&](u32 lo, u32 hi) {
    return std::vector<double>(g.values.begin() + static_cast<std::ptrdiff_t>(lo) * g.ncols,
                               g.values.begin() + static_cast<std::ptrdiff_t>(hi) * g.ncols);
  };
  std::vector<double> buf(static_cast<std::size_t>(g.nrows) * g.ncols);

  auto mid = std::span(buf).first(std::size_t{2} * g.ncols);
  rd.read_rows(1, 3, mid);  // forward with a validated skip over row 0
  EXPECT_EQ(std::vector<double>(mid.begin(), mid.end()), row_slice(1, 3));

  rd.read_rows(0, 2, mid);  // backward via recorded offsets
  EXPECT_EQ(std::vector<double>(mid.begin(), mid.end()), row_slice(0, 2));

  auto last = std::span(buf).first(g.ncols);
  rd.read_rows(4, 5, last);  // forward with a gap
  EXPECT_EQ(std::vector<double>(last.begin(), last.end()), row_slice(4, 5));

  rd.reset();  // a fresh pass reproduces the whole payload
  EXPECT_EQ(rd.next_row(), 0u);
  rd.read_rows(0, g.nrows, buf);
  EXPECT_EQ(buf, g.values);

  EXPECT_THROW(rd.read_rows(2, g.nrows + 1, buf), std::runtime_error);  // out of range
}

TEST(AscReader, WindowedFileLoadMatchesWholeFile) {
  AscGrid g = distinct_grid(5, 6);
  g.nodata = -9999.0;
  g.yll = 100.0;
  g.cellsize = 2.0;
  const std::string path = test::temp_path("thsr_window", ".asc");
  save_asc_grid(g, path);

  const AscGrid whole = load_asc_grid(path);
  const AscGrid win = load_asc_window(path, 1, 4);
  EXPECT_EQ(win.ncols, g.ncols);
  EXPECT_EQ(win.nrows, 3u);
  // Window georeferencing: yll moves north past the dropped southern rows.
  EXPECT_EQ(win.yll, g.yll + (g.nrows - 4) * g.cellsize);
  ASSERT_TRUE(win.nodata.has_value());
  const std::vector<double> want(whole.values.begin() + 1 * g.ncols,
                                 whole.values.begin() + 4 * g.ncols);
  EXPECT_EQ(win.values, want);

  EXPECT_THROW((void)load_asc_window(path, 3, 3), std::runtime_error);  // empty window
  EXPECT_THROW((void)load_asc_window(path, 2, 7), std::runtime_error);  // past the end
  std::remove(path.c_str());
}

TEST(AscReader, MmapAndStreamPathsAgree) {
  const AscGrid g = distinct_grid(7, 4);
  const std::string path = test::temp_path("thsr_mmap", ".asc");
  save_asc_grid(g, path);
  std::vector<double> mapped_vals(g.values.size()), stream_vals(g.values.size());
  {
    AscRowReader rd(path, /*prefer_mmap=*/true);
#if defined(__unix__) || defined(__APPLE__)
    EXPECT_TRUE(rd.mapped());
#endif
    rd.read_rows(0, g.nrows, mapped_vals);
  }
  {
    AscRowReader rd(path, /*prefer_mmap=*/false);
    EXPECT_FALSE(rd.mapped());
    rd.read_rows(0, g.nrows, stream_vals);
  }
  EXPECT_EQ(mapped_vals, g.values);
  EXPECT_EQ(stream_vals, g.values);
  std::remove(path.c_str());
}

TEST(AscReader, AdversarialPayloadsThrowNeverCrash) {
  // Parse the declared shape to the end; malformed payloads must fault as
  // exceptions at the offending row (exercised under the ASan preset).
  const auto rejects_at_read = [](const std::string& data) {
    std::stringstream ss(data);
    EXPECT_THROW(
        {
          AscRowReader rd(ss);
          std::vector<double> row(rd.header().ncols);
          for (u32 r = 0; r < rd.header().nrows; ++r) rd.read_row(row);
        },
        std::runtime_error)
        << "accepted: " << data;
  };
  const std::string hdr = "ncols 3\nnrows 3\nxllcorner 0\nyllcorner 0\ncellsize 1\n";
  rejects_at_read(hdr + "1 2 3\n4 5\n");           // mid-row EOF (payload truncated)
  rejects_at_read(hdr + "1 2 3\n");                // whole rows missing (dims oversized)
  rejects_at_read(hdr + "1 2 3\n4 x 6\n7 8 9\n");  // non-numeric sample
  rejects_at_read("ncols 3\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n");  // no nrows

  {  // hostile per-row width is rejected before any allocation
    std::stringstream ss("ncols 200000000\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n");
    EXPECT_THROW(AscRowReader rd(ss), std::runtime_error);
  }
  {  // reading past the declared last row
    std::stringstream ss(hdr + "1 2 3\n4 5 6\n7 8 9\n");
    AscRowReader rd(ss);
    std::vector<double> all(9);
    rd.read_rows(0, 3, all);
    std::vector<double> row(3);
    EXPECT_THROW(rd.read_row(row), std::runtime_error);
  }
}

TEST(AscReader, CrlfParsesIdenticallyToLf) {
  const AscGrid g = distinct_grid(4, 3);
  const std::string lf = asc_text(g);
  std::string crlf, mixed;
  for (std::size_t i = 0; i < lf.size(); ++i) {
    if (lf[i] == '\n') {
      crlf += "\r\n";
      mixed += (i % 2 == 0) ? "\r\n" : "\n";  // alternating line endings
    } else {
      crlf += lf[i];
      mixed += lf[i];
    }
  }
  for (const std::string& text : {crlf, mixed}) {
    std::stringstream ss(text);
    AscRowReader rd(ss);
    std::vector<double> vals(g.values.size());
    rd.read_rows(0, g.nrows, vals);
    EXPECT_EQ(vals, g.values);
  }
}

TEST(AscReader, NodataOnlyWindowLoadsButDoesNotTriangulate) {
  AscGrid g = distinct_grid(4, 6);
  g.nodata = -9999.0;
  for (u32 r = 2; r < 4; ++r) {
    for (u32 c = 0; c < g.ncols; ++c) {
      g.values[static_cast<std::size_t>(r) * g.ncols + c] = *g.nodata;
    }
  }
  const std::string path = test::temp_path("thsr_nodata_window", ".asc");
  save_asc_grid(g, path);
  const AscGrid win = load_asc_window(path, 2, 4);  // the all-NODATA band
  EXPECT_EQ(win.nrows, 2u);
  for (const double v : win.values) EXPECT_EQ(v, *g.nodata);
  // Loading is fine; building terrain from a dataless window is the error.
  EXPECT_THROW((void)terrain_from_asc(win), std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The .asc number parser: every source reads a token exactly when `>>`
// reads the whole token, to the same bits (reference: asc_reference.hpp)
// ---------------------------------------------------------------------------

std::string asc_header(u32 ncols, u32 nrows, const char* eol = "\n") {
  return "ncols " + std::to_string(ncols) + eol + "nrows " + std::to_string(nrows) + eol +
         "xllcorner 0" + eol + "yllcorner 0" + eol + "cellsize 1" + eol;
}

TEST(AscParser, TokenCorpusMatchesStreamExtraction) {
  const std::string path = test::temp_path("thsr_token", ".asc");
  // Accepted by `>>`: signs, leading zeros, bare points, exponents, the
  // subnormal floor and underflows (read as zero). Rejected: overflow,
  // inf/nan, hex, dangling exponents, doubled or lone signs, lone points,
  // trailing garbage.
  const std::string accepted =
      "+5 -.5 5. 007 1E-5 4.9e-324 1e-400 -1e-400 2e-324 0e999 +.5 -0 1.e5 "
      "1.7976931348623157e308 12345678901234567890123456789 "
      "3.14159265358979323846264338327950288419716939937510";
  const std::string rejected =
      "1e400 1.7976931348623159e308 inf nan -inf INF infinity 0x1p3 0x10 1e 1e+ 1ee5 --1 +-1 "
      ". - + .e5 1.2.3 1e5e 1d5 4x 1,5 1-2";
  std::vector<std::string> corpus;
  for (const std::string& list : {accepted, rejected}) {
    std::istringstream words(list);
    for (std::string w; words >> w;) corpus.push_back(w);
  }
  for (const std::string& tok : corpus) {
    const std::optional<double> ref = test::reference_number(tok);
    // The token inside a row and as the payload's final value: a trailing
    // remainder is rejected in both places.
    for (const bool last : {false, true}) {
      const std::string payload = last ? "1 " + tok + "\n" : tok + " 1\n";
      std::optional<std::vector<double>> want;
      if (ref) want = last ? std::vector<double>{1.0, *ref} : std::vector<double>{*ref, 1.0};
      test::expect_reads_match(test::read_every_way(asc_header(2, 1) + payload, path), want,
                               "'" + tok + "'" + (last ? " (last)" : ""));
    }
  }
}

TEST(AscParser, SeparatorsAndLineWrapsMatchStreamExtraction) {
  const std::string path = test::temp_path("thsr_separators", ".asc");
  // Tab, \v, \f, CRLF, blank lines and values wrapped across lines: only
  // the token sequence matters, never the line structure.
  const std::string payload = "+5\t-.5\v5.\f\r\n007\n\n1E-5 \r\n 4.9e-324\r\n";
  for (const char* eol : {"\n", "\r\n"}) {
    test::expect_reads_match(test::read_every_way(asc_header(3, 2, eol) + payload, path),
                             test::reference_payload(payload, 6), "separator payload");
  }
}

TEST(AscParser, TokensBeyondOneChunkAreRejectedEverywhere) {
  const std::string path = test::temp_path("thsr_long_token", ".asc");
  // A long but sane token reads everywhere, also where it straddles the
  // boundary of the unmapped sources' 64 KiB read chunks...
  const std::string header = asc_header(2, 1);
  const std::string digits = "0." + std::string(1000, '0') + "125e1003";
  const std::string padding(65536 - header.size() - digits.size() / 2, ' ');
  test::expect_reads_match(test::read_every_way(header + padding + digits + " 2\n", path),
                           std::vector<double>{*test::reference_number(digits), 2.0},
                           "a 1 KB token");
  // ...but a single token longer than a chunk (64 KiB) is refused by every
  // source alike, rather than buffered without bound.
  const std::string huge = std::string(70000, '0') + "1";
  test::expect_reads_match(test::read_every_way(asc_header(2, 1) + huge + " 2\n", path),
                           std::nullopt, "a 70 KB token");
}

// ---------------------------------------------------------------------------
// PgmBandWriter (io/band_writer.hpp): the stream's mapped PGM emitter
// ---------------------------------------------------------------------------

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Columns [lo, hi) of `img`, row-major: what write_band takes.
std::vector<std::uint16_t> band_of(const io::GrayImage& img, u32 lo, u32 hi) {
  std::vector<std::uint16_t> out;
  for (u32 r = 0; r < img.height; ++r) {
    for (u32 c = lo; c < hi; ++c) out.push_back(img.at(r, c));
  }
  return out;
}

TEST(BandWriter, ContractViolationsThrow) {
  const std::string path = test::temp_path("thsr_band_contract", ".pgm");
  const std::vector<std::uint16_t> samples(8 * 3, 7);
  {
    io::PgmBandWriter w(path, 8, 3);
    w.write_band(2, 5, samples);
    EXPECT_THROW(w.write_band(4, 6, samples), std::runtime_error);  // overlaps column 4
    EXPECT_THROW(w.write_band(6, 9, samples), std::runtime_error);  // past the width
    EXPECT_THROW(w.write_band(6, 6, samples), std::runtime_error);  // empty band
    EXPECT_THROW(w.write_band(7, 6, samples), std::runtime_error);  // inverted band
    // A 3x3 band from 8 samples; then finish() with columns 0-1 and 5-7 missing.
    EXPECT_THROW(w.write_band(5, 8, std::span(samples).first(8)), std::runtime_error);
    EXPECT_THROW(w.finish(), std::runtime_error);
    w.write_band(0, 2, samples);
    w.write_band(5, 8, samples);
    w.finish();
    EXPECT_THROW(w.write_band(0, 1, samples), std::runtime_error);  // after finish()
  }
  {
    io::PgmBandWriter w(path, 4, 2, /*maxval=*/255);
    const std::vector<std::uint16_t> hot{1, 2, 256, 3};
    EXPECT_THROW(w.write_band(0, 2, hot), std::runtime_error);  // sample above maxval
    // A rejected band writes nothing: its columns are still free.
    const std::vector<std::uint16_t> ok{1, 2, 255, 3};
    w.write_band(0, 2, ok);
  }
  std::remove(path.c_str());
  EXPECT_THROW(io::PgmBandWriter(::testing::TempDir() + "/no_such_dir/band.pgm", 4, 2),
               std::runtime_error);
}

TEST(BandWriter, BandsInAnyOrderMatchWritePgm) {
  const std::string band_path = test::temp_path("thsr_band_any_order", ".pgm");
  const std::string whole_path = test::temp_path("thsr_band_whole", ".pgm");
  auto g = test::rng(909);
  for (const std::uint16_t maxval : {std::uint16_t{255}, std::uint16_t{65535}}) {
    const io::GrayImage img = random_gray(17 + maxval, 23, 7, maxval);
    // Random cuts, bands written in shuffled column order.
    std::vector<u32> cuts{0, img.width};
    for (int i = 0; i < 5; ++i) cuts.push_back(1 + static_cast<u32>(g() % (img.width - 1)));
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    std::vector<std::size_t> order(cuts.size() - 1);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), g);
    {
      io::PgmBandWriter w(band_path, img.width, img.height, maxval);
      for (const std::size_t b : order) {
        w.write_band(cuts[b], cuts[b + 1], band_of(img, cuts[b], cuts[b + 1]));
      }
      w.finish();
    }
    io::write_pgm(img, whole_path);
    EXPECT_EQ(file_bytes(band_path), file_bytes(whole_path)) << "maxval " << maxval;
    const io::GrayImage back = io::read_pgm(band_path);
    EXPECT_EQ(back.pixels, img.pixels) << "maxval " << maxval;
  }
  std::remove(band_path.c_str());
  std::remove(whole_path.c_str());
}

}  // namespace
}  // namespace thsr
