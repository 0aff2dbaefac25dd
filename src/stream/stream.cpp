#include "stream/stream.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "parallel/backend.hpp"
#include "support/check.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define THSR_STREAM_RUSAGE 1
#endif

namespace thsr::stream {
namespace {

[[noreturn]] void fail(const std::string& msg) { throw std::runtime_error("stream: " + msg); }

/// The residency meter: every live pipeline buffer is charged here, the
/// peak is reported, and a nonzero budget turns the peak into a hard
/// fault — the enforcement behind the bench resident-bytes gate.
class Residency {
 public:
  explicit Residency(u64 budget) : budget_(budget) {}

  void add(u64 bytes) {
    cur_ += bytes;
    peak_ = std::max(peak_, cur_);
    if (budget_ != 0 && cur_ > budget_) {
      fail("resident bytes " + std::to_string(cur_) + " exceed the budget of " +
           std::to_string(budget_));
    }
  }
  void sub(u64 bytes) {
    THSR_DCHECK(bytes <= cur_);
    cur_ -= bytes;
  }
  u64 peak() const noexcept { return peak_; }

 private:
  u64 cur_{0}, peak_{0};
  u64 budget_;
};

u64 map_bytes(const VisibilityMap& m) {
  return u64{m.edge_slots()} * sizeof(std::vector<VisiblePiece>) +
         m.k_pieces() * sizeof(VisiblePiece);
}

/// One slab window in flight: rows, build, solve result, and the bytes it
/// currently has charged to the meter.
struct Slab {
  u32 index{0};
  u32 row_lo{0}, row_hi{0};  ///< grid rows loaded [row_lo, row_hi)
  i64 cut_lo{0}, cut_hi{0};  ///< owned sample ordinates [cut_lo, cut_hi)
  u64 tri_base{0};           ///< global id of the window's first triangle
  SlabBuild build;
  std::optional<HsrResult> result;
  u64 charged{0};
};

}  // namespace

void GridRowSource::read_rows(u32 row_lo, u32 row_hi, std::span<double> out) {
  THSR_CHECK(row_lo <= row_hi && row_hi <= g_->nrows);
  const std::size_t n = std::size_t{row_hi - row_lo} * g_->ncols;
  THSR_CHECK(out.size() >= n);
  std::copy_n(g_->values.begin() + std::size_t{row_lo} * g_->ncols, n, out.begin());
}

AscFileRowSource::AscFileRowSource(const std::string& path, bool prefer_mmap)
    : reader_(std::make_unique<AscRowReader>(path, prefer_mmap)) {}
AscFileRowSource::~AscFileRowSource() = default;
u32 AscFileRowSource::rows() const { return reader_->header().nrows; }
u32 AscFileRowSource::cols() const { return reader_->header().ncols; }
std::optional<double> AscFileRowSource::nodata() const { return reader_->header().nodata; }
void AscFileRowSource::read_rows(u32 row_lo, u32 row_hi, std::span<double> out) {
  reader_->read_rows(row_lo, row_hi, out);
}
void AscFileRowSource::reset() { reader_->reset(); }

StreamStats stream_solve(RowSource& src, const StreamOptions& opt, BandSink& sink) {
  if (opt.resident_slabs == 0) throw std::invalid_argument("stream: resident_slabs must be >= 1");
  raster::RasterOptions ropt;
  ropt.width = opt.width;
  ropt.height = opt.height;
  ropt.supersample = opt.supersample;
  raster::validate(ropt);

  const u32 R = src.rows(), C = src.cols();
  if (R < 2 || C < 2) fail("grid too small to triangulate (need >= 2x2)");
  const u32 max_rows = max_window_rows(C);
  if (max_rows < 2) fail("grid of " + std::to_string(C) + " columns is too wide for the lattice");
  // A middle slab's window spans slab_rows + 2 grid rows (one carried row
  // below the cut, one shared row above); the derived default is the
  // largest slab that always fits the coordinate budget. Explicit values
  // are validated per window by build_rows.
  u32 slab_rows = opt.slab_rows;
  if (slab_rows == 0) slab_rows = std::max<u32>(1, std::min(max_rows - 2, R - 1));
  const u32 S = static_cast<u32>((u64{R} - 1 + slab_rows - 1) / slab_rows);

  StreamStats stats;
  Residency res(opt.resident_bytes_budget);
  const std::optional<double> nodata = src.nodata();

  // Quantized height range: pinned by the caller or measured by a prescan
  // pass (nothing retained but the running min/max).
  i64 z_lo = 0, z_hi = 0;
  if (opt.z_range) {
    z_lo = opt.z_range->first;
    z_hi = opt.z_range->second;
    if (z_lo > z_hi) fail("z_range is inverted");
  } else {
    std::vector<double> row(C);
    res.add(row.size() * sizeof(double));
    bool any = false;
    for (u32 r = 0; r < R; ++r) {
      src.read_rows(r, r + 1, row);
      ++stats.rows_read;
      for (const double v : row) {
        if (nodata && v == *nodata) continue;
        const i64 q = quantize_height(v, opt.lattice);
        z_lo = any ? std::min(z_lo, q) : q;
        z_hi = any ? std::max(z_hi, q) : q;
        any = true;
      }
    }
    res.sub(row.size() * sizeof(double));
    src.reset();
  }
  stats.z_lo = z_lo;
  stats.z_hi = z_hi;

  const raster::ImageWindow window = stream_window(C, R, z_lo, z_hi);
  stats.window = window;
  const i64 ystep = lattice_ystep(C);
  const u32 W = opt.width, H = opt.height, sup = opt.supersample;
  const std::size_t hs = std::size_t{H} * sup;
  stats.samples = u64{W} * sup * H * sup;

  ropt.window = window;  // never consulted by scan_band (window passed explicitly)

  // The whole run executes under one executor configuration; per-slab
  // solves run at one thread inside it (the ShardedEngine convention).
  const par::ScopedConfig cfg(opt.solve.threads, opt.solve.backend);
  HsrOptions slab_opt = opt.solve;
  slab_opt.threads = 1;

  // Sub-column carry across band boundaries: when a boundary splits a
  // pixel column's `sup` sub-columns, the already-scanned ones wait here
  // until the next band completes the pixel (empty whenever sup == 1).
  std::vector<u32> carry_ids;
  std::vector<double> carry_depths;
  u64 carry_charged = 0;
  u32 next_sub = 0;  // tiling cursor: every band must start exactly here

  // Two-row tail of the last loaded window: consecutive windows overlap
  // in exactly these rows, so the source is only ever read forward.
  std::vector<double> tail;
  u32 tail_row_lo = 0, tail_rows = 0;
  u64 tail_charged = 0;

  const u32 B = opt.resident_slabs;
  std::vector<std::unique_ptr<HsrEngine>> engines;
  std::vector<u64> engine_charged;
  u64 tri_base = 0;

  for (u32 g0 = 0; g0 < S; g0 += B) {
    const u32 gn = std::min(B, S - g0);
    while (engines.size() < gn) {
      engines.push_back(std::make_unique<HsrEngine>());
      engine_charged.push_back(0);
    }

    // Load, build, and prepare the group's windows sequentially.
    std::vector<Slab> group(gn);
    for (u32 gi = 0; gi < gn; ++gi) {
      Slab& sl = group[gi];
      sl.index = g0 + gi;
      const u32 r_lo = static_cast<u32>(std::min<u64>(u64{sl.index} * slab_rows, R - 1));
      const u32 r_hi = static_cast<u32>(std::min<u64>(u64{sl.index + 1} * slab_rows, R - 1));
      sl.cut_lo = ystep * i64{r_lo};
      sl.cut_hi = ystep * i64{r_hi};
      sl.row_lo = r_lo == 0 ? 0 : r_lo - 1;
      sl.row_hi = r_hi + 1;
      sl.tri_base = tri_base;

      const u32 wr = sl.row_hi - sl.row_lo;
      std::vector<double> vals(std::size_t{wr} * C);
      res.add(vals.size() * sizeof(double));
      u32 have = 0;
      if (tail_rows > 0 && tail_row_lo <= sl.row_lo && sl.row_lo < tail_row_lo + tail_rows) {
        const u32 off = sl.row_lo - tail_row_lo;
        have = std::min(tail_rows - off, wr);
        std::copy_n(tail.begin() + std::size_t{off} * C, std::size_t{have} * C, vals.begin());
      }
      if (have < wr) {
        src.read_rows(sl.row_lo + have, sl.row_hi,
                      std::span(vals).subspan(std::size_t{have} * C));
        stats.rows_read += sl.row_hi - (sl.row_lo + have);
      }
      const u32 keep = std::min<u32>(2, wr);
      res.sub(tail_charged);
      tail.assign(vals.end() - std::ptrdiff_t{keep} * C, vals.end());
      tail_charged = tail.size() * sizeof(double);
      res.add(tail_charged);
      tail_row_lo = sl.row_hi - keep;
      tail_rows = keep;

      sl.build = build_rows(C, sl.row_lo, sl.row_hi, vals, nodata, tri_base, opt.lattice);
      tri_base += sl.build.tri_count - sl.build.last_row_tris;
      if (sl.index + 1 == S) stats.triangles = sl.tri_base + sl.build.tri_count;
      res.sub(vals.size() * sizeof(double));
      vals = {};

      sl.charged = sl.build.terrain.footprint_bytes() + sl.build.global_tri.size() * sizeof(u32);
      res.add(sl.charged);
      if (!sl.build.empty()) engines[gi]->prepare(sl.build.terrain);
    }

    // Fan the group's solves — one threads = 1 solve per engine, the same
    // shape for every budget, so counters cannot depend on B.
    par::fan_items(gn, [&](std::size_t gi) {
      Slab& sl = group[gi];
      if (!sl.build.empty()) sl.result = engines[gi]->solve(slab_opt);
    });
    for (u32 gi = 0; gi < gn; ++gi) {
      const u64 fp = engines[gi]->arena_footprint_bytes();
      if (fp > engine_charged[gi]) {
        res.add(fp - engine_charged[gi]);
        engine_charged[gi] = fp;
      }
      if (group[gi].result) {
        const u64 mb = map_bytes(group[gi].result->map);
        group[gi].charged += mb;
        res.add(mb);
      }
    }

    // Scan each slab's band, aggregate completed pixel columns, emit,
    // free — in slab order.
    for (u32 gi = 0; gi < gn; ++gi) {
      Slab& sl = group[gi];
      const u32 lo = raster::first_sub(window, W, sup, sl.cut_lo, /*strictly_greater=*/false);
      const u32 hi = sl.index + 1 == S
                         ? W * sup
                         : raster::first_sub(window, W, sup, sl.cut_hi, /*strictly_greater=*/false);
      THSR_CHECK(lo == next_sub);  // bands tile the image by construction
      next_sub = hi;

      // Rebased window: the slab's coordinates carry row_base = row_lo,
      // so shift the global window down by the exact same amount. Every
      // exact kernel is shift-invariant in y (dem_lattice.hpp).
      const i64 dy = ystep * i64{sl.row_lo};
      const raster::ImageWindow swin{window.y_lo - dy, window.y_hi - dy, window.z_lo, window.z_hi};
      const Terrain* tp = sl.build.empty() ? nullptr : &sl.build.terrain;
      const VisibilityMap* mp = sl.result ? &sl.result->map : nullptr;
      const std::vector<u32>* tmap = sl.build.empty() ? nullptr : &sl.build.global_tri;
      raster::BandScan scan = raster::scan_band(tp, mp, tmap, swin, ropt, lo, hi);
      const u64 scan_bytes =
          scan.ids.size() * sizeof(u32) + scan.depths.size() * sizeof(double);
      res.add(scan_bytes);

      const u64 band_crossings = scan.crossings, band_hits = scan.hit_samples;
      stats.crossings += scan.crossings;
      stats.hit_samples += scan.hit_samples;
      if (sl.result) {
        stats.work += sl.result->stats.work;
        stats.k_pieces += sl.result->stats.k_pieces;
      }

      // Free the solve state before aggregation: only the scanned samples
      // are needed from here on. sl.charged covers the terrain, the global
      // id map, and the visibility map in one figure.
      sl.result.reset();
      res.sub(sl.charged);
      sl.charged = 0;
      sl.build = SlabBuild{};

      // Prepend the carried sub-columns; the combined range is pixel
      // aligned on the left by the carry invariant.
      std::vector<u32> comb_ids = std::move(carry_ids);
      std::vector<double> comb_depths = std::move(carry_depths);
      carry_ids = {};
      carry_depths = {};
      comb_ids.insert(comb_ids.end(), scan.ids.begin(), scan.ids.end());
      comb_depths.insert(comb_depths.end(), scan.depths.begin(), scan.depths.end());
      res.add(scan_bytes);  // the combined copy, alongside the scan itself
      scan = raster::BandScan{};
      res.sub(scan_bytes);

      const u32 carry_n = static_cast<u32>(comb_ids.size() / hs) - (hi - lo);
      const u32 start_sub = lo - carry_n;
      THSR_CHECK(start_sub % sup == 0);
      const u32 pix_start = start_sub / sup;
      const u32 pix_end = hi / sup;

      if (pix_end > pix_start) {
        const u32 pw = pix_end - pix_start;
        raster::ImageRaster band;
        band.width = pw;
        band.height = H;
        band.supersample = sup;
        band.window = window;
        const std::size_t px = std::size_t{pw} * H;
        band.ids.assign(px, raster::kNoTriangle);
        band.depth.assign(px, 0.0f);
        band.coverage.assign(px, 0.0f);
        band.crossings = band_crossings;
        band.hit_samples = band_hits;
        res.add(px * (sizeof(u32) + 2 * sizeof(float)));
        for (u32 c = 0; c < pw; ++c) {
          raster::detail::aggregate_column(
              c, pw, H, sup, std::span(comb_ids).subspan(std::size_t{c} * sup * hs, sup * hs),
              std::span(comb_depths).subspan(std::size_t{c} * sup * hs, sup * hs), band.ids,
              band.depth, band.coverage);
        }
        band.samples = u64{pw} * sup * H * sup;
        sink.emit(pix_start, pix_end, band);
        ++stats.bands_emitted;
        res.sub(px * (sizeof(u32) + 2 * sizeof(float)));
      }

      // Retain the trailing partial pixel column as the next carry.
      const u32 new_carry = hi - pix_end * sup;
      res.sub(carry_charged);
      carry_ids.assign(comb_ids.end() - std::ptrdiff_t{new_carry} * hs, comb_ids.end());
      carry_depths.assign(comb_depths.end() - std::ptrdiff_t{new_carry} * hs, comb_depths.end());
      carry_charged =
          carry_ids.size() * sizeof(u32) + carry_depths.size() * sizeof(double);
      res.add(carry_charged);
      res.sub(scan_bytes);  // the combined copy retires
      ++stats.slabs;
    }
  }

  THSR_CHECK(next_sub == W * sup && carry_ids.empty());
  res.sub(tail_charged);
  res.sub(carry_charged);
  stats.peak_resident_bytes = res.peak();

#ifdef THSR_STREAM_RUSAGE
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    stats.max_rss_bytes = static_cast<u64>(ru.ru_maxrss);
#else
    stats.max_rss_bytes = static_cast<u64>(ru.ru_maxrss) * 1024;
#endif
  }
#endif
  return stats;
}

StreamStats stream_solve_asc(const std::string& path, const StreamOptions& opt, BandSink& sink) {
  AscFileRowSource src(path);
  return stream_solve(src, opt, sink);
}

}  // namespace thsr::stream
