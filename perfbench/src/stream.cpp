/// stream — out-of-core streaming: stream_solve over an .asc DEM that
/// set-up writes to disk (about a hundred slab windows tall), at
/// resident_slabs = nproc and solve threads = nproc, into a 16-bit
/// coverage PGM on disk. Each run's PGM digest and StreamStats counters
/// must equal a set-up run at resident_slabs = 1 on the serial backend,
/// and the sink's finish() must pass. The row source and the band sink
/// are wrapped in timing decorators (terrain.read, io.emit).

#include <fstream>
#include <iterator>
#include <memory>

#include "stream/sinks.hpp"
#include "stream/stream.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace thsr;

struct Shape {
  u32 cols, slab_rows, windows, width, height;
  u32 rows() const { return windows * (slab_rows + 2); }
};
constexpr Shape kFull{12, 6, 100, 256, 96};
constexpr Shape kQuick{12, 6, 12, 64, 32};

struct State {
  Shape shape{};
  std::string asc_path, pgm_path;
  stream::StreamOptions opt;
  stream::StreamStats ref;
  u64 ref_digest{0};
};

double hash01(u64 seed, u64 r, u64 c) {
  return static_cast<double>(mix(seed ^ mix((r << 32) | c)) >> 11) * 0x1.0p-53;
}

/// Triangle wave in [0, 1] with the given half-period.
double tri_wave(u64 i, u64 period) {
  const u64 m = i % (2 * period);
  return static_cast<double>(m < period ? m : 2 * period - m) / static_cast<double>(period);
}

/// Seeded DEM: ridges across the columns (the viewing depth) occlude each
/// other, a swell runs down the rows, hash noise breaks ties. The seed
/// moves the swell's phase and the noise, not the relief's scale, so every
/// seed costs about the same. Integer hash
/// and exact dyadic arithmetic only, so the file is identical everywhere.
AscGrid make_dem(const Shape& s, u64 seed) {
  AscGrid g;
  g.ncols = s.cols;
  g.nrows = s.rows();
  g.cellsize = 1.0;
  g.values.resize(std::size_t{g.ncols} * g.nrows);
  const u64 phase = mix(seed) % 114;
  for (u32 r = 0; r < g.nrows; ++r) {
    for (u32 c = 0; c < g.ncols; ++c) {
      g.values[std::size_t{r} * g.ncols + c] =
          36.0 * tri_wave(c, 9) + 18.0 * tri_wave(r + phase, 57) + 9.0 * hash01(seed, r, c);
    }
  }
  return g;
}

u64 file_digest(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(is)), {});
  if (!is.eof() && !is) throw std::runtime_error("cannot read " + path);
  return fnv1a_vec(bytes, 0xcbf29ce484222325ull);
}

bool same_counters(const stream::StreamStats& a, const stream::StreamStats& b) {
  return a.slabs == b.slabs && a.bands_emitted == b.bands_emitted && a.rows_read == b.rows_read &&
         a.triangles == b.triangles && a.k_pieces == b.k_pieces && a.crossings == b.crossings &&
         a.hit_samples == b.hit_samples && a.samples == b.samples && a.work == b.work;
}

/// RowSource decorator timing every read (both passes) as terrain.read.
class TimedRows final : public stream::RowSource {
 public:
  TimedRows(const std::string& path, u64 op) : op_(op) {
    Span s("terrain.open", op_);
    src_ = std::make_unique<stream::AscFileRowSource>(path);
  }
  u32 rows() const override { return src_->rows(); }
  u32 cols() const override { return src_->cols(); }
  std::optional<double> nodata() const override { return src_->nodata(); }
  void read_rows(u32 row_lo, u32 row_hi, std::span<double> out) override {
    Span s("terrain.read", op_);
    src_->read_rows(row_lo, row_hi, out);
  }
  void reset() override {
    Span s("terrain.read", op_);
    src_->reset();
  }

 private:
  u64 op_;
  std::unique_ptr<stream::AscFileRowSource> src_;
};

/// BandSink decorator timing every band write as io.emit.
class TimedSink final : public stream::BandSink {
 public:
  TimedSink(stream::BandSink& inner, u64 op) : inner_(inner), op_(op) {}
  void emit(u32 col_lo, u32 col_hi, const raster::ImageRaster& band) override {
    Span s("io.emit", op_);
    inner_.emit(col_lo, col_hi, band);
  }

 private:
  stream::BandSink& inner_;
  u64 op_;
};

std::unique_ptr<State> make_state(const Plan& plan) {
  auto st = std::make_unique<State>();
  st->shape = plan.quick ? kQuick : kFull;
  const std::string stem = plan.work_dir + "/stream-" + std::to_string(plan.seed);
  st->asc_path = stem + ".asc";
  st->pgm_path = stem + ".pgm";
  save_asc_grid(make_dem(st->shape, mix(plan.seed ^ 0x57e4)), st->asc_path);

  stream::StreamOptions& o = st->opt;
  o.slab_rows = st->shape.slab_rows;
  o.resident_slabs = static_cast<u32>(plan.threads);
  o.width = st->shape.width;
  o.height = st->shape.height;
  o.solve.threads = plan.threads;

  stream::StreamOptions ref = o;
  ref.resident_slabs = 1;
  ref.solve.threads = 1;
  ref.solve.backend = par::Backend::Serial;
  const std::string ref_pgm = stem + ".ref.pgm";
  {
    stream::PgmCoverageBandSink sink(ref_pgm, o.width, o.height);
    st->ref = stream::stream_solve_asc(st->asc_path, ref, sink);
    sink.finish();
  }
  st->ref_digest = file_digest(ref_pgm);
  std::remove(ref_pgm.c_str());
  return st;
}

}  // namespace

Outcome run_stream(const Plan& plan) {
  Outcome out;
  std::unique_ptr<State> st;
  const double setup_s = timed_setup(plan.setup_reps, st, [&] { return make_state(plan); });

  std::vector<double> lat_plain, lat_traced, compute, peak_resident;
  stream::StreamStats last{};
  const std::size_t min_ops = plan.traced ? 4 : 2;
  PeakWindows mem;
  const u64 t_start = now_ns();
  const u64 budget = static_cast<u64>(plan.seconds * 1e9);
  for (std::size_t op = 0; op < min_ops || now_ns() - t_start < budget; ++op) {
    const bool traced = plan.traced && op % 2 == 0;
    const u64 id = next_op_id();
    Tracer::enable(traced);
    bool ok = false;
    const u64 t0 = now_ns();
    try {
      Span whole("stream.op", id);
      TimedRows src(st->asc_path, id);
      std::optional<stream::PgmCoverageBandSink> pgm;
      {
        Span s("io.open", id);
        pgm.emplace(st->pgm_path, st->opt.width, st->opt.height);
      }
      TimedSink sink(*pgm, id);
      {
        Span s("stream.solve", id);
        last = stream::stream_solve(src, st->opt, sink);
      }
      {
        Span s("io.finish", id);
        pgm->finish();
        pgm.reset();
      }
      Span s("bench.verify", id);
      ok = same_counters(last, st->ref) && file_digest(st->pgm_path) == st->ref_digest;
    } catch (const std::exception& e) {
      out.report.push_back(std::string("  stream op failed: ") + e.what());
    }
    const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
    (traced ? lat_traced : lat_plain).push_back(ms);
    peak_resident.push_back(static_cast<double>(last.peak_resident_bytes) / (1 << 20));
    ++out.attempted;
    if (!ok) ++out.failed;
    mem.tick();
  }
  Tracer::enable(false);
  const double elapsed = static_cast<double>(now_ns() - t_start) * 1e-9;
  std::remove(st->pgm_path.c_str());
  std::remove(st->asc_path.c_str());

  const Shape& sh = st->shape;
  const double cells = static_cast<double>(sh.cols) * sh.rows();
  const double ops_per_s = static_cast<double>(out.attempted) / elapsed;
  const Tail tl = tail(lat_plain, 0.90);
  const double p50 = median(lat_plain);
  char note[200];
  std::snprintf(note, sizeof note,
                "stream: %ux%u DEM (%u-row slabs; %ux one slab window), %ux%u PGM, resident_slabs %d, "
                "threads %d, backend %s",
                sh.cols, sh.rows(), sh.slab_rows, sh.windows, sh.width, sh.height, plan.threads,
                plan.threads, par::backend_name(par::backend()));
  out.report.push_back(note);
  std::snprintf(note, sizeof note, "(n=%zu runs of %.0f cells in %.2f s)", out.attempted, cells,
                elapsed);
  out.report.push_back(report_line("stream.mcells_per_s", ops_per_s * cells * 1e-6, "Mcell/s", note));
  std::snprintf(note, sizeof note, "(median of %zu)", lat_plain.size());
  out.report.push_back(report_line("stream.run_p50_ms", p50, "ms", note));
  std::snprintf(note, sizeof note, "(p%.0f of %zu, %zu beyond)", tl.q * 100, lat_plain.size(),
                tl.beyond);
  out.report.push_back(report_line("stream.run_tail_ms", tl.value, "ms", note));
  out.report.push_back(report_line("stream.peak_rss_mb", mem.median_mb(), "MB", "(median 1-s VmHWM)"));
  out.report.push_back(report_line("stream.failed_ratio",
                                   static_cast<double>(out.failed) / out.attempted, "ratio"));
  put_e2e(out, setup_s, ops_per_s, p50, tl.value, mem.median_mb());

  if (plan.traced) {
    const auto read = Tracer::ms_by_op("terrain.read");
    const auto open = Tracer::ms_by_op("terrain.open");
    const auto emit = Tracer::ms_by_op("io.emit");
    const auto io_open = Tracer::ms_by_op("io.open");
    const auto finish = Tracer::ms_by_op("io.finish");
    std::vector<double> read_ms, emit_ms;
    for (const auto& [id, solve_ms] : Tracer::ms_by_op("stream.solve")) {
      const auto at = [&](const std::map<u64, double>& m) {
        const auto it = m.find(id);
        return it == m.end() ? 0.0 : it->second;
      };
      read_ms.push_back(at(read) + at(open));
      emit_ms.push_back(at(emit) + at(io_open) + at(finish));
      compute.push_back(solve_ms - at(read) - at(emit));
    }
    Metrics& L = out.layer;
    L["terrain.read_ms"] = {median(read_ms), "ms"};
    L["io.emit_ms"] = {median(emit_ms), "ms"};
    L["stream.compute_ms"] = {median(compute), "ms"};
    L["terrain.rows_read"] = {static_cast<double>(st->ref.rows_read), "count"};
    L["stream.slabs"] = {static_cast<double>(st->ref.slabs), "count"};
    L["stream.k_pieces"] = {static_cast<double>(st->ref.k_pieces), "count"};
    L["stream.work_total"] = {static_cast<double>(st->ref.work.total()), "count"};
    L["stream.peak_resident_mb"] = {median(peak_resident), "MB"};
    L["trace.coverage_pct"] = {100.0 * Tracer::coverage("stream.op"), "%"};
    L["trace.overhead_pct"] = {overhead_pct(lat_traced, lat_plain), "%"};
  }
  return out;
}

}  // namespace perfbench
