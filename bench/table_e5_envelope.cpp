/// E5 — Lemma 3.1: the profile (upper envelope) of m segments is built in
/// O(log^2 m) steps with O(m alpha(m)/log m) processors. Measured: envelope
/// size stays ~linear in m (the Davenport–Schinzel alpha(m) factor is flat),
/// serial build scales ~m log m, task-parallel build beats it at scale.

#include "bench_util.hpp"
#include "envelope/build.hpp"
#include "support/random_segments.hpp"
#include "support/stopwatch.hpp"

int main() {
  using namespace thsr;
  using namespace thsr::bench;
  print_header("E5", "Lemma 3.1",
               "envelope size O(m alpha(m)) ~ linear; D&C build, parallel speedup");

  Table t({"source", "m", "env_pieces", "pieces/m", "serial_ms", "parallel_ms", "speedup"});
  const auto time_s = [](auto&& fn) {
    const Stopwatch clock;
    fn();
    return clock.seconds();
  };

  std::vector<std::size_t> sizes{1'000, 4'000, 16'000, 64'000};
  if (large()) sizes.push_back(256'000);
  for (const std::size_t m : sizes) {
    const auto segs = support::random_segments(42, m, 100'000);
    std::vector<u32> ids(m);
    for (u32 i = 0; i < m; ++i) ids[i] = i;
    Envelope serial, parallel;
    const double ts = time_s([&] { serial = envelope_of(ids, segs, false); });
    const double tp = time_s([&] { parallel = envelope_of(ids, segs, true); });
    t.row({"random", Table::num(static_cast<long long>(m)),
           Table::num(static_cast<long long>(serial.size())),
           Table::num(static_cast<double>(serial.size()) / static_cast<double>(m), 3), ms(ts),
           ms(tp), Table::num(ts / tp, 2)});
  }
  // Terrain edge sets (shared endpoints; the algorithm's real input).
  for (const u32 g : {32u, 64u, 96u}) {
    const Terrain terr = make(Family::Fbm, g);
    std::vector<Seg2> segs(terr.edge_count(), Seg2{0, 0, 1, 0});
    std::vector<u32> ids;
    for (u32 e = 0; e < terr.edge_count(); ++e) {
      if (!terr.is_sliver(e)) {
        segs[e] = terr.image_segment(e);
        ids.push_back(e);
      }
    }
    Envelope serial, parallel;
    const double ts = time_s([&] { serial = envelope_of(ids, segs, false); });
    const double tp = time_s([&] { parallel = envelope_of(ids, segs, true); });
    t.row({"terrain", Table::num(static_cast<long long>(ids.size())),
           Table::num(static_cast<long long>(serial.size())),
           Table::num(static_cast<double>(serial.size()) / static_cast<double>(ids.size()), 3),
           ms(ts), ms(tp), Table::num(ts / tp, 2)});
  }
  t.print_markdown(std::cout);
  t.maybe_write_csv("table_e5_envelope");
  return 0;
}
