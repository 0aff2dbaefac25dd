#include "acg/all_crossings.hpp"

#include <algorithm>
#include <mutex>

#include "parallel/backend.hpp"

namespace thsr {

std::vector<CrossHit> all_crossings_walk(const HullTree& t, const Seg2& s, const QY& from,
                                         const QY& to) {
  std::vector<CrossHit> out;
  QY cur = from;
  while (auto hit = t.first_crossing(s, cur, to)) {
    cur = hit->y;
    out.push_back(std::move(*hit));
  }
  return out;
}

namespace {

void split_rec(const HullTree& t, const Envelope& env, const Seg2& s, const QY& from,
               const QY& to, bool parallel, std::vector<CrossHit>& out, std::mutex& mu) {
  if (!(from < to)) return;
  // Piece index window overlapping (from, to).
  const auto& ps = env.pieces();
  const auto lo_it = std::partition_point(ps.begin(), ps.end(),
                                          [&](const EnvPiece& p) { return p.y1 <= from; });
  const auto hi_it =
      std::partition_point(lo_it, ps.end(), [&](const EnvPiece& p) { return p.y0 < to; });
  const std::size_t lo = static_cast<std::size_t>(lo_it - ps.begin());
  const std::size_t hi = static_cast<std::size_t>(hi_it - ps.begin());
  if (hi - lo <= 4) {  // small window: plain walk
    QY cur = from;
    while (auto hit = t.first_crossing(s, cur, to)) {
      cur = hit->y;
      std::lock_guard<std::mutex> lk(mu);
      out.push_back(std::move(*hit));
    }
    return;
  }
  // The "middle diagonal": a piece boundary strictly inside (from, to).
  // Index >= lo+2 has y0 >= piece[lo].y1 > from; index < hi has y0 < to.
  const QY d = ps[lo + (hi - lo) / 2].y0;
  THSR_DCHECK(from < d && d < to);
  const auto cl = t.last_crossing(s, from, d);
  const auto cr = t.first_crossing(s, d, to);
  if (cl) {
    std::lock_guard<std::mutex> lk(mu);
    out.push_back(*cl);
  }
  if (cr) {
    std::lock_guard<std::mutex> lk(mu);
    out.push_back(*cr);
  }
  par::fork_join([&] { if (cl) split_rec(t, env, s, from, cl->y, parallel, out, mu); },
                 [&] { if (cr) split_rec(t, env, s, cr->y, to, parallel, out, mu); },
                 parallel);
}

}  // namespace

std::vector<CrossHit> all_crossings_split(const HullTree& t, const Envelope& env, const Seg2& s,
                                          const QY& from, const QY& to, bool parallel) {
  std::vector<CrossHit> out;
  std::mutex mu;
  if (parallel) {
    par::run_root_task([&] { split_rec(t, env, s, from, to, true, out, mu); });
  } else {
    split_rec(t, env, s, from, to, false, out, mu);
  }
  std::sort(out.begin(), out.end(), [](const CrossHit& a, const CrossHit& b) { return a.y < b.y; });
  return out;
}

}  // namespace thsr
