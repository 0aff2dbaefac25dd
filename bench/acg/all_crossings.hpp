#pragma once
/// \file all_crossings.hpp
/// All k_s crossings of a segment with an envelope (paper Lemma 3.2), two
/// strategies over the static ACG:
///
///  * walk  — iterate first-crossing left to right: O(k_s * T_I), the
///            sequential schedule;
///  * split — the paper's recursion: split s at the middle diagonal, find
///            the crossing nearest the diagonal on each side, recurse on the
///            outer pieces (in parallel): O(T_I log m) depth with enough
///            workers, O((1 + k_s) T_I) work.
///
/// Both report exactly the crossings interior to envelope pieces; bench
/// table_f2_acg_query compares them (experiment E7).

#include "acg/hull_tree.hpp"

namespace thsr {

std::vector<CrossHit> all_crossings_walk(const HullTree& t, const Seg2& s, const QY& from,
                                         const QY& to);

std::vector<CrossHit> all_crossings_split(const HullTree& t, const Envelope& env, const Seg2& s,
                                          const QY& from, const QY& to, bool parallel = false);

}  // namespace thsr
