#pragma once
/// \file profile_query.hpp
/// Intersection-detection oracle against a *persistent* profile version —
/// the role the paper's shared ACG structure plays in phase 2 (section 3.1,
/// Lemmas 3.2/3.6). Given a query segment s and a profile version P, the
/// oracle reports, in increasing order, every abscissa where the above/below
/// state of s relative to P changes:
///
///   * Cross — s crosses the supporting line of a profile piece inside the
///     piece (an image vertex of the visible scene), or
///   * Break — the state flips at a piece boundary (a profile discontinuity:
///     a T-vertex of the visible scene, or the edge of the floor).
///
/// The walk descends the persistent treap with conservative z-box pruning
/// (subtrees uniformly above/below the query segment are skipped wholesale,
/// possibly emitting the single boundary event they imply) and decides
/// everything else with exact rational predicates at the pieces. This
/// replaces the paper's convex-chain augmentation on the shared persistent
/// structure; the static hull tree in bench/acg/hull_tree.hpp (a
/// bench-local library) provides the chain-augmented variant for static
/// envelopes, and bench table_e10_ablation_oracle quantifies the
/// substitution (DESIGN.md sec. 1.3).
///
/// Cost: O((1 + #events) * log |P|) node visits on terrain-like profiles.
/// A walk only reads: persistent versions are never rewritten, so any
/// number of walks may run on them concurrently (CREW); a single-version
/// profile (ptreap::Mode::SingleVersion) is read by its one owner between
/// its splices.

#include <vector>

#include "persist/ptreap.hpp"

namespace thsr {

enum class EventKind : unsigned char { Cross, Break };

struct TransitionEvent {
  QY y;
  int new_state{0};      ///< +1: s strictly above P just after y; -1: below/tie
  u32 profile_edge{0};   ///< crossed piece's edge (Cross) / piece entered (Break)
  EventKind kind{EventKind::Break};
};

/// Append all transitions of s vs version t on (from, to) to `out`, in
/// increasing y order; returns the initial state just after `from`: +1
/// when s is strictly above t there, -1 below or tied (ties lose to the
/// profile: the profile is in front). The walk reads that state off the
/// first piece (or pruned subtree) it meets — the one covering `from` —
/// so it costs no separate descent, and that first stretch emits no event.
/// Requires [from, to] within the floor coverage (always true for terrain
/// edges) and from < to.
int walk_transitions(ptreap::Ref t, const Seg2& s, const QY& from, const QY& to,
                     std::span<const Seg2> segs, std::vector<TransitionEvent>& out);

/// True when the integer ordinate w at abscissa y lies strictly above the
/// profile on both sides of y (the sliver visibility test, DESIGN.md 4.5).
bool strictly_above_at(ptreap::Ref t, const QY& y, i64 w, std::span<const Seg2> segs);

/// Linear-scan oracle over a *materialized* (flat, fully covering) piece
/// list: identical event semantics to walk_transitions, Theta(|overlap|)
/// per query. This is the "materialize the inherited profile at every node
/// and scan it" alternative to persistence — the ablation of bench
/// table_e12_ablation_phase2 quantifies what the persistent structure saves.
int walk_transitions_scan(std::span<const PieceData> pieces, const Seg2& s, const QY& from,
                          const QY& to, std::span<const Seg2> segs,
                          std::vector<TransitionEvent>& out);

}  // namespace thsr
