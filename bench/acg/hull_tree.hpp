#pragma once
/// \file hull_tree.hpp
/// The static augmented Chazelle–Guibas structure (the paper's "ACG",
/// section 3.1, Figure 2): a balanced tree over the pieces of an envelope
/// whose every node carries the convex chains (upper and lower hulls) of its
/// pieces' endpoints — the Preparata–Vitter-style augmentation the paper
/// describes ("augment each edge ab of the CG data structure with the lower
/// convex chain of the vertices of the profile between a and b").
///
/// A first-crossing query descends from the root, tests the query line
/// against a node's chains by O(log) unimodal search, and recurses only into
/// subtrees whose chains leave the answer open, taking the leftmost hit —
/// O(log^2 m) on chain-separable inputs, exact always (chains are
/// conservative in double precision; piece-level decisions are exact
/// rational predicates). Build: O(m log m) time and space.
///
/// The structure is static, matching the paper's key design move: "the
/// underlying data-structure is static although it has to be rebuilt a
/// (small) number of times".

#include <atomic>
#include <optional>

#include "acg/lower_hull.hpp"
#include "envelope/envelope.hpp"

namespace thsr {

struct CrossHit {
  QY y;
  std::size_t piece_index{0};  ///< index into the envelope's piece array
  u32 piece_edge{0};
};

class HullTree {
 public:
  /// Build over an envelope (kept by reference; must outlive the tree).
  HullTree(const Envelope& env, std::span<const Seg2> segs);

  /// Earliest crossing of s with the envelope in the open interval (from,to).
  std::optional<CrossHit> first_crossing(const Seg2& s, const QY& from, const QY& to) const;

  /// Latest crossing of s with the envelope in (from, to).
  std::optional<CrossHit> last_crossing(const Seg2& s, const QY& from, const QY& to) const;

  std::size_t size() const noexcept { return env_->size(); }

  /// Tree nodes visited by queries since construction (instrumentation;
  /// atomic because all_crossings_split queries one tree from many workers).
  u64 nodes_visited() const noexcept { return visited_.load(std::memory_order_relaxed); }
  void reset_stats() const noexcept { visited_.store(0, std::memory_order_relaxed); }

 private:
  struct Node {
    std::size_t lo{0}, hi{0};  // piece index range [lo, hi)
    HullChain upper, lower;    // hulls of piece endpoints in the range
  };

  std::size_t build(std::size_t lo, std::size_t hi);
  template <bool Leftmost>
  std::optional<CrossHit> search(std::size_t node, const Seg2& s, const QY& from,
                                 const QY& to) const;
  std::optional<CrossHit> leaf_test(std::size_t piece, const Seg2& s, const QY& from,
                                    const QY& to) const;

  const Envelope* env_;
  std::span<const Seg2> segs_;
  std::vector<Node> nodes_;
  std::size_t root_{0};
  mutable std::atomic<u64> visited_{0};
};

}  // namespace thsr
