/// Property tests for the arena-indexed persistent treap (DESIGN.md
/// section 1.9). Three families of guarantees, each checked by explicit
/// traversal rather than through ptreap::validate (which would share bugs
/// with the code under test):
///
///  1. Structural invariants after random splice sequences — BST order on
///     start keys, strict heap order under the full priority comparator,
///     exact subtree counts, contiguous full coverage, and z-boxes that
///     contain every descendant's range.
///  2. Version isolation — a snapshot of any published version is
///     bit-identical (keys, edges, priorities, counts) after arbitrarily
///     many later updates branched off any version.
///  3. Layout equivalence — a pointer-based shim replicating the treap
///     algorithm over heap nodes (the pre-flattening representation)
///     produces the same tree node-for-node, preorder, as the arena-indexed
///     implementation on identical operation sequences. This pins that the
///     flattening was purely representational: the shim deliberately
///     duplicates the content-hash and tie-break constants, so any drift in
///     shape, priorities, or counts fails here before it can silently
///     change maps or work counters.
///  4. Single-version equivalence — the same splice histories replayed with
///     ptreap::Mode::SingleVersion (superseded nodes recycled through the
///     arena's free list) build, after every splice, the persistent run's
///     tree node for node, count the same nodes, and hold exactly the live
///     tree plus the free list.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "persist/ptreap.hpp"
#include "test_util.hpp"

namespace thsr {
namespace {

// --- replicated shape constants -------------------------------------------
// Mirrors of ptreap.cpp's internal hash/comparator. Duplicated on purpose:
// the arena layout's claim is that shape is a pure function of the piece
// set under exactly these constants, so the test must not link against the
// originals.

u64 mix(u64 x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

u64 content_prio(const PieceData& p) noexcept {
  return mix(mix(static_cast<u64>(p.edge)) ^ mix(static_cast<u64>(p.y0.p)) ^
             mix(static_cast<u64>(p.y0.q) * 0x517cc1b727220a95ull));
}

bool prio_less(u64 pa, const PieceData& a, u64 pb, const PieceData& b) noexcept {
  if (pa != pb) return pa < pb;
  if (a.edge != b.edge) return a.edge < b.edge;
  return cmp(a.y0, b.y0) < 0;
}

// --- pointer-layout shim ---------------------------------------------------
// The pre-flattening representation: heap nodes addressed by pointer, same
// algorithm (path-copying make/join/split_at/replace_range) transcribed
// 1:1. No z-boxes — those are float caches derived per node, covered by the
// invariant test instead.

struct ShimNode {
  PieceData piece;
  u64 prio{0};
  const ShimNode* l{nullptr};
  const ShimNode* r{nullptr};
  u32 count{1};
};

class Shim {
 public:
  const ShimNode* make(const ShimNode* l, const ShimNode* r, const PieceData& p) {
    nodes_.push_back(std::make_unique<ShimNode>());
    ShimNode& n = *nodes_.back();
    n.piece = p;
    n.prio = content_prio(p);
    n.l = l;
    n.r = r;
    n.count = 1 + (l ? l->count : 0) + (r ? r->count : 0);
    return &n;
  }

  const ShimNode* leaf(const PieceData& p) { return make(nullptr, nullptr, p); }

  const ShimNode* join(const ShimNode* x, const ShimNode* y) {
    if (!x) return y;
    if (!y) return x;
    if (prio_less(y->prio, y->piece, x->prio, x->piece)) {
      return make(x->l, join(x->r, y), x->piece);
    }
    return make(join(x, y->l), y->r, y->piece);
  }

  void split_key(const ShimNode* t, const QY& y, const ShimNode*& l, const ShimNode*& r) {
    if (!t) {
      l = r = nullptr;
      return;
    }
    if (cmp(t->piece.y0, y) < 0) {
      const ShimNode* rl = nullptr;
      split_key(t->r, y, rl, r);
      l = make(t->l, rl, t->piece);
    } else {
      const ShimNode* lr = nullptr;
      split_key(t->l, y, l, lr);
      r = make(lr, t->r, t->piece);
    }
  }

  PieceData remove_last(const ShimNode* t, const ShimNode*& rest) {
    if (!t->r) {
      rest = t->l;
      return t->piece;
    }
    const ShimNode* rr = nullptr;
    const PieceData p = remove_last(t->r, rr);
    rest = make(t->l, rr, t->piece);
    return p;
  }

  void split_at(const ShimNode* t, const QY& y, const ShimNode*& l, const ShimNode*& r) {
    split_key(t, y, l, r);
    if (!l) return;
    const ShimNode* m = l;
    while (m->r) m = m->r;
    if (cmp(m->piece.y1, y) <= 0) return;
    const ShimNode* rest = nullptr;
    const PieceData p = remove_last(l, rest);
    l = rest;
    if (cmp(p.y0, y) < 0) l = join(l, leaf(PieceData{p.y0, y, p.edge}));
    if (cmp(y, p.y1) < 0) r = join(leaf(PieceData{y, p.y1, p.edge}), r);
  }

  const ShimNode* make_floor() {
    return leaf(PieceData{QY::of(-kMaxCoord), QY::of(kMaxCoord), kFloorEdge});
  }

  const ShimNode* replace_range(const ShimNode* t, const QY& lo, const QY& hi,
                                std::span<const PieceData> run) {
    const ShimNode *left = nullptr, *mid = nullptr, *dropped = nullptr, *right = nullptr;
    split_at(t, lo, left, mid);
    split_at(mid, hi, dropped, right);
    (void)dropped;
    const ShimNode* run_t = nullptr;
    for (const PieceData& p : run) run_t = join(run_t, leaf(p));
    return join(join(left, run_t), right);
  }

 private:
  std::vector<std::unique_ptr<ShimNode>> nodes_;
};

// --- shared random-splice generator ---------------------------------------

struct Splice {
  QY lo, hi;
  std::vector<PieceData> run;
};

/// Deterministic splice sequence: exact-rational intervals with small
/// denominators, 1-4 contiguous run pieces each (the same distribution
/// tests/test_treap.cpp uses for its model check).
std::vector<Splice> random_splices(u64 seed, int steps, int max_edge) {
  auto g = test::rng(seed);
  std::uniform_int_distribution<i64> coord(-900, 900);
  std::uniform_int_distribution<int> den(1, 7), nrun(1, 4), edge(0, max_edge);
  std::vector<Splice> out;
  for (int step = 0; step < steps; ++step) {
    const int d1 = den(g), d2 = den(g);
    QY lo(coord(g) * d1 + den(g) - 1, d1);
    QY hi(coord(g) * d2 + den(g) - 1, d2);
    if (!(lo < hi)) std::swap(lo, hi);
    if (!(lo < hi)) continue;
    const int k = nrun(g);
    std::vector<QY> cuts{lo};
    for (int i = 1; i < k; ++i) {
      const QY c(lo.p * (k - i) * hi.q + hi.p * i * lo.q, i128{k} * lo.q * hi.q);
      if (cuts.back() < c && c < hi) cuts.push_back(c);
    }
    cuts.push_back(hi);
    Splice s{lo, hi, {}};
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      s.run.push_back({cuts[i], cuts[i + 1], static_cast<u32>(edge(g))});
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Seg2> wide_segments(u64 seed, std::size_t n) {
  auto g = test::rng(seed);
  std::uniform_int_distribution<i64> v(-500, 500);
  std::vector<Seg2> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(Seg2{-1000, v(g), 1000, v(g)});
  return out;
}

// --- 1. structural invariants ---------------------------------------------

struct Traversal {
  std::vector<const PNode*> inorder;
  u64 nodes{0};
};

void walk(ptreap::Ref t, Traversal& tr) {
  if (!t) return;
  ++tr.nodes;
  const PNode& n = *t;

  // Heap order under the *full* comparator: a child is strictly less than
  // its parent (the total order has no ties across distinct keys).
  for (const ptreap::Ref c : {t.left(), t.right()}) {
    if (c) {
      EXPECT_TRUE(prio_less(c->prio, c->piece, n.prio, n.piece))
          << "child priority not below parent";
    }
  }

  // Priorities really are the content hash (shape determinism).
  EXPECT_EQ(n.prio, content_prio(n.piece));

  // Exact subtree count.
  const u32 lc = t.left() ? t.left()->count : 0;
  const u32 rc = t.right() ? t.right()->count : 0;
  EXPECT_EQ(n.count, 1 + lc + rc);

  // z-box containment: the node's cached range covers both children's.
  for (const ptreap::Ref c : {t.left(), t.right()}) {
    if (c) {
      EXPECT_LE(n.zlo, c->zlo);
      EXPECT_GE(n.zhi, c->zhi);
    }
  }

  walk(t.left(), tr);
  tr.inorder.push_back(&n);
  walk(t.right(), tr);
}

class PTreapPropertyP : public ::testing::TestWithParam<u64> {};

TEST_P(PTreapPropertyP, InvariantsHoldAfterEverySplice) {
  const u64 seed = GetParam();
  PArena arena;
  const auto segs = wide_segments(seed * 5 + 3, 16);
  ptreap::Ref t = ptreap::make_floor(arena);
  for (const Splice& s : random_splices(seed, 40, 15)) {
    t = ptreap::replace_range(arena, t, s.lo, s.hi, s.run, segs);

    Traversal tr;
    walk(t, tr);
    EXPECT_EQ(tr.nodes, ptreap::count(t));

    // BST order on start keys + contiguous full coverage of the y-range.
    ASSERT_FALSE(tr.inorder.empty());
    EXPECT_EQ(cmp(tr.inorder.front()->piece.y0, QY::of(-kMaxCoord)), 0);
    EXPECT_EQ(cmp(tr.inorder.back()->piece.y1, QY::of(kMaxCoord)), 0);
    for (std::size_t i = 0; i + 1 < tr.inorder.size(); ++i) {
      const PNode& a = *tr.inorder[i];
      const PNode& b = *tr.inorder[i + 1];
      EXPECT_LT(cmp(a.piece.y0, b.piece.y0), 0) << "keys out of order at " << i;
      EXPECT_EQ(cmp(a.piece.y1, b.piece.y0), 0) << "coverage gap at " << i;
    }
    for (const PNode* n : tr.inorder) EXPECT_LT(cmp(n->piece.y0, n->piece.y1), 0);
  }
}

// --- 2. version isolation ---------------------------------------------------

struct Snapshot {
  std::vector<PieceData> pieces;
  std::vector<u64> prios;
  u32 root_count{0};
};

Snapshot snapshot(ptreap::Ref t) {
  Snapshot s;
  ptreap::collect(t, s.pieces);
  Traversal tr;
  walk(t, tr);
  for (const PNode* n : tr.inorder) s.prios.push_back(n->prio);
  s.root_count = ptreap::count(t);
  return s;
}

void expect_snapshot_equal(const Snapshot& a, const Snapshot& b) {
  ASSERT_EQ(a.pieces.size(), b.pieces.size());
  ASSERT_EQ(a.prios.size(), b.prios.size());
  EXPECT_EQ(a.root_count, b.root_count);
  for (std::size_t i = 0; i < a.pieces.size(); ++i) {
    EXPECT_EQ(cmp(a.pieces[i].y0, b.pieces[i].y0), 0);
    EXPECT_EQ(cmp(a.pieces[i].y1, b.pieces[i].y1), 0);
    EXPECT_EQ(a.pieces[i].edge, b.pieces[i].edge);
    EXPECT_EQ(a.prios[i], b.prios[i]);
  }
}

TEST_P(PTreapPropertyP, PublishedVersionsAreImmutable) {
  const u64 seed = GetParam();
  auto g = test::rng(seed ^ 0xabcdef);
  PArena arena;
  const auto segs = wide_segments(seed * 7 + 1, 16);

  std::vector<ptreap::Ref> versions{ptreap::make_floor(arena)};
  std::vector<Snapshot> snaps{snapshot(versions[0])};

  // Branch each update off a random prior version (persistence DAG, not a
  // chain), then re-verify every snapshot ever taken.
  for (const Splice& s : random_splices(seed ^ 0x5eed, 30, 15)) {
    const std::size_t base =
        std::uniform_int_distribution<std::size_t>(0, versions.size() - 1)(g);
    versions.push_back(ptreap::replace_range(arena, versions[base], s.lo, s.hi, s.run, segs));
    snaps.push_back(snapshot(versions.back()));
    for (std::size_t v = 0; v < versions.size(); ++v) {
      expect_snapshot_equal(snapshot(versions[v]), snaps[v]);
    }
  }
}

// --- 3. pointer-layout equivalence ------------------------------------------

void expect_same_tree(ptreap::Ref t, const ShimNode* s) {
  ASSERT_EQ(bool(t), s != nullptr);
  if (!t) return;
  EXPECT_EQ(cmp(t->piece.y0, s->piece.y0), 0);
  EXPECT_EQ(cmp(t->piece.y1, s->piece.y1), 0);
  EXPECT_EQ(t->piece.edge, s->piece.edge);
  EXPECT_EQ(t->prio, s->prio);
  EXPECT_EQ(t->count, s->count);
  expect_same_tree(t.left(), s->l);
  expect_same_tree(t.right(), s->r);
}

TEST_P(PTreapPropertyP, ArenaLayoutMatchesPointerShimNodeForNode) {
  const u64 seed = GetParam();
  PArena arena;
  Shim shim;
  const auto segs = wide_segments(seed * 11 + 5, 16);

  ptreap::Ref t = ptreap::make_floor(arena);
  const ShimNode* s = shim.make_floor();
  expect_same_tree(t, s);

  for (const Splice& sp : random_splices(seed ^ 0x1a9e, 40, 15)) {
    t = ptreap::replace_range(arena, t, sp.lo, sp.hi, sp.run, segs);
    s = shim.replace_range(s, sp.lo, sp.hi, sp.run);
    expect_same_tree(t, s);
  }
}

// --- 4. single-version equivalence -------------------------------------------

void expect_same_tree(ptreap::Ref a, ptreap::Ref b) {
  ASSERT_EQ(bool(a), bool(b));
  if (!a) return;
  EXPECT_EQ(cmp(a->piece.y0, b->piece.y0), 0);
  EXPECT_EQ(cmp(a->piece.y1, b->piece.y1), 0);
  EXPECT_EQ(a->piece.edge, b->piece.edge);
  EXPECT_EQ(a->prio, b->prio);
  EXPECT_EQ(a->count, b->count);
  EXPECT_EQ(a->zlo, b->zlo);
  EXPECT_EQ(a->zhi, b->zhi);
  expect_same_tree(a.left(), b.left());
  expect_same_tree(a.right(), b.right());
}

TEST_P(PTreapPropertyP, SingleVersionSplicesMatchPersistentOnes) {
  const u64 seed = GetParam();
  PArena persistent, single;
  const auto segs = wide_segments(seed * 13 + 7, 16);
  ptreap::Ref p = ptreap::make_floor(persistent);
  ptreap::Ref s = ptreap::make_floor(single);
  for (const Splice& sp : random_splices(seed ^ 0x51e6, 200, 15)) {
    p = ptreap::replace_range(persistent, p, sp.lo, sp.hi, sp.run, segs);
    s = ptreap::replace_range(single, s, sp.lo, sp.hi, sp.run, segs, ptreap::Mode::SingleVersion);
    ptreap::validate(s, segs);
    expect_snapshot_equal(snapshot(s), snapshot(p));
    expect_same_tree(s, p);
    // Every carved node is live or free — never both (a released node that
    // is still reachable) and never neither (a superseded node not released).
    ASSERT_EQ(single.carved_nodes(), ptreap::count(s) + single.free_nodes());
  }
  EXPECT_EQ(single.node_count(), persistent.node_count());  // alloc() counts reuse
  EXPECT_LT(single.carved_nodes(), persistent.carved_nodes());
  EXPECT_EQ(persistent.free_nodes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PTreapPropertyP, ::testing::Values(1, 2, 3, 4, 5),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

// --- arena determinism -------------------------------------------------------

TEST(PTreapProperty, ResetRebuildAssignsIdenticalIndices) {
  // Serial rebuilds after reset() replay the same alloc order into the same
  // retained blocks, so even the *indices* — not just the shapes — repeat.
  // This is the determinism HsrEngine warm solves lean on.
  PArena arena;
  const auto segs = wide_segments(21, 16);
  const auto splices = random_splices(42, 30, 15);

  const auto build = [&] {
    ptreap::Ref t = ptreap::make_floor(arena);
    for (const Splice& s : splices) t = ptreap::replace_range(arena, t, s.lo, s.hi, s.run, segs);
    return t;
  };
  const auto indices = [](ptreap::Ref t) {
    std::vector<u32> out;
    const std::function<void(ptreap::Ref)> rec = [&](ptreap::Ref n) {
      if (!n) return;
      out.push_back(n.index());
      rec(n.left());
      rec(n.right());
    };
    rec(t);
    return out;
  };

  const std::vector<u32> cold = indices(build());
  const u64 blocks = arena.allocated();
  arena.reset();
  const std::vector<u32> warm = indices(build());
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(arena.allocated(), blocks);  // zero new heap blocks
}

TEST(PTreapProperty, ReleasedNodesArePoisonedAndReusedFirst) {
  PArena arena;
  const ptreap::Ref a = ptreap::make_floor(arena);
  const ptreap::Ref b = ptreap::make_floor(arena);
  arena.release(a.index());
  arena.release(b.index());
  EXPECT_EQ(arena.node_mut(a.index()).count, 0u);
  EXPECT_EQ(arena.free_nodes(), 2u);
#ifndef NDEBUG
  // A descent into a released node fails its DCHECK instead of reading a
  // slot a later splice may have reused.
  EXPECT_DEATH((void)ptreap::count(a), "count != 0");
#endif
  EXPECT_EQ(arena.alloc(), b.index());  // LIFO: the last released node first
  EXPECT_EQ(arena.alloc(), a.index());
  EXPECT_EQ(arena.carved_nodes(), 2u);
  EXPECT_EQ(arena.node_count(), 4u);
  arena.release(a.index());
  arena.reset();  // empties the free list: the next node is carved anew
  EXPECT_EQ(arena.free_nodes(), 0u);
  (void)arena.alloc();
  EXPECT_EQ(arena.carved_nodes(), 1u);
}

}  // namespace
}  // namespace thsr
