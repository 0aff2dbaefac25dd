#pragma once
/// \file ptreap.hpp
/// Partially persistent treap of profile pieces — the realization of the
/// paper's persistent visibility structure (its reference [6], Driscoll–
/// Sarnak–Sleator–Tarjan). Phase 2 of the algorithm materializes many prefix
/// profiles P_0 … P_n that share almost all of their structure (Figure 3 of
/// the paper); here each profile is an immutable version (a root reference)
/// and every update path-copies O(log) nodes, leaving all published versions
/// readable concurrently (the CREW discipline).
///
/// Keys are piece start abscissae. Priorities are *content hashes*, so the
/// tree shape depends only on the piece set, not on operation history: runs
/// with different thread counts or merge schedules produce bit-identical
/// structures (pinned by tests/test_determinism.cpp).
///
/// Profiles maintain *full coverage*: a version always covers
/// [-kMaxCoord, kMaxCoord] with no gaps, thanks to pseudo-edge kFloorEdge
/// (a constant segment at z = -kMaxCoord, strictly below every admissible
/// terrain vertex). Full coverage lets queries derive exact subtree spans
/// from ancestor keys alone — no per-node coverage storage — and makes the
/// conservative z-box pruning in cg/profile_query.cpp sound.
///
/// **Node layout (DESIGN.md section 1.9).** Nodes are not heap objects:
/// they live in the fixed-size blocks of a PArena and children are 32-bit
/// *arena indices* (block number * block capacity + offset), not pointers.
/// A version is a ptreap::Ref — (arena, root index) — and every descent
/// resolves children through the arena's write-once block table. Compared
/// with the previous two-pointer layout this shrinks the node (the child
/// slots drop from 16 bytes to 8, and the node packs to 144 bytes instead
/// of 160 under the 16-byte QY alignment), keeps sibling allocations in
/// the same block after an arena reset, and caps a version's footprint so
/// one host can hold more warm engines (Kammer et al., space-efficient
/// HSR, PAPERS.md). The flattening is purely representational: the same
/// make/join/split sequence runs node for node, so maps, shapes, and all
/// work counters stay bit-identical to the pointer layout
/// (tests/test_treap_property.cpp pins this against a pointer-based shim).
///
/// **Single-version splices (DESIGN.md section 1.9).** replace_range with
/// `ptreap::Mode::SingleVersion` recycles every node it supersedes through
/// the arena's free list. It builds the same nodes in the same order, so
/// shapes, maps and counters equal a persistent run's; only the footprint
/// shrinks, from the whole history to the live profile.
///
/// **Resolution-bounded solves (DESIGN.md section 1.12).** The treap itself
/// has no pruning hook: under `HsrOptions::pixel_budget` the envelope layer
/// coalesces sample-free pieces *before* they reach phase 2, so bounded
/// runs insert fewer pieces per version and every path-copied spine is
/// shorter. The HsrStats::treap_nodes drop that bench_ci gates on the
/// dense staircase comes entirely from that upstream coalescing — no treap
/// code branches on the budget, which is why bounded and exact versions
/// remain structurally comparable (same hash-priority shape discipline).

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "envelope/envelope.hpp"

namespace thsr {

/// Pseudo-edge id for the floor piece.
inline constexpr u32 kFloorEdge = 0xffffffffu;

/// The floor segment: constant z = -kMaxCoord over the whole admissible
/// y-range. Terrain vertices satisfy |z| < kMaxCoord, so real geometry is
/// always strictly above the floor.
inline const Seg2& floor_seg() noexcept {
  static const Seg2 s{-kMaxCoord, -kMaxCoord, kMaxCoord, -kMaxCoord};
  return s;
}

/// Segment of a (possibly pseudo) edge id.
inline const Seg2& resolve_seg(std::span<const Seg2> segs, u32 edge) noexcept {
  return edge == kFloorEdge ? floor_seg() : segs[edge];
}

/// One profile piece: `edge` restricted to [y0, y1).
struct PieceData {
  QY y0, y1;
  u32 edge{kFloorEdge};
};

/// Nil child / root sentinel for arena node indices.
inline constexpr u32 kNilNode = 0xffffffffu;

/// Immutable persistent node, indexed — not addressed — through its arena.
/// Fields are written once at construction and never mutated after the node
/// becomes reachable from a published version. `l`/`r` are arena indices
/// (kNilNode = empty); keeping them 32-bit is what packs the node to 144
/// bytes under QY's 16-byte alignment: two 48-byte QYs and an edge id pad
/// to a 112-byte piece, and the fields after it add 28. A node on a free
/// list has count 0 and links the list through `l`.
struct PNode {
  PieceData piece;
  u64 prio{0};           ///< content hash (shape determinism)
  u32 l{kNilNode};       ///< left child arena index
  u32 r{kNilNode};       ///< right child arena index
  u32 count{1};          ///< subtree piece count (0 = released)
  float zlo{0}, zhi{0};  ///< conservative subtree z-range (outward-rounded)
};
// A size change moves every arena footprint the docs quote (a 2^14-node
// block is 2.25 MiB): restate them with it.
static_assert(sizeof(PNode) == 144);

/// Bump allocator for persistent nodes, addressed by 32-bit index.
/// Thread-safe: each thread fills its own blocks; the arena owns all memory
/// until destruction (versions are only valid while their arena lives).
///
/// An arena is reusable across runs: reset() retains every block it ever
/// allocated and rewinds the bump pointers, so a rebuild that fits in the
/// prior footprint performs zero heap allocations (allocated() is the churn
/// metric a warm HsrEngine::solve is gated on). Each thread's slot also
/// keeps a free list of released nodes, which alloc() pops before carving
/// a block and reset() empties. Block-table slots are
/// assigned once per heap block and never move, so node(i) needs no lock:
/// any index a reader holds was published to it across a fork-join edge
/// that ordered the block-table write first.
class PArena {
 public:
  /// Nodes per block and the index split: index = block_id << kLog2BlockNodes | offset.
  static constexpr u32 kLog2BlockNodes = 14;
  static constexpr u32 kBlockNodes = 1u << kLog2BlockNodes;
  /// Block-table capacity: 2^12 blocks * 2^14 nodes = 2^26 nodes per arena,
  /// far beyond any solve while keeping the write-once table at 32 KiB.
  static constexpr u32 kMaxBlocks = 1u << 12;

  PArena();
  PArena(const PArena&) = delete;
  PArena& operator=(const PArena&) = delete;
  ~PArena();

  /// Allocate one node, reusing this thread's most recently released one
  /// if any; returns its arena index. Every call counts as one node.
  u32 alloc();

  /// Put a node no version will read again on this thread's free list and
  /// poison it (count = 0), so a descent into it fails its DCHECK.
  void release(u32 idx);

  /// The node at `idx` (read-only: published nodes are immutable).
  const PNode& node(u32 idx) const noexcept {
    const PNode& n = table_[idx >> kLog2BlockNodes][idx & (kBlockNodes - 1)];
    THSR_DCHECK(n.count != 0);  // released nodes are unreachable
    return n;
  }

  /// Construction-time access for the node most recently alloc()ed by this
  /// thread (before its index is published to any other thread).
  PNode& node_mut(u32 idx) noexcept {
    return table_[idx >> kLog2BlockNodes][idx & (kBlockNodes - 1)];
  }

  /// Recycle the arena: every version ever allocated from it becomes
  /// invalid, all blocks are retained on a free list, every node free list
  /// is emptied, and subsequent alloc() calls refill the blocks before
  /// touching the heap. Must not run concurrently with alloc() (callers
  /// separate runs with a join).
  void reset();

  /// Total nodes ever allocated, across resets (persistence cost metric,
  /// bench table_f3).
  u64 node_count() const noexcept;

  /// Nodes carved from blocks since the last reset(), and released nodes
  /// now on free lists. Every carved node is reachable or free, so in
  /// single-version use carved - free is the live profile's size. Like
  /// reset(), neither may run concurrently with alloc() or release().
  u64 carved_nodes() const noexcept;
  u64 free_nodes() const noexcept;

  /// Total blocks ever heap-allocated. Stays constant across a reset()
  /// followed by a rebuild that fits in the retained blocks — the
  /// allocation-churn metric of tests/test_treap.cpp and bench_ci.
  u64 allocated() const noexcept;

  /// Bytes of node storage this arena retains (blocks * block size): the
  /// resident-footprint gauge of the timed bench lane.
  u64 footprint_bytes() const noexcept;

 private:
  struct Block;
  struct ThreadSlot;
  ThreadSlot& local_slot();

  mutable std::mutex mu_;
  std::vector<Block*> blocks_;  ///< every block ever allocated (owned)
  std::vector<Block*> free_;    ///< retained blocks awaiting reuse
  std::vector<ThreadSlot*> slots_;   ///< one per allocating thread (owned)
  std::unique_ptr<PNode*[]> table_;  ///< block id -> node storage (write-once slots)
  const u64 id_{next_id()};          ///< unique per arena, never recycled

  static u64 next_id() noexcept;
};

/// Persistent treap operations. All functions are pure with respect to their
/// inputs: they return new roots and never mutate reachable nodes.
namespace ptreap {

/// A version handle: the owning arena plus a 32-bit root index. Refs are
/// trivially copyable values; a default-constructed Ref is the empty tree.
/// Dereference (`->`, `*`) yields the root PNode; left()/right() descend.
class Ref {
 public:
  constexpr Ref() = default;
  constexpr Ref(const PArena* a, u32 idx) noexcept : a_(a), idx_(idx) {}

  constexpr explicit operator bool() const noexcept { return idx_ != kNilNode; }
  const PNode& operator*() const noexcept { return a_->node(idx_); }
  const PNode* operator->() const noexcept { return &a_->node(idx_); }
  Ref left() const noexcept { return Ref(a_, (*this)->l); }
  Ref right() const noexcept { return Ref(a_, (*this)->r); }

  constexpr u32 index() const noexcept { return idx_; }
  constexpr const PArena* arena() const noexcept { return a_; }

  friend constexpr bool operator==(const Ref& a, const Ref& b) noexcept {
    return a.idx_ == b.idx_ && (a.idx_ == kNilNode || a.a_ == b.a_);
  }

 private:
  const PArena* a_{nullptr};
  u32 idx_{kNilNode};
};

/// What replace_range does with the nodes it supersedes.
///  * Persistent    — keeps them: every earlier version stays readable
///                    (phase 2 of the Parallel solve queries old versions).
///  * SingleVersion — the caller never reads the input version again, so
///                    each superseded node is released to the calling
///                    thread's free list (the Sequential solve).
enum class Mode { Persistent, SingleVersion };

/// The initial profile P_0: just the floor.
Ref make_floor(PArena& a);

/// Build a version from sorted, contiguous pieces (test/bootstrap helper).
Ref from_pieces(PArena& a, std::span<const PieceData> pieces, std::span<const Seg2> segs);

/// New version with [lo, hi) replaced by `run` (sorted pieces covering
/// [lo, hi) exactly). Pieces straddling lo/hi are cut; the covered interior
/// is dropped wholesale (an O(log) split), which is where the merge's
/// output-sensitivity comes from. O((|run| + log n) log n) node copies.
/// With Mode::SingleVersion `t` must not be read again (nor any version
/// sharing its nodes); the same nodes are built, and the superseded ones
/// are released.
Ref replace_range(PArena& a, Ref t, const QY& lo, const QY& hi, std::span<const PieceData> run,
                  std::span<const Seg2> segs, Mode mode = Mode::Persistent);

/// Piece covering the open interval adjacent to y on `side`; nullptr when y
/// is outside the version's coverage.
const PieceData* piece_at(Ref t, const QY& y, Side side) noexcept;

u32 count(Ref t) noexcept;

/// In-order dump of all pieces.
void collect(Ref t, std::vector<PieceData>& out);

/// Flat envelope with floor pieces dropped and contiguous same-edge pieces
/// merged (cross-validation against envelope/).
Envelope materialize(Ref t, bool drop_floor = true);

/// Debug invariant check: key order, heap order, contiguity, exact coverage.
void validate(Ref t, std::span<const Seg2> segs);

}  // namespace ptreap
}  // namespace thsr
