#include "persist/ptreap.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "parallel/work_depth.hpp"

namespace thsr {

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

struct PArena::Block {
  explicit Block(u32 block_id) : id(block_id) {}
  const u32 id;  ///< block-table slot; fixed for the block's lifetime
  std::unique_ptr<PNode[]> mem{new PNode[kBlockNodes]};
};

struct PArena::ThreadSlot {
  explicit ThreadSlot(std::thread::id t) : owner(t) {}
  const std::thread::id owner;      ///< the thread that allocates through it
  u32 base{0};                      ///< current block's id << kLog2BlockNodes
  std::size_t used{kBlockNodes};    ///< force a fresh block on first alloc
  std::atomic<u64> allocated{0};
};

u64 PArena::next_id() noexcept {
  static std::atomic<u64> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

PArena::PArena() : table_(new PNode*[kMaxBlocks]) {}

PArena::~PArena() {
  for (Block* b : blocks_) delete b;
  for (ThreadSlot* s : slots_) delete s;
}

PArena::ThreadSlot& PArena::local_slot() {
  // One slot per (thread, arena) pair, owned by the arena alone. A
  // one-entry thread-local memo remembers the last arena this thread
  // allocated in, keyed by the arena's generation id — NOT its address,
  // which a later arena may reuse — so a dead arena's memo never matches
  // (ids are never recycled) and the thread keeps nothing per dead arena.
  // On a miss the arena's own slots are searched by owner. A recycled
  // thread id can only find an exited thread's slot, which no live thread
  // uses.
  struct Memo {
    u64 arena_id{0};
    ThreadSlot* slot{nullptr};
  };
  thread_local Memo memo;
  if (memo.arena_id == id_) return *memo.slot;
  const std::thread::id self = std::this_thread::get_id();
  ThreadSlot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = std::find_if(slots_.begin(), slots_.end(),
                                 [&](const ThreadSlot* s) { return s->owner == self; });
    if (it != slots_.end()) {
      slot = *it;
    } else {
      slot = new ThreadSlot(self);
      slots_.push_back(slot);
    }
  }
  memo = Memo{id_, slot};
  return *slot;
}

u32 PArena::alloc() {
  ThreadSlot& s = local_slot();
  if (s.used == kBlockNodes) {
    Block* b = nullptr;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!free_.empty()) {
        b = free_.back();
        free_.pop_back();
      } else {
        THSR_CHECK(blocks_.size() < kMaxBlocks);
        b = new Block(static_cast<u32>(blocks_.size()));
        table_[b->id] = b->mem.get();  // write-once: the slot never moves
        blocks_.push_back(b);
      }
    }
    s.base = b->id << kLog2BlockNodes;
    s.used = 0;
  }
  s.allocated.fetch_add(1, std::memory_order_relaxed);
  work::count(Op::TreapNode);
  return s.base | static_cast<u32>(s.used++);
}

void PArena::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  // Rewind every slot: partially filled blocks go back on the free list
  // with everything else, and the owning threads re-acquire blocks on
  // their next alloc(). Callers guarantee no alloc() runs concurrently.
  for (ThreadSlot* s : slots_) {
    s->base = 0;
    s->used = kBlockNodes;
  }
  free_ = blocks_;
}

u64 PArena::node_count() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  u64 total = 0;
  for (const ThreadSlot* s : slots_) total += s->allocated.load(std::memory_order_relaxed);
  return total;
}

u64 PArena::allocated() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return blocks_.size();
}

u64 PArena::footprint_bytes() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return blocks_.size() * (sizeof(Block) + sizeof(PNode) * kBlockNodes);
}

// ---------------------------------------------------------------------------
// Treap
// ---------------------------------------------------------------------------

namespace ptreap {
namespace {

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

// Total order on priorities; "greater" wins the root (ties broken by content
// so the shape is a pure function of the piece set).
bool prio_less(const PNode& a, const PNode& b) noexcept {
  if (a.prio != b.prio) return a.prio < b.prio;
  if (a.piece.edge != b.piece.edge) return a.piece.edge < b.piece.edge;
  return cmp(a.piece.y0, b.piece.y0) < 0;
}

float widen_lo(double v) noexcept { return static_cast<float>(v - 0.5); }
float widen_hi(double v) noexcept { return static_cast<float>(v + 0.5); }

Ref make(PArena& a, Ref l, Ref r, const PieceData& p, std::span<const Seg2> segs) {
  const u32 i = a.alloc();
  PNode& n = a.node_mut(i);
  n.l = l.index();
  n.r = r.index();
  n.piece = p;
  n.prio = content_prio(p);
  n.count = 1 + (l ? l->count : 0) + (r ? r->count : 0);
  const Seg2& s = resolve_seg(segs, p.edge);
  const double z0 = s.approx_at(p.y0), z1 = s.approx_at(p.y1);
  n.zlo = widen_lo(std::min(z0, z1));
  n.zhi = widen_hi(std::max(z0, z1));
  if (l) {
    n.zlo = std::min(n.zlo, l->zlo);
    n.zhi = std::max(n.zhi, l->zhi);
  }
  if (r) {
    n.zlo = std::min(n.zlo, r->zlo);
    n.zhi = std::max(n.zhi, r->zhi);
  }
  return Ref(&a, i);
}

// Rebuild a path-copy of `t` with new children (same piece => same prio).
Ref rebuild(PArena& a, Ref t, Ref l, Ref r, std::span<const Seg2> segs) {
  return make(a, l, r, t->piece, segs);
}

Ref join(PArena& a, Ref x, Ref y, std::span<const Seg2> segs) {
  if (!x) return y;
  if (!y) return x;
  if (prio_less(*y, *x)) return rebuild(a, x, x.left(), join(a, x.right(), y, segs), segs);
  return rebuild(a, y, join(a, x, y.left(), segs), y.right(), segs);
}

Ref leaf(PArena& a, const PieceData& p, std::span<const Seg2> segs) {
  THSR_DCHECK(p.y0 < p.y1);
  return make(a, Ref{}, Ref{}, p, segs);
}

// Split by start key: L gets pieces with y0 < y, R the rest (no cutting).
void split_key(PArena& a, Ref t, const QY& y, Ref& l, Ref& r, std::span<const Seg2> segs) {
  if (!t) {
    l = r = Ref{};
    return;
  }
  if (cmp(t->piece.y0, y) < 0) {
    Ref rl;
    split_key(a, t.right(), y, rl, r, segs);
    l = rebuild(a, t, t.left(), rl, segs);
  } else {
    Ref lr;
    split_key(a, t.left(), y, l, lr, segs);
    r = rebuild(a, t, lr, t.right(), segs);
  }
}

// Remove the maximum-key piece; returns the remaining tree via `rest`.
PieceData remove_last(PArena& a, Ref t, Ref& rest, std::span<const Seg2> segs) {
  THSR_CHECK(bool(t));
  if (!t.right()) {
    rest = t.left();
    return t->piece;
  }
  Ref rr;
  const PieceData p = remove_last(a, t.right(), rr, segs);
  rest = rebuild(a, t, t.left(), rr, segs);
  return p;
}

// Split cutting pieces: L covers (-inf, y), R covers [y, +inf).
void split_at(PArena& a, Ref t, const QY& y, Ref& l, Ref& r, std::span<const Seg2> segs) {
  split_key(a, t, y, l, r, segs);
  if (!l) return;
  // The last piece of L may straddle y.
  Ref rest;
  // Peek cheaply: descend to max.
  Ref m = l;
  while (m.right()) m = m.right();
  if (cmp(m->piece.y1, y) <= 0) return;  // no straddle
  const PieceData p = remove_last(a, l, rest, segs);
  l = rest;
  if (cmp(p.y0, y) < 0) l = join(a, l, leaf(a, PieceData{p.y0, y, p.edge}, segs), segs);
  if (cmp(y, p.y1) < 0) r = join(a, leaf(a, PieceData{y, p.y1, p.edge}, segs), r, segs);
}

}  // namespace

Ref make_floor(PArena& a) {
  return leaf(a, PieceData{QY::of(-kMaxCoord), QY::of(kMaxCoord), kFloorEdge}, {});
}

Ref from_pieces(PArena& a, std::span<const PieceData> pieces, std::span<const Seg2> segs) {
  Ref t;
  for (const PieceData& p : pieces) t = join(a, t, leaf(a, p, segs), segs);
  return t;
}

Ref replace_range(PArena& a, Ref t, const QY& lo, const QY& hi, std::span<const PieceData> run,
                  std::span<const Seg2> segs) {
  THSR_DCHECK(lo < hi);
  Ref left, mid, middle_right, right;
  split_at(a, t, lo, left, mid, segs);
  split_at(a, mid, hi, middle_right, right, segs);
  (void)middle_right;  // covered interior of the old version: dropped wholesale
  Ref run_t;
  for (const PieceData& p : run) {
    THSR_DCHECK(cmp(p.y0, lo) >= 0 && cmp(p.y1, hi) <= 0);
    run_t = join(a, run_t, leaf(a, p, segs), segs);
  }
  return join(a, join(a, left, run_t, segs), right, segs);
}

const PieceData* piece_at(Ref t, const QY& y, Side side) noexcept {
  while (t) {
    const PieceData& p = t->piece;
    const int c0 = cmp(y, p.y0);
    const int c1 = cmp(y, p.y1);
    const bool inside = side == Side::After ? (c0 >= 0 && c1 < 0) : (c0 > 0 && c1 <= 0);
    if (inside) return &p;
    if (side == Side::After ? c0 < 0 : c0 <= 0) {
      t = t.left();
    } else {
      t = t.right();
    }
  }
  return nullptr;
}

u32 count(Ref t) noexcept { return t ? t->count : 0; }

void collect(Ref t, std::vector<PieceData>& out) {
  if (!t) return;
  collect(t.left(), out);
  out.push_back(t->piece);
  collect(t.right(), out);
}

Envelope materialize(Ref t, bool drop_floor) {
  std::vector<PieceData> pieces;
  pieces.reserve(count(t));
  collect(t, pieces);
  std::vector<EnvPiece> out;
  out.reserve(pieces.size());
  for (const PieceData& p : pieces) {
    if (drop_floor && p.edge == kFloorEdge) continue;
    if (!out.empty() && out.back().edge == p.edge && out.back().y1 == p.y0) {
      out.back().y1 = p.y1;
    } else {
      out.push_back({p.y0, p.y1, p.edge});
    }
  }
  return Envelope::from_pieces(std::move(out));
}

namespace {

void validate_rec(Ref t, std::span<const Seg2> segs, const QY*& prev_end, u64 max_prio_seen) {
  if (!t) return;
  THSR_CHECK(t->prio <= max_prio_seen || max_prio_seen == ~u64{0});
  validate_rec(t.left(), segs, prev_end, t->prio);
  THSR_CHECK(t->piece.y0 < t->piece.y1);
  if (prev_end) THSR_CHECK(*prev_end == t->piece.y0);  // contiguity (full coverage)
  const Seg2& s = resolve_seg(segs, t->piece.edge);
  THSR_CHECK(cmp(t->piece.y0, s.u0) >= 0 && cmp(t->piece.y1, s.u1) <= 0);
  prev_end = &t->piece.y1;
  validate_rec(t.right(), segs, prev_end, t->prio);
}

}  // namespace

void validate(Ref t, std::span<const Seg2> segs) {
  const QY* prev = nullptr;
  validate_rec(t, segs, prev, ~u64{0});
}

}  // namespace ptreap
}  // namespace thsr
