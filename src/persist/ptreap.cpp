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
  u32 free_head{kNilNode};          ///< released nodes, linked through PNode::l
  u64 free_count{0};
  u64 carved{0};                    ///< nodes taken from blocks since reset()
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
  s.allocated.fetch_add(1, std::memory_order_relaxed);
  work::count(Op::TreapNode);
  if (s.free_head != kNilNode) {
    const u32 idx = s.free_head;
    s.free_head = node_mut(idx).l;
    --s.free_count;
    return idx;
  }
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
  ++s.carved;
  return s.base | static_cast<u32>(s.used++);
}

void PArena::release(u32 idx) {
  ThreadSlot& s = local_slot();
  PNode& n = node_mut(idx);
  n.count = 0;
  n.l = s.free_head;
  s.free_head = idx;
  ++s.free_count;
}

void PArena::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  // Rewind every slot: partially filled blocks go back on the free list
  // with everything else, and the owning threads re-acquire blocks on
  // their next alloc(). Callers guarantee no alloc() runs concurrently.
  for (ThreadSlot* s : slots_) {
    s->base = 0;
    s->used = kBlockNodes;
    s->free_head = kNilNode;
    s->free_count = 0;
    s->carved = 0;
  }
  free_ = blocks_;
}

u64 PArena::node_count() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  u64 total = 0;
  for (const ThreadSlot* s : slots_) total += s->allocated.load(std::memory_order_relaxed);
  return total;
}

u64 PArena::carved_nodes() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  u64 total = 0;
  for (const ThreadSlot* s : slots_) total += s->carved;
  return total;
}

u64 PArena::free_nodes() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  u64 total = 0;
  for (const ThreadSlot* s : slots_) total += s->free_count;
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

// One update's allocation context. In single-version mode every node the
// update supersedes is released to the calling thread's free list.
struct Build {
  PArena& a;
  std::span<const Seg2> segs;
  bool single{false};

  void retire(Ref t) const {
    if (single) a.release(t.index());
  }
};

Ref make(const Build& b, Ref l, Ref r, const PieceData& p) {
  PArena& a = b.a;
  const u32 i = a.alloc();
  PNode& n = a.node_mut(i);
  n.l = l.index();
  n.r = r.index();
  n.piece = p;
  n.prio = content_prio(p);
  n.count = 1 + (l ? l->count : 0) + (r ? r->count : 0);
  const Seg2& s = resolve_seg(b.segs, p.edge);
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

// Path-copy `t` with new children (same piece => same prio); the original
// is superseded.
Ref rebuild(const Build& b, Ref t, Ref l, Ref r) {
  const Ref copy = make(b, l, r, t->piece);
  b.retire(t);
  return copy;
}

Ref join(const Build& b, Ref x, Ref y) {
  if (!x) return y;
  if (!y) return x;
  if (prio_less(*y, *x)) return rebuild(b, x, x.left(), join(b, x.right(), y));
  return rebuild(b, y, join(b, x, y.left()), y.right());
}

Ref leaf(const Build& b, const PieceData& p) {
  THSR_DCHECK(p.y0 < p.y1);
  return make(b, Ref{}, Ref{}, p);
}

// Split by start key: L gets pieces with y0 < y, R the rest (no cutting).
void split_key(const Build& b, Ref t, const QY& y, Ref& l, Ref& r) {
  if (!t) {
    l = r = Ref{};
    return;
  }
  if (cmp(t->piece.y0, y) < 0) {
    Ref rl;
    split_key(b, t.right(), y, rl, r);
    l = rebuild(b, t, t.left(), rl);
  } else {
    Ref lr;
    split_key(b, t.left(), y, l, lr);
    r = rebuild(b, t, lr, t.right());
  }
}

// Remove the maximum-key piece; returns the remaining tree via `rest`.
PieceData remove_last(const Build& b, Ref t, Ref& rest) {
  THSR_CHECK(bool(t));
  if (!t.right()) {
    rest = t.left();
    const PieceData p = t->piece;
    b.retire(t);
    return p;
  }
  Ref rr;
  const PieceData p = remove_last(b, t.right(), rr);
  rest = rebuild(b, t, t.left(), rr);
  return p;
}

// Split cutting pieces: L covers (-inf, y), R covers [y, +inf).
void split_at(const Build& b, Ref t, const QY& y, Ref& l, Ref& r) {
  split_key(b, t, y, l, r);
  if (!l) return;
  // The last piece of L may straddle y.
  Ref rest;
  // Peek cheaply: descend to max.
  Ref m = l;
  while (m.right()) m = m.right();
  if (cmp(m->piece.y1, y) <= 0) return;  // no straddle
  const PieceData p = remove_last(b, l, rest);
  l = rest;
  if (cmp(p.y0, y) < 0) l = join(b, l, leaf(b, PieceData{p.y0, y, p.edge}));
  if (cmp(y, p.y1) < 0) r = join(b, leaf(b, PieceData{y, p.y1, p.edge}), r);
}

// Release every node of a subtree the update dropped.
void drop(const Build& b, Ref t) {
  if (!t) return;
  drop(b, t.left());
  drop(b, t.right());
  b.retire(t);
}

}  // namespace

Ref make_floor(PArena& a) {
  return leaf(Build{a, {}}, PieceData{QY::of(-kMaxCoord), QY::of(kMaxCoord), kFloorEdge});
}

Ref from_pieces(PArena& a, std::span<const PieceData> pieces, std::span<const Seg2> segs) {
  const Build b{a, segs};
  Ref t;
  for (const PieceData& p : pieces) t = join(b, t, leaf(b, p));
  return t;
}

Ref replace_range(PArena& a, Ref t, const QY& lo, const QY& hi, std::span<const PieceData> run,
                  std::span<const Seg2> segs, Mode mode) {
  THSR_DCHECK(lo < hi);
  const Build b{a, segs, mode == Mode::SingleVersion};
  Ref left, mid, interior, right;
  split_at(b, t, lo, left, mid);
  split_at(b, mid, hi, interior, right);
  // The covered interior of the old version is dropped wholesale (an
  // O(log) split); only a single-version update visits it, to release it.
  if (b.single) drop(b, interior);
  Ref run_t;
  for (const PieceData& p : run) {
    THSR_DCHECK(cmp(p.y0, lo) >= 0 && cmp(p.y1, hi) <= 0);
    run_t = join(b, run_t, leaf(b, p));
  }
  return join(b, join(b, left, run_t), right);
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
