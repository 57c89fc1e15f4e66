#include "util/tiled_matrix.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <limits>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/word256.hpp"

namespace rsnsec {

namespace {

/// Blocked kernels dispatch one task per 64-row block; below this many
/// blocks the dispatch overhead dominates any win.
constexpr std::size_t kMinParallelBlocks = 4;

constexpr std::size_t kTileBytes = sizeof(TiledDepMatrix::Tile);

/// OR `words` 64-bit words of src into dst, four lanes at a time. memcpy
/// in and out of Word256 keeps it strict-aliasing clean; the copies
/// compile away and the lane loop auto-vectorizes.
void or_words(std::uint64_t* dst, const std::uint64_t* src,
              std::size_t words) {
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    Word256 a;
    Word256 b;
    std::memcpy(&a, dst + i, sizeof a);
    std::memcpy(&b, src + i, sizeof b);
    a |= b;
    std::memcpy(dst + i, &a, sizeof a);
  }
  for (; i < words; ++i) dst[i] |= src[i];
}

bool any_words(const std::uint64_t* w, std::size_t words) {
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    Word256 a;
    std::memcpy(&a, w + i, sizeof a);
    if (a.any()) return true;
  }
  for (; i < words; ++i) {
    if (w[i] != 0) return true;
  }
  return false;
}

bool tile_is_zero(const TiledDepMatrix::Tile& t) {
  return !any_words(t.s, 64) && !any_words(t.p, 64);
}

std::size_t tile_popcount(const std::uint64_t* rows) {
  std::size_t c = 0;
  for (std::size_t r = 0; r < 64; ++r) {
    c += static_cast<std::size_t>(std::popcount(rows[r]));
  }
  return c;
}

bool use_pool(const ThreadPool* pool, std::size_t blocks) {
  return pool != nullptr && pool->num_threads() > 1 &&
         blocks >= kMinParallelBlocks;
}

/// First slot with column block >= cb in a row block's sorted slots.
template <typename Slots>
auto lower_slot(Slots& slots, std::size_t cb) {
  return std::lower_bound(
      slots.begin(), slots.end(), cb,
      [](const auto& s, std::size_t c) { return s.cb < c; });
}

}  // namespace

// ---------------------------------------------------------------------------
// TiledDepMatrix: construction, element access

TiledDepMatrix::TiledDepMatrix(std::size_t n)
    : n_(n), nb_((n + 63) / 64), rows_(nb_) {}

TiledDepMatrix::TiledDepMatrix(const TiledDepMatrix& o)
    : n_(o.n_), nb_(o.nb_), rows_(o.nb_) {
  for (std::size_t rb = 0; rb < nb_; ++rb) {
    rows_[rb].slots.reserve(o.rows_[rb].slots.size());
    for (const Slot& s : o.rows_[rb].slots)
      rows_[rb].slots.push_back(Slot{s.cb, std::make_unique<Tile>(*s.tile)});
  }
}

TiledDepMatrix& TiledDepMatrix::operator=(const TiledDepMatrix& o) {
  if (this != &o) {
    TiledDepMatrix tmp(o);
    *this = std::move(tmp);
  }
  return *this;
}

std::uint64_t TiledDepMatrix::edge_mask(std::size_t block) const {
  if (block + 1 == nb_ && n_ % 64 != 0) return (1ULL << (n_ % 64)) - 1;
  return ~0ULL;
}

TiledDepMatrix::Tile* TiledDepMatrix::find_tile(std::size_t rb,
                                                std::size_t cb) {
  auto& slots = rows_[rb].slots;
  auto it = lower_slot(slots, cb);
  return it != slots.end() && it->cb == cb ? it->tile.get() : nullptr;
}

TiledDepMatrix::Tile* TiledDepMatrix::find_or_create(std::size_t rb,
                                                     std::size_t cb) {
  auto& slots = rows_[rb].slots;
  auto it = lower_slot(slots, cb);
  if (it == slots.end() || it->cb != cb) {
    it = slots.insert(
        it, Slot{static_cast<std::uint32_t>(cb), std::make_unique<Tile>()});
  }
  return it->tile.get();
}

void TiledDepMatrix::prune_if_zero(std::size_t rb, std::size_t cb) {
  auto& slots = rows_[rb].slots;
  auto it = lower_slot(slots, cb);
  if (it != slots.end() && it->cb == cb && tile_is_zero(*it->tile))
    slots.erase(it);
}

DepKind TiledDepMatrix::get(std::size_t i, std::size_t j) const {
  assert(i < n_ && j < n_);
  const Tile* t = tile_at(i >> 6, j >> 6);
  if (t == nullptr) return DepKind::None;
  const std::uint64_t b = 1ULL << (j & 63);
  if (t->p[i & 63] & b) return DepKind::Path;
  if (t->s[i & 63] & b) return DepKind::Structural;
  return DepKind::None;
}

void TiledDepMatrix::upgrade(std::size_t i, std::size_t j, DepKind k) {
  assert(i < n_ && j < n_);
  if (k == DepKind::None) return;
  Tile* t = find_or_create(i >> 6, j >> 6);
  const std::uint64_t b = 1ULL << (j & 63);
  t->s[i & 63] |= b;
  if (k == DepKind::Path) t->p[i & 63] |= b;
}

void TiledDepMatrix::set(std::size_t i, std::size_t j, DepKind k) {
  assert(i < n_ && j < n_);
  Tile* t = k != DepKind::None ? find_or_create(i >> 6, j >> 6)
                               : find_tile(i >> 6, j >> 6);
  if (t == nullptr) return;
  const std::uint64_t b = 1ULL << (j & 63);
  t->s[i & 63] &= ~b;
  t->p[i & 63] &= ~b;
  if (k != DepKind::None) t->s[i & 63] |= b;
  if (k == DepKind::Path) t->p[i & 63] |= b;
  prune_if_zero(i >> 6, j >> 6);
}

void TiledDepMatrix::clear_node(std::size_t i) {
  assert(i < n_);
  const std::size_t ib = i >> 6;
  const std::size_t ir = i & 63;
  const std::uint64_t ibit = 1ULL << ir;
  // Row i: zero the local row of every tile in block row ib.
  for (Slot& s : rows_[ib].slots) {
    s.tile->s[ir] = 0;
    s.tile->p[ir] = 0;
  }
  // Column i: clear the local bit of every tile in block column ib.
  for (std::size_t rb = 0; rb < nb_; ++rb) {
    Tile* t = find_tile(rb, ib);
    if (t == nullptr) continue;
    for (std::size_t r = 0; r < 64; ++r) {
      t->s[r] &= ~ibit;
      t->p[r] &= ~ibit;
    }
  }
  // Prune tiles the clears emptied.
  for (RowBlock& row : rows_) {
    std::erase_if(row.slots,
                  [](const Slot& s) { return tile_is_zero(*s.tile); });
  }
}

std::size_t TiledDepMatrix::count_nonzero() const {
  std::size_t c = 0;
  for (std::size_t rb = 0; rb < nb_; ++rb) {
    for (const Slot& s : rows_[rb].slots) c += tile_popcount(s.tile->s);
  }
  return c;
}

std::size_t TiledDepMatrix::count_path() const {
  std::size_t c = 0;
  for (std::size_t rb = 0; rb < nb_; ++rb) {
    for (const Slot& s : rows_[rb].slots) c += tile_popcount(s.tile->p);
  }
  return c;
}

void TiledDepMatrix::mark_endpoints(std::vector<bool>& endpoints) const {
  assert(endpoints.size() == n_);
  for (std::size_t rb = 0; rb < nb_; ++rb) {
    for (const Slot& s : rows_[rb].slots) {
      std::uint64_t cols = 0;
      for (std::size_t r = 0; r < 64; ++r) {
        if (s.tile->s[r] == 0) continue;
        endpoints[rb * 64 + r] = true;
        cols |= s.tile->s[r];
      }
      while (cols) {
        const unsigned c = static_cast<unsigned>(std::countr_zero(cols));
        cols &= cols - 1;
        endpoints[s.cb * 64 + c] = true;
      }
    }
  }
}

std::size_t TiledDepMatrix::tiles_nonzero() const {
  std::size_t c = 0;
  for (const RowBlock& row : rows_) c += row.slots.size();
  return c;
}

std::uint64_t TiledDepMatrix::memory_bytes() const {
  // Content-derived (sizes, not vector capacities): a matrix restored
  // from the artifact store must report the same footprint as the run
  // that computed it, or warm analysis reports stop being byte-identical
  // to cold ones.
  std::uint64_t bytes = rows_.size() * sizeof(RowBlock);
  for (const RowBlock& row : rows_)
    bytes += row.slots.size() * (sizeof(Slot) + kTileBytes);
  return bytes;
}

// ---------------------------------------------------------------------------
// Kernels

void TiledDepMatrix::closure_plane(bool path_plane,
                                   const std::vector<std::uint64_t>& amask) {
  // Blocked Floyd-Warshall over one bit plane. For each 64-wide via block
  // K (restricted to active vias am): close the diagonal tile, push it
  // through K's row panel (D* ⊗ T[K][C]) and, per other row block R,
  // through the column panel (T[R][K] ⊗ D*) and the interior product
  // (T[R][K] ⊗ T[K][C]). Absent tiles contribute nothing and are skipped,
  // which is the entire block-sparse win. The result is the unique
  // closure over active intermediates, i.e. bit-identical to the dense
  // kernel. In-place panel updates are sound because D is closed first
  // (any chain through an already-updated row is subsumed by a direct
  // via, the standard blocked-FW argument).
  auto rows_of = [path_plane](Tile* t) -> std::uint64_t* {
    return path_plane ? t->p : t->s;
  };
  for (std::size_t K = 0; K < nb_; ++K) {
    const std::uint64_t am = amask[K];
    if (am == 0) continue;
    Tile* dt = find_tile(K, K);
    std::uint64_t* D = dt != nullptr ? rows_of(dt) : nullptr;
    if (D != nullptr) {
      // Close the diagonal tile over active vias. krow is copied, so the
      // via row stays stable while its own step runs.
      for (std::uint64_t vias = am; vias != 0; vias &= vias - 1) {
        const unsigned kk = static_cast<unsigned>(std::countr_zero(vias));
        const std::uint64_t krow = D[kk];
        if (krow == 0) continue;
        const std::uint64_t kb = 1ULL << kk;
        for (std::size_t i = 0; i < 64; ++i) {
          if (D[i] & kb) D[i] |= krow;
        }
      }
      // Row panel: every tile (K, C != K) absorbs D's reachability.
      for (Slot& s : rows_[K].slots) {
        if (s.cb == K) continue;
        std::uint64_t* T = rows_of(s.tile.get());
        for (std::uint64_t vias = am; vias != 0; vias &= vias - 1) {
          const unsigned kk = static_cast<unsigned>(std::countr_zero(vias));
          const std::uint64_t krow = T[kk];
          if (krow == 0) continue;
          const std::uint64_t kb = 1ULL << kk;
          for (std::size_t i = 0; i < 64; ++i) {
            if (D[i] & kb) T[i] |= krow;
          }
        }
      }
    }
    // Column panel + interior per other row block R. The interior creates
    // tiles in rows_[R] only, so row block K's slots stay put.
    for (std::size_t R = 0; R < nb_; ++R) {
      if (R == K) continue;
      Tile* at = find_tile(R, K);
      if (at == nullptr) continue;
      std::uint64_t* A = rows_of(at);
      if (D != nullptr) {
        for (std::size_t r = 0; r < 64; ++r) {
          std::uint64_t vias = A[r] & am;
          std::uint64_t add = 0;
          while (vias != 0) {
            add |= D[std::countr_zero(vias)];
            vias &= vias - 1;
          }
          A[r] |= add;
        }
      }
      // Interior needs A after the column-panel update; copy it out —
      // creating tiles in rows_[R] below may reallocate the slot vector
      // that holds `at`.
      std::uint64_t arow[64];
      std::memcpy(arow, A, sizeof arow);
      for (const Slot& bslot : rows_[K].slots) {
        if (bslot.cb == K) continue;
        const std::uint64_t* B = rows_of(bslot.tile.get());
        Tile* dest = nullptr;
        std::uint64_t* dw = nullptr;
        for (std::size_t r = 0; r < 64; ++r) {
          std::uint64_t vias = arow[r] & am;
          if (vias == 0) continue;
          std::uint64_t add = 0;
          while (vias != 0) {
            add |= B[std::countr_zero(vias)];
            vias &= vias - 1;
          }
          if (add == 0) continue;
          if (dest == nullptr) {
            dest = find_or_create(R, bslot.cb);
            dw = rows_of(dest);
          }
          dw[r] |= add;
        }
      }
    }
  }
}

void TiledDepMatrix::transitive_closure(const std::vector<bool>* active) {
  obs::Span span(obs::TraceSession::active(), "closure.transitive");
  std::vector<std::uint64_t> amask(nb_, 0);
  for (std::size_t K = 0; K < nb_; ++K) {
    std::uint64_t m = edge_mask(K);
    if (active != nullptr) {
      std::uint64_t sel = 0;
      const std::size_t base = K * 64;
      for (std::size_t b = 0; b < 64 && base + b < n_; ++b) {
        if ((*active)[base + b]) sel |= 1ULL << b;
      }
      m &= sel;
    }
    amask[K] = m;
  }
  // Mirror the dense kernel: close P over path edges, S over all edges,
  // then re-establish P implies S per tile. Tiles created while closing
  // P carry an empty S plane until the fixup — same transient state the
  // dense planes go through.
  closure_plane(/*path_plane=*/true, amask);
  closure_plane(/*path_plane=*/false, amask);
  for (RowBlock& row : rows_) {
    for (Slot& s : row.slots) or_words(s.tile->s, s.tile->p, 64);
  }
}

bool TiledDepMatrix::compose_round(const TiledDepMatrix& cur,
                                   const TiledDepMatrix& one,
                                   ThreadPool* pool) {
  // One bounded-closure round: row i absorbs one.row(v) for every via v
  // with cur(i, v) set (P plane only through P vias). Tile-at-a-time:
  // cur tile (rb, vb) composes with one tiles (vb, cb) into this (rb, cb).
  const bool parallel = use_pool(pool, nb_);
  auto extend_block = [&](std::size_t rb) -> bool {
    bool changed = false;
    for (const Slot& cslot : cur.rows_[rb].slots) {
      const Tile* ct = cslot.tile.get();
      const std::size_t vb = cslot.cb;
      for (const Slot& oslot : one.rows_[vb].slots) {
        const Tile* ot = oslot.tile.get();
        Tile* dest = nullptr;
        for (std::size_t r = 0; r < 64; ++r) {
          std::uint64_t svias = ct->s[r];
          if (svias == 0) continue;
          std::uint64_t pvias = ct->p[r];
          std::uint64_t add_s = 0;
          std::uint64_t add_p = 0;
          while (svias != 0) {
            add_s |= ot->s[std::countr_zero(svias)];
            svias &= svias - 1;
          }
          while (pvias != 0) {
            add_p |= ot->p[std::countr_zero(pvias)];
            pvias &= pvias - 1;
          }
          if (add_s == 0 && add_p == 0) continue;
          if (dest == nullptr) dest = find_or_create(rb, oslot.cb);
          changed |= (add_s & ~dest->s[r]) != 0;
          changed |= (add_p & ~dest->p[r]) != 0;
          dest->s[r] |= add_s;
          dest->p[r] |= add_p;
        }
      }
    }
    return changed;
  };
  if (parallel) {
    return pool->parallel_reduce(
        std::size_t{0}, nb_, false, extend_block,
        [](bool a, bool b) { return a || b; }, /*grain=*/1);
  }
  bool changed = false;
  for (std::size_t rb = 0; rb < nb_; ++rb) changed |= extend_block(rb);
  return changed;
}

bool TiledDepMatrix::bounded_closure(std::size_t cycles, ThreadPool* pool) {
  obs::TraceSession* trace = obs::TraceSession::active();
  obs::Span span(trace, "closure.bounded");
  // Holds up to two extra copies of the matrix — acceptable because the
  // bounded mode is a repro/analysis knob, not the scale path (which runs
  // the full transitive closure).
  const TiledDepMatrix one(*this);
  bool changed_last = false;
  for (std::size_t round = 1; round < cycles; ++round) {
    const TiledDepMatrix cur(*this);
    const bool changed = compose_round(cur, one, pool);
    changed_last = changed;
    if (trace != nullptr) trace->counter("closure.rounds").add(1);
    if (!changed) break;
  }
  return changed_last;
}

void TiledDepMatrix::eliminate(std::size_t v) {
  assert(v < n_);
  const std::size_t vb = v >> 6;
  const std::size_t vr = v & 63;
  const std::uint64_t vbit = 1ULL << vr;
  // Snapshot v's outgoing row: (column block, S word, P word) triples.
  // The OR loop below creates tiles, which can invalidate any raw pointer
  // into the slot vectors — the snapshot keeps the source stable, exactly
  // like the dense kernel's "row v stays stable" precondition.
  struct VOut {
    std::uint32_t cb;
    std::uint64_t s;
    std::uint64_t p;
  };
  std::vector<VOut> vout;
  for (const Slot& s : rows_[vb].slots) {
    if (s.tile->s[vr] == 0) continue;
    vout.push_back(VOut{s.cb, s.tile->s[vr], s.tile->p[vr]});
  }
  if (!vout.empty()) {
    for (std::size_t pb = 0; pb < nb_; ++pb) {
      const Tile* col = tile_at(pb, vb);
      if (col == nullptr) continue;
      // Column-v masks, snapshotted before any tile creation in block
      // row pb can move `col`.
      std::uint64_t col_s = 0;
      std::uint64_t col_p = 0;
      for (std::size_t r = 0; r < 64; ++r) {
        col_s |= ((col->s[r] >> vr) & 1ULL) << r;
        col_p |= ((col->p[r] >> vr) & 1ULL) << r;
      }
      if (pb == vb) col_s &= ~vbit, col_p &= ~vbit;  // skip p == v
      while (col_s != 0) {
        const unsigned r = static_cast<unsigned>(std::countr_zero(col_s));
        col_s &= col_s - 1;
        const bool in_path = ((col_p >> r) & 1ULL) != 0;
        const std::size_t p = pb * 64 + r;
        for (const VOut& out : vout) {
          Tile* dest = find_or_create(pb, out.cb);
          // Same diagonal rule as the dense kernel: bridging p->v->p is a
          // cycle through v, not a self-dependency of p.
          const bool diag = out.cb == pb;
          const std::uint64_t pbit = 1ULL << (p & 63);
          const std::uint64_t old_s = diag ? (dest->s[r] & pbit) : 0;
          const std::uint64_t old_p = diag ? (dest->p[r] & pbit) : 0;
          dest->s[r] |= out.s;
          if (in_path) dest->p[r] |= out.p;
          if (diag) {
            dest->s[r] = (dest->s[r] & ~pbit) | old_s;
            dest->p[r] = (dest->p[r] & ~pbit) | old_p;
          }
        }
      }
    }
  }
  clear_node(v);
}

// ---------------------------------------------------------------------------
// Queries, interchange, serialization

std::vector<std::size_t> TiledDepMatrix::successors(std::size_t i) const {
  assert(i < n_);
  std::vector<std::size_t> out;
  const std::size_t rb = i >> 6;
  const std::size_t r = i & 63;
  for (const Slot& s : rows_[rb].slots) {
    std::uint64_t bits = s.tile->s[r];
    while (bits != 0) {
      out.push_back(s.cb * 64 +
                    static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
  return out;
}

std::vector<std::size_t> TiledDepMatrix::path_successors(
    std::size_t i) const {
  assert(i < n_);
  std::vector<std::size_t> out;
  for_each_path_successor(i, [&out](std::size_t j) { out.push_back(j); });
  return out;
}

std::size_t TiledDepMatrix::path_successor_count(std::size_t i) const {
  assert(i < n_);
  const std::size_t rb = i >> 6;
  std::size_t count = 0;
  for (const Slot& s : rows_[rb].slots)
    count += static_cast<std::size_t>(
        std::popcount(s.tile->p[i & 63]));
  return count;
}

void TiledDepMatrix::for_each_entry(
    const std::function<void(std::size_t, std::size_t, DepKind)>& fn) const {
  for (std::size_t rb = 0; rb < nb_; ++rb) {
    for (std::size_t r = 0; r < 64; ++r) {
      const std::size_t i = rb * 64 + r;
      if (i >= n_) break;
      for (const Slot& s : rows_[rb].slots) {
        const Tile* t = s.tile.get();
        std::uint64_t bits = t->s[r];
        while (bits != 0) {
          const unsigned c = static_cast<unsigned>(std::countr_zero(bits));
          bits &= bits - 1;
          const std::uint64_t b = 1ULL << c;
          fn(i, s.cb * 64 + c,
             (t->p[r] & b) != 0 ? DepKind::Path : DepKind::Structural);
        }
      }
    }
  }
}

DepMatrix TiledDepMatrix::to_dense() const {
  const std::size_t wpr = (n_ + 63) / 64;
  std::vector<std::uint64_t> s(n_ * wpr, 0);
  std::vector<std::uint64_t> p(n_ * wpr, 0);
  for (std::size_t rb = 0; rb < nb_; ++rb) {
    for (const Slot& slot : rows_[rb].slots) {
      const Tile* t = slot.tile.get();
      const std::size_t rmax = std::min<std::size_t>(64, n_ - rb * 64);
      for (std::size_t r = 0; r < rmax; ++r) {
        s[(rb * 64 + r) * wpr + slot.cb] |= t->s[r];
        p[(rb * 64 + r) * wpr + slot.cb] |= t->p[r];
      }
    }
  }
  DepMatrix out;
  const bool ok = DepMatrix::from_planes(n_, std::move(s), std::move(p), &out);
  assert(ok);
  (void)ok;
  return out;
}

TiledDepMatrix TiledDepMatrix::from_dense(const DepMatrix& m) {
  TiledDepMatrix out(m.size());
  const std::size_t wpr = m.words_per_row();
  const auto& s = m.plane_s();
  const auto& p = m.plane_p();
  for (std::size_t rb = 0; rb < out.nb_; ++rb) {
    const std::size_t rmax = std::min<std::size_t>(64, m.size() - rb * 64);
    for (std::size_t cb = 0; cb < wpr; ++cb) {
      Tile tile;
      std::memset(&tile, 0, sizeof tile);
      bool nonzero = false;
      for (std::size_t r = 0; r < rmax; ++r) {
        const std::size_t w = (rb * 64 + r) * wpr + cb;
        tile.s[r] = s[w];
        tile.p[r] = p[w];
        nonzero |= (s[w] | p[w]) != 0;
      }
      if (!nonzero) continue;
      out.rows_[rb].slots.push_back(
          Slot{static_cast<std::uint32_t>(cb), std::make_unique<Tile>(tile)});
    }
  }
  return out;
}

void TiledDepMatrix::for_each_tile(
    const std::function<void(std::size_t, std::size_t, const Tile&)>& fn)
    const {
  for (std::size_t rb = 0; rb < nb_; ++rb) {
    for (const Slot& s : rows_[rb].slots) {
      if (tile_is_zero(*s.tile)) continue;
      fn(rb, s.cb, *s.tile);
    }
  }
}

bool TiledDepMatrix::insert_tile(std::size_t rb, std::size_t cb,
                                 const Tile& t) {
  if (rb >= nb_ || cb >= nb_) return false;
  auto& slots = rows_[rb].slots;
  if (!slots.empty() && slots.back().cb >= cb) return false;
  if (tile_is_zero(t)) return false;
  // Invariants the kernels rely on: no bits beyond row/column n-1, and
  // P implies S — a corrupt blob must not poison count_nonzero or the
  // word-parallel closures with stray tail bits.
  const std::uint64_t cmask = edge_mask(cb);
  const std::size_t rmax =
      rb + 1 == nb_ && n_ % 64 != 0 ? n_ % 64 : std::size_t{64};
  for (std::size_t r = 0; r < 64; ++r) {
    if (r >= rmax && (t.s[r] | t.p[r]) != 0) return false;
    if ((t.s[r] | t.p[r]) & ~cmask) return false;
    if (t.p[r] & ~t.s[r]) return false;
  }
  slots.push_back(
      Slot{static_cast<std::uint32_t>(cb), std::make_unique<Tile>(t)});
  return true;
}

const TiledDepMatrix::Tile* TiledDepMatrix::tile_at(std::size_t rb,
                                                    std::size_t cb) const {
  const auto& slots = rows_[rb].slots;
  auto it = lower_slot(slots, cb);
  return it != slots.end() && it->cb == cb ? it->tile.get() : nullptr;
}

void TiledDepMatrix::assign_tile(std::size_t rb, std::size_t cb,
                                 const Tile& t) {
  if (tile_is_zero(t)) {
    auto& slots = rows_[rb].slots;
    auto it = lower_slot(slots, cb);
    if (it != slots.end() && it->cb == cb) slots.erase(it);
    return;
  }
  *find_or_create(rb, cb) = t;
}

bool operator==(const TiledDepMatrix& a, const TiledDepMatrix& b) {
  if (a.n_ != b.n_) return false;
  for (std::size_t rb = 0; rb < a.nb_; ++rb) {
    const auto& as = a.rows_[rb].slots;
    const auto& bs = b.rows_[rb].slots;
    std::size_t ia = 0;
    std::size_t ib = 0;
    // Merge-walk the sorted slot lists; a tile missing on one side must
    // be all-zero on the other (defensive — mutators prune zero tiles).
    while (ia < as.size() || ib < bs.size()) {
      const std::uint32_t ca =
          ia < as.size() ? as[ia].cb : std::numeric_limits<std::uint32_t>::max();
      const std::uint32_t cb =
          ib < bs.size() ? bs[ib].cb : std::numeric_limits<std::uint32_t>::max();
      if (ca < cb) {
        if (!tile_is_zero(*as[ia].tile)) return false;
        ++ia;
      } else if (cb < ca) {
        if (!tile_is_zero(*bs[ib].tile)) return false;
        ++ib;
      } else {
        if (std::memcmp(as[ia].tile.get(), bs[ib].tile.get(),
                        sizeof(TiledDepMatrix::Tile)) != 0)
          return false;
        ++ia;
        ++ib;
      }
    }
  }
  return true;
}

}  // namespace rsnsec
