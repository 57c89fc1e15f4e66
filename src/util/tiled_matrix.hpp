#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/dep_matrix.hpp"

namespace rsnsec {

class ThreadPool;

/// Sparse n-by-n DepKind matrix stored as 64x64-bit tiles.
///
/// Semantically identical to DepMatrix (two bit planes S and P, P implies
/// S, entry (i, j) = dependency of column j on row i), but all-zero tiles
/// are not materialized, so memory scales with the number of denoted
/// 64x64 blocks instead of n^2 — the difference between ~2.5 GB and a few
/// hundred MB for a 100k-FF design whose dependency structure is module-
/// local. Tiles of one row block are kept sorted by column block.
///
/// Every kernel (transitive_closure, bounded_closure, eliminate) computes
/// bit for bit what the corresponding DepMatrix kernel computes: the
/// closures are unique fixpoints of the relation and elimination is
/// order-independent, so the tiled results are interchangeable with the
/// dense oracle (pinned by tests/util/tiled_matrix_test.cpp and the
/// dep-level oracle sweeps).
class TiledDepMatrix {
 public:
  /// One 64x64-bit tile: 64 row words per plane, bit c of s[r] =
  /// "structural or stronger" for local entry (r, c). 1 KiB per tile.
  struct Tile {
    std::uint64_t s[64];
    std::uint64_t p[64];
  };

  TiledDepMatrix() = default;
  explicit TiledDepMatrix(std::size_t n);

  TiledDepMatrix(const TiledDepMatrix& o);
  TiledDepMatrix& operator=(const TiledDepMatrix& o);
  TiledDepMatrix(TiledDepMatrix&&) noexcept = default;
  TiledDepMatrix& operator=(TiledDepMatrix&&) noexcept = default;

  std::size_t size() const { return n_; }
  std::size_t num_blocks() const { return nb_; }

  DepKind get(std::size_t i, std::size_t j) const;
  void upgrade(std::size_t i, std::size_t j, DepKind k);
  void set(std::size_t i, std::size_t j, DepKind k);
  void clear_node(std::size_t i);

  std::size_t count_nonzero() const;
  std::size_t count_path() const;

  /// Marks endpoints[i] = true for every i that is the source or target
  /// of at least one non-None entry. `endpoints` must be sized n.
  void mark_endpoints(std::vector<bool>& endpoints) const;

  /// Materialized tiles (all non-zero: mutators prune zero tiles).
  std::size_t tiles_nonzero() const;
  /// Bytes of tile payloads plus slot bookkeeping. Content-derived
  /// (sizes, not capacities), so computed and store-restored matrices
  /// with the same tiles report the same figure.
  std::uint64_t memory_bytes() const;

  /// Tiled transitive closure under compose_dep/max_dep; bit-identical to
  /// DepMatrix::transitive_closure for the same relation and `active`
  /// mask. Blocked Floyd-Warshall: per 64-wide via block, the diagonal
  /// tile is closed locally, then the row panel, column panel and
  /// interior updates absorb it — each skipping absent tiles, which is
  /// where the block-sparse win over the dense kernel comes from. Serial:
  /// the per-via-block panel updates are too small to pay for a pool
  /// dispatch.
  void transitive_closure(const std::vector<bool>* active = nullptr);

  /// Tiled bounded closure; bit-identical to DepMatrix::bounded_closure.
  bool bounded_closure(std::size_t cycles, ThreadPool* pool = nullptr);

  /// Tiled bridging of node v; bit-identical to DepMatrix::eliminate.
  void eliminate(std::size_t v);

  /// Column indices j with get(i, j) != None, ascending.
  std::vector<std::size_t> successors(std::size_t i) const;

  /// Column indices j with get(i, j) == Path, ascending.
  std::vector<std::size_t> path_successors(std::size_t i) const;

  /// Number of j with get(i, j) == Path (path_successors(i).size(), by
  /// popcount, without listing them).
  std::size_t path_successor_count(std::size_t i) const;

  /// Calls fn(j) for every j with get(i, j) == Path, ascending: the
  /// allocation-free form of path_successors.
  template <typename Fn>
  void for_each_path_successor(std::size_t i, Fn&& fn) const;

  /// Calls fn(i, j, kind) for every non-None entry, ascending (i, j).
  void for_each_entry(
      const std::function<void(std::size_t, std::size_t, DepKind)>& fn) const;

  /// Dense interchange (tests, small-scale oracles, serialization of the
  /// capture side).
  DepMatrix to_dense() const;
  static TiledDepMatrix from_dense(const DepMatrix& m);

  /// Serialization interface: visits tiles in (row block, column block)
  /// order.
  void for_each_tile(const std::function<void(std::size_t rb, std::size_t cb,
                                              const Tile&)>& fn) const;

  /// Inserts a tile during deserialization, validating range, strictly
  /// ascending (rb, cb) insertion order per row block, non-zero payload,
  /// clear tail bits on edge blocks and P-implies-S. Returns false on any
  /// violation (the codec treats that as a corrupt blob).
  bool insert_tile(std::size_t rb, std::size_t cb, const Tile& t);

  /// View of tile (rb, cb); nullptr if the tile is absent (all-zero). The
  /// pointer is invalidated by any mutation of the matrix. Used by the
  /// region-partitioned bridging to lift a region's diagonal block into a
  /// dense local matrix.
  const Tile* tile_at(std::size_t rb, std::size_t cb) const;

  /// Replaces tile (rb, cb) with `t` wholesale (erasing it if `t` is all
  /// zero). Unlike insert_tile this is an unordered overwrite for trusted
  /// in-process callers — the write-back half of tile_at.
  void assign_tile(std::size_t rb, std::size_t cb, const Tile& t);

  /// Content equality (same dimension, same DepKind at every entry).
  friend bool operator==(const TiledDepMatrix& a, const TiledDepMatrix& b);

 private:
  struct Slot {
    std::uint32_t cb = 0;
    std::unique_ptr<Tile> tile;
  };
  struct RowBlock {
    std::vector<Slot> slots;  // sorted by cb
  };

  std::size_t n_ = 0;
  std::size_t nb_ = 0;  // number of 64-wide blocks: (n + 63) / 64
  std::vector<RowBlock> rows_;

  /// Tail mask of the last block: bits for columns/rows >= n are invalid.
  std::uint64_t edge_mask(std::size_t block) const;

  /// Mutable tile (rb, cb), or nullptr if absent; tile_at is the const
  /// lookup.
  Tile* find_tile(std::size_t rb, std::size_t cb);
  /// Tile (rb, cb), materializing an all-zero one if absent. Inserting
  /// may move the other slots of row block rb.
  Tile* find_or_create(std::size_t rb, std::size_t cb);
  void prune_if_zero(std::size_t rb, std::size_t cb);

  void closure_plane(bool path_plane, const std::vector<std::uint64_t>& amask);
  bool compose_round(const TiledDepMatrix& cur, const TiledDepMatrix& one,
                     ThreadPool* pool);
};

template <typename Fn>
void TiledDepMatrix::for_each_path_successor(std::size_t i, Fn&& fn) const {
  const std::size_t rb = i >> 6;
  const std::size_t r = i & 63;
  for (const Slot& s : rows_[rb].slots) {
    std::uint64_t bits = s.tile->p[r];
    while (bits != 0) {
      fn(s.cb * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
}

}  // namespace rsnsec
