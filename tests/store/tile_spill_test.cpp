// Out-of-core tier of the tiled matrices: the ArtifactSpillBackend
// round-trips and deduplicates tile blobs through the store, tiled
// analysis snapshots restore bit-identically via run_with_store, and
// blobs of the previous payload format (a representation flag selecting
// dense or tiled matrix sections) are never served.

#include "store/tile_spill.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "dep/analyzer.hpp"
#include "store/artifact_store.hpp"
#include "store/codec.hpp"
#include "store/dep_cache.hpp"

namespace rsnsec::store {
namespace {

namespace fs = std::filesystem;

using dep::DependencyAnalyzer;
using dep::DepOptions;

fs::path test_root() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir = fs::temp_directory_path() / "rsnsec_tile_spill_tests" /
                 (std::string(info->test_suite_name()) + "." + info->name());
  fs::remove_all(dir);
  return dir;
}

struct Workload {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;

  explicit Workload(const std::string& family, double target_ffs = 100) {
    Rng rng(11);
    const benchgen::BenchmarkProfile& p = benchgen::bastion_profile(family);
    double scale = target_ffs / static_cast<double>(p.scan_ffs);
    if (scale > 1.0) scale = 1.0;
    doc = benchgen::generate_bastion(p, scale, rng);
    circuit = benchgen::attach_random_circuit(doc, {}, rng);
  }
};

TEST(ArtifactSpillBackendTest, RoundTripsAndDeduplicatesTiles) {
  ArtifactStore store(test_root().string());
  ArtifactSpillBackend backend(&store);

  std::string tile_a(sizeof(TiledDepMatrix::Tile), '\x5a');
  std::string tile_b(sizeof(TiledDepMatrix::Tile), '\x33');
  std::string ha = backend.store(tile_a);
  std::string hb = backend.store(tile_b);
  EXPECT_NE(ha, hb);
  // Identical content deduplicates to the identical handle and a single
  // stored object (the all-ones closure block case).
  EXPECT_EQ(backend.store(tile_a), ha);
  EXPECT_EQ(store.disk_stats().objects, 2u);

  std::string out;
  ASSERT_TRUE(backend.fetch(ha, &out));
  EXPECT_EQ(out, tile_a);
  ASSERT_TRUE(backend.fetch(hb, &out));
  EXPECT_EQ(out, tile_b);
  EXPECT_FALSE(backend.fetch(Sha256::hex("no such tile"), &out));
}

TEST(ArtifactSpillBackendTest, SpilledMatrixEncodesAndRestores) {
  ArtifactStore store(test_root().string());
  ArtifactSpillBackend backend(&store);

  const std::size_t n = 400;
  TiledDepMatrix m(n);
  Rng rng(7);
  for (std::size_t e = 0; e < 3 * n; ++e) {
    m.upgrade(rng.below(n), rng.below(n),
              rng.chance(0.5) ? DepKind::Path : DepKind::Structural);
  }
  TiledDepMatrix resident = m;  // detached, fully-resident copy
  // Attaching immediately enforces the budget (one tile), spilling
  // essentially every tile.
  m.set_spill(&backend, sizeof(TiledDepMatrix::Tile));
  EXPECT_GT(m.tiles_spilled(), 0u);

  // The codec walks every tile through acquire(), so spilled tiles are
  // faulted back in transparently and the blob equals the resident one's.
  ByteWriter spilled_bytes;
  encode_tiled_matrix(spilled_bytes, m);
  ByteWriter resident_bytes;
  encode_tiled_matrix(resident_bytes, resident);
  EXPECT_EQ(spilled_bytes.bytes(), resident_bytes.bytes());

  ByteReader r(spilled_bytes.bytes());
  TiledDepMatrix back = decode_tiled_matrix(r);
  r.expect_end();
  EXPECT_TRUE(back.to_dense() == resident.to_dense());
}

TEST(TiledDepCacheTest, TiledSnapshotRestoresBitIdentically) {
  Workload w("Mingle");
  ArtifactStore store(test_root().string());

  DependencyAnalyzer cold(w.circuit, w.doc.network, {});
  EXPECT_FALSE(run_with_store(&store, cold));

  DependencyAnalyzer warm(w.circuit, w.doc.network, {});
  EXPECT_TRUE(run_with_store(&store, warm));
  EXPECT_EQ(warm.stats().threads_used, 0u);  // served, not computed
  EXPECT_TRUE(warm.one_cycle() == cold.one_cycle());
  EXPECT_TRUE(warm.circuit_closure() == cold.circuit_closure());
  EXPECT_EQ(warm.stats().closure_deps, cold.stats().closure_deps);
  EXPECT_EQ(warm.stats().closure_path_deps, cold.stats().closure_path_deps);
  EXPECT_EQ(warm.stats().sat_calls, cold.stats().sat_calls);
  // regions is recomputed live (pure function of the circuit), and the
  // footprint is refreshed from the restored matrices.
  EXPECT_EQ(warm.stats().regions, cold.stats().regions);
  EXPECT_EQ(warm.stats().tiles_nonzero, cold.stats().tiles_nonzero);
  EXPECT_GT(warm.stats().matrix_bytes, 0u);
  // memory_bytes is content-derived, so the restored footprint must match
  // the computed one exactly — otherwise warm analyze reports diverge
  // from cold ones.
  EXPECT_EQ(warm.stats().matrix_bytes, cold.stats().matrix_bytes);
}

/// Key of the previous (v4) recipe, which carried a matrix-representation
/// byte and four more option bytes in its fingerprint.
std::string v4_key(const Workload& w, const DepOptions& opt,
                   std::uint8_t partition) {
  ByteWriter k;
  k.str("rsnsec-dep-v4");
  ByteWriter nl_bytes;
  encode_netlist(nl_bytes, w.circuit);
  k.section(nl_bytes);
  ByteWriter rsn_bytes;
  encode_rsn(rsn_bytes, w.doc.network);
  k.section(rsn_bytes);
  ByteWriter o;
  o.u8(static_cast<std::uint8_t>(opt.mode));
  o.u8(opt.bridge_internal ? 1 : 0);
  o.zigzag(opt.sim_rounds);
  o.varint(opt.sat_conflict_limit);
  o.varint(opt.max_cycles);
  o.varint(opt.seed);
  for (int toggle = 0; toggle < 4; ++toggle) o.u8(1);
  o.u8(partition);
  k.section(o);
  return Sha256::hex(k.bytes());
}

TEST(TiledDepCacheTest, CacheKeySeparatesRepresentations) {
  // Blobs of the previous payload format (dense or tiled representation
  // behind a flag byte) live under keys the current recipe never
  // produces, so a current analyzer cannot even look them up.
  Workload w("BasicSCB");
  DepOptions opt;
  const std::string key = dep_cache_key(w.circuit, w.doc.network, opt);
  for (std::uint8_t partition : {0, 1, 2})
    EXPECT_NE(key, v4_key(w, opt, partition)) << int{partition};

  // The spill budget and the thread count are execution knobs: any
  // budget, any thread count, same key (the snapshot is always fully
  // resident and bit-identical).
  opt.tile_spill_budget = 1 << 20;
  opt.num_threads = 3;
  EXPECT_EQ(dep_cache_key(w.circuit, w.doc.network, opt), key);
}

/// The current snapshot encoding split at the matrix sections: the
/// internal-FF bit vector before them, capture deps + stats after them.
struct SnapshotParts {
  std::string head;
  std::string tail;
};

SnapshotParts split_snapshot(const std::string& blob) {
  ByteReader r(blob);
  const std::uint64_t n = r.varint();
  for (std::uint64_t word = 0; word < (n + 63) / 64; ++word) r.fixed64();
  SnapshotParts parts;
  parts.head = blob.substr(0, blob.size() - r.remaining());
  r.section();
  r.section();
  parts.tail = blob.substr(blob.size() - r.remaining());
  return parts;
}

TEST(TiledDepCacheTest, TamperedRepresentationFlagIsRejected) {
  // The previous payload format put a representation flag (0 = dense,
  // 1 = tiled) between the internal-FF bits and the matrix sections. A
  // current blob with such a flag spliced in is malformed.
  Workload w("BasicSCB");
  DependencyAnalyzer a(w.circuit, w.doc.network, {});
  a.run();
  ByteWriter wtr;
  encode_dep_snapshot(wtr, a.snapshot());
  const std::string blob = wtr.bytes();
  {
    ByteReader r(blob);
    EXPECT_NO_THROW((void)decode_dep_snapshot(r));
  }
  const SnapshotParts parts = split_snapshot(blob);
  for (char flag : {'\0', '\1'}) {
    std::string tampered = blob;
    tampered.insert(parts.head.size(), 1, flag);
    ByteReader r(tampered);
    EXPECT_THROW(
        {
          (void)decode_dep_snapshot(r);
          r.expect_end();
        },
        CodecError)
        << "flag " << int{flag};
  }
}

TEST(TiledDepCacheTest, MismatchedRepresentationBlobIsDiscarded) {
  // A blob in the previous payload format — dense bit planes or tiles
  // behind a representation flag — planted under the current key is a
  // miss: discarded and recomputed, with no crash and no error.
  Workload w("Mingle");
  DependencyAnalyzer fresh(w.circuit, w.doc.network, {});
  fresh.run();
  ByteWriter current;
  encode_dep_snapshot(current, fresh.snapshot());
  const SnapshotParts parts = split_snapshot(current.bytes());

  auto dense_section = [](const DepMatrix& m) {
    ByteWriter sec;
    sec.varint(m.size());
    for (std::uint64_t word : m.plane_s()) sec.fixed64(word);
    for (std::uint64_t word : m.plane_p()) sec.fixed64(word);
    return sec;
  };
  auto tiled_section = [](const TiledDepMatrix& m) {
    ByteWriter sec;
    encode_tiled_matrix(sec, m);
    return sec;
  };
  ByteWriter dense_blob;
  dense_blob.raw(parts.head.data(), parts.head.size());
  dense_blob.u8(0);
  dense_blob.section(dense_section(fresh.one_cycle().to_dense()));
  dense_blob.section(dense_section(fresh.circuit_closure().to_dense()));
  dense_blob.raw(parts.tail.data(), parts.tail.size());
  ByteWriter tiled_blob;
  tiled_blob.raw(parts.head.data(), parts.head.size());
  tiled_blob.u8(1);
  tiled_blob.section(tiled_section(fresh.one_cycle()));
  tiled_blob.section(tiled_section(fresh.circuit_closure()));
  tiled_blob.raw(parts.tail.data(), parts.tail.size());

  for (const ByteWriter* old : {&dense_blob, &tiled_blob}) {
    ArtifactStore store(test_root().string());
    const std::string key = dep_cache_key(w.circuit, w.doc.network, {});
    store.put(key, old->bytes());

    DependencyAnalyzer cold(w.circuit, w.doc.network, {});
    EXPECT_FALSE(run_with_store(&store, cold));
    EXPECT_EQ(store.counters().misses, 1u);
    EXPECT_EQ(store.counters().hits, 0u);
    EXPECT_TRUE(cold.circuit_closure() == fresh.circuit_closure());
    EXPECT_EQ(cold.stats().sat_calls, fresh.stats().sat_calls);

    // The recomputed result replaced the old blob: the next run hits.
    DependencyAnalyzer warm(w.circuit, w.doc.network, {});
    EXPECT_TRUE(run_with_store(&store, warm));
    EXPECT_TRUE(warm.circuit_closure() == fresh.circuit_closure());
  }
}

}  // namespace
}  // namespace rsnsec::store
