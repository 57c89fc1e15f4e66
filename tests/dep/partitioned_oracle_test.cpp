// Bit-identity of the tiled + region-partitioned analysis against the
// reference analysis of tests/reference (dense DepMatrix kernels): on
// every BASTION family and an MBIST array, the analyzer produces exactly
// the reference's matrices and capture dependencies — at one and at eight
// threads, and with tiles spilling through a backend under a tiny
// residency budget.

#include <gtest/gtest.h>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "dep/analyzer.hpp"
#include "reference/reference.hpp"
#include "util/tiled_matrix.hpp"

namespace rsnsec::dep {
namespace {

struct Workload {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;

  explicit Workload(const std::string& family, double target_ffs = 120) {
    Rng rng(11);
    if (family.rfind("MBIST", 0) == 0) {
      doc = benchgen::generate_mbist(2, 3, 2, 1.0);
    } else {
      const benchgen::BenchmarkProfile& p =
          benchgen::bastion_profile(family);
      double scale = target_ffs / static_cast<double>(p.scan_ffs);
      if (scale > 1.0) scale = 1.0;
      doc = benchgen::generate_bastion(p, scale, rng);
    }
    circuit = benchgen::attach_random_circuit(doc, {}, rng);
  }
};

DependencyAnalyzer run_analysis(const Workload& w, const DepOptions& opt) {
  DependencyAnalyzer a(w.circuit, w.doc.network, opt);
  a.run();
  return a;
}

TEST(PartitionedOracle, TiledMatchesDenseOnAllFamilies) {
  std::vector<std::string> names;
  for (const benchgen::BenchmarkProfile& p : benchgen::bastion_profiles())
    names.push_back(p.name);
  names.push_back("MBIST_2_3_2");
  for (const std::string& family : names) {
    Workload w(family);
    const reference::DepResult ref =
        reference::analyze(w.circuit, w.doc.network);
    DepOptions opt;
    opt.num_threads = 1;
    DependencyAnalyzer tiled1 = run_analysis(w, opt);
    reference::expect_matches(tiled1, ref, w.doc.network, family);
    opt.num_threads = 8;
    DependencyAnalyzer tiled8 = run_analysis(w, opt);
    EXPECT_EQ(tiled8.stats().threads_used, 8u) << family;
    reference::expect_matches(tiled8, ref, w.doc.network, family + " @8");
    // The partition is a pure function of the circuit — identical at any
    // thread count.
    EXPECT_EQ(tiled1.stats().regions, tiled8.stats().regions) << family;
    EXPECT_GE(tiled1.stats().regions, 1u) << family;
  }
}

TEST(PartitionedOracle, SpillBudgetDoesNotChangeTheResult) {
  for (const char* family : {"Mingle", "TreeBalanced", "MBIST_2_3_2"}) {
    Workload w(family);
    DepOptions spill_opt;
    // A budget of one tile per matrix: essentially everything evicts, so
    // every kernel exercises the fault-in path.
    spill_opt.tile_spill_budget = sizeof(TiledDepMatrix::Tile);
    InMemorySpillBackend backend;
    spill_opt.spill_backend = &backend;
    DependencyAnalyzer spilled = run_analysis(w, spill_opt);
    reference::expect_matches(spilled,
                              reference::analyze(w.circuit, w.doc.network),
                              w.doc.network, family);
    EXPECT_GT(spilled.stats().tiles_spilled, 0u) << family;
  }
}

TEST(PartitionedOracle, LargeCircuitsSplitIntoRegions) {
  // StructuralOnly keeps the large instance fast (no SAT) — the
  // partition is fixed before any classification work.
  Rng rng(3);
  rsn::RsnDocument doc = benchgen::generate_mbist(16, 4, 4, 1.0);
  netlist::Netlist circuit = benchgen::attach_random_circuit(doc, {}, rng);
  ASSERT_GE(circuit.ffs().size(), 4096u);
  DepOptions opt;
  opt.mode = DepMode::StructuralOnly;
  DependencyAnalyzer b(circuit, doc.network, opt);
  b.run();
  EXPECT_GT(b.stats().regions, 1u);
  EXPECT_GT(b.stats().tiles_nonzero, 0u);
  // Block-sparse: far fewer resident bytes than the two dense n x n
  // bit-plane pairs (4 planes of n^2 bits).
  const std::uint64_t n = circuit.ffs().size();
  EXPECT_LT(b.stats().matrix_bytes, n * n / 2);
}

TEST(PartitionedOracle, TiledFullPipelineClassifiesIdentically) {
  // closure_at + closure_path_successors are what the security layer
  // consumes; cross-check them against the reference entries directly.
  Workload w("TreeUnbalanced");
  const reference::DepResult ref =
      reference::analyze(w.circuit, w.doc.network);
  DependencyAnalyzer tiled = run_analysis(w, {});
  for (std::size_t i = 0; i < ref.closure.size(); ++i)
    for (std::size_t j = 0; j < ref.closure.size(); ++j)
      ASSERT_EQ(tiled.closure_at(i, j), ref.closure.get(i, j))
          << i << " -> " << j;
}

}  // namespace
}  // namespace rsnsec::dep
