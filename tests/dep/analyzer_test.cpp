#include "dep/analyzer.hpp"

#include <gtest/gtest.h>

#include "benchgen/running_example.hpp"
#include "reference/reference.hpp"

namespace rsnsec::dep {
namespace {

using benchgen::RunningExample;

class RunningExampleDeps : public ::testing::Test {
 protected:
  RunningExampleDeps() : ex_(benchgen::make_running_example()) {}

  DependencyAnalyzer analyze(DepOptions opt = {}) {
    DependencyAnalyzer a(ex_.circuit, ex_.doc.network, opt);
    a.run();
    return a;
  }

  RunningExample ex_;
};

TEST_F(RunningExampleDeps, InternalFlipFlopsClassified) {
  DependencyAnalyzer a = analyze();
  // IF1 and IF2 are not capture sources / update targets: internal.
  EXPECT_TRUE(a.is_internal(a.circuit_index(ex_.if1)));
  EXPECT_TRUE(a.is_internal(a.circuit_index(ex_.if2)));
  // F2, F5, F6, F7 are directly connected.
  EXPECT_FALSE(a.is_internal(a.circuit_index(ex_.f2)));
  EXPECT_FALSE(a.is_internal(a.circuit_index(ex_.f5)));
  EXPECT_FALSE(a.is_internal(a.circuit_index(ex_.f7)));
  EXPECT_EQ(a.stats().internal_ffs, 2u);
}

TEST_F(RunningExampleDeps, OneCycleKindsMatchPaper) {
  // Sec. II-A: "IF2 is 1-cycle functionally dependent on IF1, IF1 is
  // 1-cycle functionally dependent on F5 and IF1 is 1-cycle only
  // structurally dependent on F6 due to the reconvergence."
  DepOptions opt;
  opt.bridge_internal = false;  // keep internal FFs to inspect 1-cycle
  DependencyAnalyzer a = analyze(opt);
  const TiledDepMatrix& m = a.one_cycle();
  auto idx = [&](netlist::NodeId n) { return a.circuit_index(n); };
  EXPECT_EQ(m.get(idx(ex_.if1), idx(ex_.if2)), DepKind::Path);
  EXPECT_EQ(m.get(idx(ex_.f5), idx(ex_.if1)), DepKind::Path);
  EXPECT_EQ(m.get(idx(ex_.f6), idx(ex_.if1)), DepKind::Structural);
  EXPECT_EQ(m.get(idx(ex_.f2), idx(ex_.f6)), DepKind::Path);
  EXPECT_EQ(m.get(idx(ex_.if2), idx(ex_.f7)), DepKind::Path);
  EXPECT_EQ(m.get(idx(ex_.if2), idx(ex_.f9)), DepKind::Path);
}

TEST_F(RunningExampleDeps, MultiCycleKindsMatchPaper) {
  // "IF2 is path-dependent on F5 and IF2 is multi-cycle only structural
  // dependent on F6."
  DepOptions opt;
  opt.bridge_internal = false;
  DependencyAnalyzer a = analyze(opt);
  const TiledDepMatrix& m = a.circuit_closure();
  auto idx = [&](netlist::NodeId n) { return a.circuit_index(n); };
  EXPECT_EQ(m.get(idx(ex_.f5), idx(ex_.if2)), DepKind::Path);
  EXPECT_EQ(m.get(idx(ex_.f6), idx(ex_.if2)), DepKind::Structural);
  // Crypto to untrusted overall: F2 -> F6 (path) -> IF1 (struct) -> F7:
  // only structural — the Fig. 5 security argument.
  EXPECT_EQ(m.get(idx(ex_.f2), idx(ex_.f7)), DepKind::Structural);
  // F5 -> F7 is a real data path.
  EXPECT_EQ(m.get(idx(ex_.f5), idx(ex_.f7)), DepKind::Path);
}

TEST_F(RunningExampleDeps, BridgedClosureMatchesUnbridgedOnKeptNodes) {
  DepOptions bridged;
  DepOptions unbridged;
  unbridged.bridge_internal = false;
  DependencyAnalyzer a = analyze(bridged);
  DependencyAnalyzer b = analyze(unbridged);
  // On non-internal pairs both computations must agree (bridging is an
  // exact reduction, Sec. III-A.2 / Fig. 3).
  for (std::size_t i = 0; i < a.num_circuit_ffs(); ++i) {
    if (a.is_internal(i)) continue;
    for (std::size_t j = 0; j < a.num_circuit_ffs(); ++j) {
      if (a.is_internal(j) || i == j) continue;
      EXPECT_EQ(a.circuit_closure().get(i, j),
                b.circuit_closure().get(i, j))
          << i << " -> " << j;
    }
  }
}

TEST_F(RunningExampleDeps, BridgingReducesDenotedData) {
  DependencyAnalyzer a = analyze();
  const DepStats& s = a.stats();
  EXPECT_GT(s.deps_before_bridging, 0u);
  EXPECT_LE(s.denoted_ffs_after, s.denoted_ffs_before);
  // Bridged-out flip-flops have no dependencies left.
  for (std::size_t i = 0; i < a.num_circuit_ffs(); ++i) {
    if (!a.is_internal(i)) continue;
    EXPECT_TRUE(a.circuit_closure().successors(i).empty());
    EXPECT_TRUE(a.circuit_closure().to_dense().predecessors(i).empty());
  }
}

TEST_F(RunningExampleDeps, StructuralOnlyModeOverApproximates) {
  DepOptions exact;
  DepOptions structural;
  structural.mode = DepMode::StructuralOnly;
  DependencyAnalyzer a = analyze(exact);
  DependencyAnalyzer b = analyze(structural);
  auto idx = [&](netlist::NodeId n) { return a.circuit_index(n); };
  // The over-approximation turns the cancelled F2 -> F7 route into a
  // (false) path dependency: the Sec. IV-C phenomenon.
  EXPECT_EQ(a.circuit_closure().get(idx(ex_.f2), idx(ex_.f7)),
            DepKind::Structural);
  EXPECT_EQ(b.circuit_closure().get(idx(ex_.f2), idx(ex_.f7)),
            DepKind::Path);
  EXPECT_EQ(b.stats().sat_calls, 0u);
  // Over-approximation: every exact path dep is also a structural-mode
  // path dep.
  for (std::size_t i = 0; i < a.num_circuit_ffs(); ++i)
    for (std::size_t j = 0; j < a.num_circuit_ffs(); ++j)
      if (a.circuit_closure().get(i, j) == DepKind::Path) {
        EXPECT_EQ(b.circuit_closure().get(i, j), DepKind::Path);
      }
}

TEST_F(RunningExampleDeps, CaptureDepsReportScanAttachment) {
  DependencyAnalyzer a = analyze();
  // SF2 (register R1, ff 1) captures F2 directly: a functional capture
  // dependency on F2.
  const auto& deps = a.capture_deps(ex_.r1, 1);
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].circuit_ff, ex_.f2);
  EXPECT_EQ(deps[0].kind, DepKind::Path);
}

TEST_F(RunningExampleDeps, SimPrefilterResolvesMostFunctionalDeps) {
  DependencyAnalyzer a = analyze();
  const DepStats& s = a.stats();
  // The simulation witness path must fire (direct wires always witness).
  EXPECT_GT(s.sim_resolved, 0u);
  // The cancelled XOR(F6, F6) dependency is shallow enough for the
  // ternary prefilter (on by default): discharged before SAT.
  EXPECT_GT(s.ternary_resolved, 0u);
  EXPECT_EQ(s.sat_structural, 0u);
  // The reference sends every leaf through SAT instead — and lands on
  // the same classification.
  reference::DepResult ref = reference::analyze(ex_.circuit, ex_.doc.network);
  EXPECT_TRUE(a.one_cycle().to_dense() == ref.one_cycle);
  EXPECT_TRUE(a.circuit_closure().to_dense() == ref.closure);
}

TEST_F(RunningExampleDeps, BoundedCyclesUnderApproximate) {
  // The hybrid path F5 -> IF1 -> IF2 -> F7 spans three cycles. Without
  // bridging, a 2-cycle bound must not contain F5 -> F7 yet; 3 cycles
  // (and the unbounded fixpoint) must.
  DepOptions k2;
  k2.bridge_internal = false;
  k2.max_cycles = 2;
  DepOptions k3 = k2;
  k3.max_cycles = 3;
  DepOptions full;
  full.bridge_internal = false;
  DependencyAnalyzer a2 = analyze(k2);
  DependencyAnalyzer a3 = analyze(k3);
  DependencyAnalyzer af = analyze(full);
  auto idx = [&](netlist::NodeId n) { return a2.circuit_index(n); };
  EXPECT_EQ(a2.circuit_closure().get(idx(ex_.f5), idx(ex_.f7)),
            DepKind::None);
  EXPECT_EQ(a3.circuit_closure().get(idx(ex_.f5), idx(ex_.f7)),
            DepKind::Path);
  EXPECT_EQ(af.circuit_closure().get(idx(ex_.f5), idx(ex_.f7)),
            DepKind::Path);
  // The bound never adds anything beyond the fixpoint.
  for (std::size_t i = 0; i < a2.num_circuit_ffs(); ++i)
    for (std::size_t j = 0; j < a2.num_circuit_ffs(); ++j)
      EXPECT_EQ(max_dep(a2.circuit_closure().get(i, j),
                        af.circuit_closure().get(i, j)),
                af.circuit_closure().get(i, j));
}

}  // namespace
}  // namespace rsnsec::dep
