#include <gtest/gtest.h>

#include "dep/analyzer.hpp"
#include "netlist/netlist.hpp"
#include "rsn/rsn.hpp"
#include "util/rng.hpp"

namespace rsnsec::dep {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

/// Builds the Fig. 3 constellation directly: F5 -path-> IF1, F6 -str->
/// IF1 (via XOR reconvergence), IF1 -path-> IF2, IF2 -path-> F9; only F5,
/// F6 and F9 are RSN-connected.
struct Fig3 {
  Netlist nl;
  NodeId f5, f6, f9, if1, if2;
  rsn::Rsn net{"fig3"};

  Fig3() {
    f5 = nl.add_ff("F5");
    f6 = nl.add_ff("F6");
    if1 = nl.add_ff("IF1");
    if2 = nl.add_ff("IF2");
    f9 = nl.add_ff("F9");
    nl.set_ff_input(f5, f5);
    nl.set_ff_input(f6, f6);
    NodeId dead = nl.add_gate(GateType::Xor, {f6, f6});
    nl.set_ff_input(if1, nl.add_gate(GateType::Or, {f5, dead}));
    nl.set_ff_input(if2, if1);
    nl.set_ff_input(f9, if2);

    rsn::ElemId reg = net.add_register("r", 3, 0);
    net.connect(net.scan_in(), reg, 0);
    net.connect(reg, net.scan_out(), 0);
    net.set_capture(reg, 0, f5);
    net.set_capture(reg, 1, f6);
    net.set_capture(reg, 2, f9);
  }
};

TEST(Bridging, Fig3StepByStepResult) {
  // After bridging IF1 and IF2 the relation must contain exactly
  // "F9 on F6 (str.)" and "F9 on F5" among the kept flip-flops (Fig. 3,
  // rightmost column).
  Fig3 f;
  DependencyAnalyzer a(f.nl, f.net, {});
  a.run();
  auto idx = [&](NodeId n) { return a.circuit_index(n); };
  EXPECT_TRUE(a.is_internal(idx(f.if1)));
  EXPECT_TRUE(a.is_internal(idx(f.if2)));
  const DepMatrix m = a.circuit_closure().to_dense();
  EXPECT_EQ(m.get(idx(f.f5), idx(f.f9)), DepKind::Path);
  EXPECT_EQ(m.get(idx(f.f6), idx(f.f9)), DepKind::Structural);
  // No other cross dependencies among kept FFs (self-loops aside).
  EXPECT_EQ(m.get(idx(f.f5), idx(f.f6)), DepKind::None);
  EXPECT_EQ(m.get(idx(f.f6), idx(f.f5)), DepKind::None);
  EXPECT_EQ(m.get(idx(f.f9), idx(f.f5)), DepKind::None);
  EXPECT_EQ(m.get(idx(f.f9), idx(f.f6)), DepKind::None);
  // Bridged rows/columns are empty.
  EXPECT_TRUE(m.successors(idx(f.if1)).empty());
  EXPECT_TRUE(m.predecessors(idx(f.if2)).empty());
}

TEST(Bridging, StatsCountReduction) {
  Fig3 f;
  DependencyAnalyzer a(f.nl, f.net, {});
  a.run();
  const DepStats& s = a.stats();
  // Before bridging: F5->IF1, F6->IF1(str), IF1->IF2, IF2->F9 plus the
  // two self-hold loops F5->F5, F6->F6 = 6 deps over 5 denoted FFs;
  // after: F5->F9, F6->F9(str) and the self-loops = 4 deps over 3 FFs.
  EXPECT_EQ(s.deps_before_bridging, 6u);
  EXPECT_EQ(s.denoted_ffs_before, 5u);
  EXPECT_EQ(s.deps_after_bridging, 4u);
  EXPECT_EQ(s.denoted_ffs_after, 3u);
}

// Property: bridging + closure equals closure without bridging, projected
// onto the kept (non-internal) flip-flops — on random circuits.
class BridgeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BridgeFuzz, ExactReduction) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 99);
  Netlist nl;
  const std::size_t n = 6 + rng.below(6);
  std::vector<NodeId> ffs;
  for (std::size_t i = 0; i < n; ++i)
    ffs.push_back(nl.add_ff("f" + std::to_string(i)));
  for (NodeId f : ffs) {
    // Random next-state over 1..3 other FFs, sometimes cancelling.
    std::vector<NodeId> picks;
    std::size_t k = 1 + rng.below(3);
    for (std::size_t i = 0; i < k; ++i) picks.push_back(rng.pick(ffs));
    NodeId d;
    if (rng.chance(0.3)) {
      NodeId dead = nl.add_gate(GateType::Xor, {picks[0], picks[0]});
      d = picks.size() > 1 ? nl.add_gate(GateType::Or, {dead, picks[1]})
                           : dead;
    } else if (picks.size() == 1) {
      d = nl.add_gate(GateType::Buf, {picks[0]});
    } else {
      d = nl.add_gate(rng.chance(0.5) ? GateType::And : GateType::Xor,
                      {picks[0], picks[1]});
    }
    nl.set_ff_input(f, d);
  }
  // Attach roughly half the FFs to a scan register; the rest internal.
  rsn::Rsn net("fuzz");
  std::size_t n_attached = 2 + rng.below(static_cast<std::uint32_t>(n / 2));
  rsn::ElemId reg = net.add_register("r", n_attached, 0);
  net.connect(net.scan_in(), reg, 0);
  net.connect(reg, net.scan_out(), 0);
  for (std::size_t i = 0; i < n_attached; ++i)
    net.set_capture(reg, i, ffs[i]);

  DepOptions bridged;
  DepOptions plain;
  plain.bridge_internal = false;
  DependencyAnalyzer a(nl, net, bridged);
  a.run();
  DependencyAnalyzer b(nl, net, plain);
  b.run();
  for (std::size_t i = 0; i < n; ++i) {
    if (a.is_internal(i)) continue;
    for (std::size_t j = 0; j < n; ++j) {
      if (a.is_internal(j) || i == j) continue;
      EXPECT_EQ(a.circuit_closure().get(i, j),
                b.circuit_closure().get(i, j))
          << "pair " << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, BridgeFuzz, ::testing::Range(0, 30));

}  // namespace
}  // namespace rsnsec::dep
