#include "security/hybrid.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "dep/analyzer.hpp"

namespace rsnsec::security {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;
using rsn::ElemId;
using rsn::Rsn;

/// Modules: 0 = confidential (accepts category 1 only), 1 = relay
/// (permissive), 2 = untrusted (trust category 0).
SecuritySpec make_spec() {
  SecuritySpec spec(3, 2);
  spec.set_policy(0, 1, 0b10);
  spec.set_policy(1, 1, 0b11);
  spec.set_policy(2, 0, 0b11);
  return spec;
}

struct Analysis {
  Netlist nl;
  Rsn net{"t"};
  SecuritySpec spec = make_spec();

  dep::DependencyAnalyzer run_deps() {
    dep::DependencyAnalyzer d(nl, net, {});
    d.run();
    return d;
  }
};

TEST(Hybrid, NodeIdRangeIsCheckedNotWrapped) {
  // The propagation graph stores 32-bit node ids; a graph with more nodes
  // fails with a coded error instead of wrapping ids (checked through the
  // range seam, without building such a graph).
  const std::size_t limit = std::size_t{1} << 32;
  EXPECT_NO_THROW(check_node_id_range(limit - 1));
  try {
    check_node_id_range(limit);
    FAIL() << "2^32 nodes accepted";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("HYB001"), std::string::npos)
        << e.what();
  }
}

TEST(Hybrid, DetectsUpdateCircuitViolation) {
  // regC (conf, captures cf) -> RSN -> regR (relay, updates rf);
  // rf -> uf (untrusted) in the circuit: a hybrid violation.
  Analysis a;
  for (const char* m : {"conf", "relay", "untrusted"}) a.nl.add_module(m);
  NodeId cf = a.nl.add_ff("cf", 0);
  NodeId rf = a.nl.add_ff("rf", 1);
  NodeId uf = a.nl.add_ff("uf", 2);
  a.nl.set_ff_input(cf, cf);
  a.nl.set_ff_input(rf, rf);
  a.nl.set_ff_input(uf, rf);

  ElemId reg_c = a.net.add_register("regC", 1, 0);
  ElemId reg_r = a.net.add_register("regR", 1, 1);
  // The untrusted module's instrument register: keeps uf RSN-connected
  // (un-attached flip-flops are bridged away as transit-only). Placed
  // UPSTREAM so no pure scan path leads from regC to it.
  ElemId reg_u = a.net.add_register("regU", 1, 2);
  a.net.connect(a.net.scan_in(), reg_u, 0);
  a.net.connect(reg_u, reg_c, 0);
  a.net.connect(reg_c, reg_r, 0);
  a.net.connect(reg_r, a.net.scan_out(), 0);
  a.net.set_capture(reg_c, 0, cf);
  a.net.set_update(reg_r, 0, rf);
  a.net.set_capture(reg_u, 0, uf);

  dep::DependencyAnalyzer deps = a.run_deps();
  TokenTable tokens(a.spec, 3);
  HybridAnalyzer hybrid(a.nl, a.net, deps, a.spec, tokens);

  EXPECT_TRUE(hybrid.check_static().clean());
  EXPECT_GT(hybrid.count_violating_pairs(a.net), 0u);

  auto v = hybrid.find_violation(a.net);
  ASSERT_TRUE(v.has_value());
  EXPECT_FALSE(v->rsn_connections.empty());

  HybridStats stats = hybrid.detect_and_resolve(a.net);
  EXPECT_GE(stats.applied_changes, 1);
  EXPECT_EQ(hybrid.count_violating_pairs(a.net), 0u);
  std::string err;
  EXPECT_TRUE(a.net.validate(&err)) << err;
}

TEST(Hybrid, FlipFlopGranularityAvoidsFalsePositive) {
  // The Fig. 4 discussion: within one register, capture happens at the
  // LATER flip-flop and update at the EARLIER one. Data can only shift
  // toward scan-out, so the two circuit attachments cannot concatenate —
  // a register-granular method would falsely report a violation here.
  Analysis a;
  for (const char* m : {"conf", "relay", "untrusted"}) a.nl.add_module(m);
  NodeId cf = a.nl.add_ff("cf", 0);
  NodeId xf = a.nl.add_ff("xf", 1);  // functionally depends on cf
  NodeId rf = a.nl.add_ff("rf", 1);
  NodeId uf = a.nl.add_ff("uf", 2);
  a.nl.set_ff_input(cf, cf);
  a.nl.set_ff_input(xf, cf);
  a.nl.set_ff_input(rf, rf);
  a.nl.set_ff_input(uf, rf);

  ElemId reg = a.net.add_register("regM", 2, 1);
  ElemId reg_u = a.net.add_register("regU", 1, 2);  // keeps uf attached
  ElemId reg_c = a.net.add_register("regC", 1, 0);  // keeps cf attached
  a.net.connect(a.net.scan_in(), reg_u, 0);  // upstream: no pure path to it
  a.net.connect(reg_u, reg, 0);
  a.net.connect(reg, reg_c, 0);  // conf register last: its token is inert
  a.net.connect(reg_c, a.net.scan_out(), 0);
  a.net.set_capture(reg_u, 0, uf);
  a.net.set_capture(reg_c, 0, cf);
  a.net.set_update(reg, 0, rf);   // earlier FF updates
  a.net.set_capture(reg, 1, xf);  // later FF captures confidential data

  dep::DependencyAnalyzer deps = a.run_deps();
  TokenTable tokens(a.spec, 3);
  HybridAnalyzer hybrid(a.nl, a.net, deps, a.spec, tokens);

  EXPECT_TRUE(hybrid.check_static().clean());
  EXPECT_EQ(hybrid.count_violating_pairs(a.net), 0u);
  EXPECT_FALSE(hybrid.find_violation(a.net).has_value());
}

TEST(Hybrid, IntraSegmentFlowReportedAsStatic) {
  // Reversed attachment: capture at the earlier FF, update at the later
  // one. Now the flow exists entirely inside the register and cannot be
  // fixed by RSN rewiring: check_static must flag it.
  Analysis a;
  for (const char* m : {"conf", "relay", "untrusted"}) a.nl.add_module(m);
  NodeId cf = a.nl.add_ff("cf", 0);
  NodeId xf = a.nl.add_ff("xf", 1);
  NodeId rf = a.nl.add_ff("rf", 1);
  NodeId uf = a.nl.add_ff("uf", 2);
  a.nl.set_ff_input(cf, cf);
  a.nl.set_ff_input(xf, cf);
  a.nl.set_ff_input(rf, rf);
  a.nl.set_ff_input(uf, rf);

  ElemId reg = a.net.add_register("regM", 2, 1);
  ElemId reg_u = a.net.add_register("regU", 1, 2);  // keeps uf attached
  ElemId reg_c = a.net.add_register("regC", 1, 0);  // keeps cf attached
  a.net.connect(a.net.scan_in(), reg_u, 0);
  a.net.connect(reg_u, reg, 0);
  a.net.connect(reg, reg_c, 0);
  a.net.connect(reg_c, a.net.scan_out(), 0);
  a.net.set_capture(reg_u, 0, uf);
  a.net.set_capture(reg_c, 0, cf);
  a.net.set_capture(reg, 0, xf);  // earlier FF captures
  a.net.set_update(reg, 1, rf);   // later FF updates

  dep::DependencyAnalyzer deps = a.run_deps();
  TokenTable tokens(a.spec, 3);
  HybridAnalyzer hybrid(a.nl, a.net, deps, a.spec, tokens);

  StaticReport report = hybrid.check_static();
  EXPECT_FALSE(report.insecure_logic);
  EXPECT_TRUE(report.intra_segment);
}

TEST(Hybrid, InsecureCircuitLogicDetected) {
  // cf (confidential) feeds uf (untrusted) directly in the circuit: a
  // Sec. III-B violation, independent of any scan infrastructure.
  Analysis a;
  for (const char* m : {"conf", "relay", "untrusted"}) a.nl.add_module(m);
  NodeId cf = a.nl.add_ff("cf", 0);
  NodeId uf = a.nl.add_ff("uf", 2);
  a.nl.set_ff_input(cf, cf);
  a.nl.set_ff_input(uf, cf);

  ElemId reg = a.net.add_register("reg", 1, 0);
  ElemId reg_u = a.net.add_register("regU", 1, 2);  // keeps uf attached
  a.net.connect(a.net.scan_in(), reg, 0);
  a.net.connect(reg, reg_u, 0);
  a.net.connect(reg_u, a.net.scan_out(), 0);
  a.net.set_capture(reg, 0, cf);
  a.net.set_capture(reg_u, 0, uf);

  dep::DependencyAnalyzer deps = a.run_deps();
  TokenTable tokens(a.spec, 3);
  HybridAnalyzer hybrid(a.nl, a.net, deps, a.spec, tokens);
  StaticReport report = hybrid.check_static();
  EXPECT_TRUE(report.insecure_logic);
  EXPECT_FALSE(report.clean());
}

TEST(Hybrid, StructuralOnlyCircuitPathIsSafe) {
  // cf -> uf exists structurally but the XOR reconvergence cancels it:
  // the exact analysis must NOT flag insecure logic (Fig. 5 argument).
  Analysis a;
  for (const char* m : {"conf", "relay", "untrusted"}) a.nl.add_module(m);
  NodeId cf = a.nl.add_ff("cf", 0);
  NodeId live = a.nl.add_ff("live", 1);
  NodeId uf = a.nl.add_ff("uf", 2);
  a.nl.set_ff_input(cf, cf);
  a.nl.set_ff_input(live, live);
  NodeId dead = a.nl.add_gate(GateType::Xor, {cf, cf});
  a.nl.set_ff_input(uf, a.nl.add_gate(GateType::Or, {dead, live}));

  ElemId reg = a.net.add_register("reg", 1, 0);
  ElemId reg_u = a.net.add_register("regU", 1, 2);  // keeps uf attached
  a.net.connect(a.net.scan_in(), reg, 0);
  a.net.connect(reg, reg_u, 0);
  a.net.connect(reg_u, a.net.scan_out(), 0);
  a.net.set_capture(reg, 0, cf);
  a.net.set_capture(reg_u, 0, uf);

  dep::DependencyAnalyzer deps = a.run_deps();
  TokenTable tokens(a.spec, 3);
  HybridAnalyzer hybrid(a.nl, a.net, deps, a.spec, tokens);
  EXPECT_TRUE(hybrid.check_static().clean());

  // The structural-only over-approximation (Sec. IV-C) falsely classifies
  // the same circuit as insecure.
  dep::DepOptions opt;
  opt.mode = dep::DepMode::StructuralOnly;
  dep::DependencyAnalyzer deps2(a.nl, a.net, opt);
  deps2.run();
  HybridAnalyzer hybrid2(a.nl, a.net, deps2, a.spec, tokens);
  EXPECT_TRUE(hybrid2.check_static().insecure_logic);
}

TEST(Hybrid, CyclicAttributePropagationReachesFixpoint) {
  // regC updates co; circuit: ri.D = co; regR (UPSTREAM of regC)
  // captures ri. The confidential attribute must flow "against" the scan
  // order through the circuit and back down to the untrusted register —
  // the omnidirectional propagation of Sec. III-D.
  Analysis a;
  for (const char* m : {"conf", "relay", "untrusted"}) a.nl.add_module(m);
  NodeId co = a.nl.add_ff("co", 0);
  NodeId ri = a.nl.add_ff("ri", 1);
  NodeId uf = a.nl.add_ff("uf", 2);
  a.nl.set_ff_input(co, co);
  a.nl.set_ff_input(ri, co);
  a.nl.set_ff_input(uf, uf);

  ElemId reg_r = a.net.add_register("regR", 1, 1);
  ElemId reg_c = a.net.add_register("regC", 1, 0);
  ElemId reg_u = a.net.add_register("regU", 1, 2);
  a.net.connect(a.net.scan_in(), reg_r, 0);
  a.net.connect(reg_r, reg_c, 0);
  a.net.connect(reg_c, reg_u, 0);
  a.net.connect(reg_u, a.net.scan_out(), 0);
  a.net.set_update(reg_c, 0, co);
  a.net.set_capture(reg_r, 0, ri);

  dep::DependencyAnalyzer deps = a.run_deps();
  TokenTable tokens(a.spec, 3);
  HybridAnalyzer hybrid(a.nl, a.net, deps, a.spec, tokens);
  ASSERT_TRUE(hybrid.check_static().clean());
  // Violation: conf token cycles regC -> co -> ri -> regR -> regC -> regU.
  EXPECT_GT(hybrid.count_violating_pairs(a.net), 0u);

  HybridStats stats = hybrid.detect_and_resolve(a.net);
  EXPECT_GE(stats.applied_changes, 1);
  EXPECT_EQ(hybrid.count_violating_pairs(a.net), 0u);
  std::string err;
  EXPECT_TRUE(a.net.validate(&err)) << err;
}

TEST(Hybrid, ResolutionKeepsEveryRegister) {
  Analysis a;
  for (const char* m : {"conf", "relay", "untrusted"}) a.nl.add_module(m);
  NodeId cf = a.nl.add_ff("cf", 0);
  NodeId rf = a.nl.add_ff("rf", 1);
  NodeId uf = a.nl.add_ff("uf", 2);
  a.nl.set_ff_input(cf, cf);
  a.nl.set_ff_input(rf, rf);
  a.nl.set_ff_input(uf, rf);

  ElemId reg_c = a.net.add_register("regC", 2, 0);
  ElemId reg_r = a.net.add_register("regR", 2, 1);
  ElemId reg_u = a.net.add_register("regU", 2, 2);
  a.net.connect(a.net.scan_in(), reg_c, 0);
  a.net.connect(reg_c, reg_r, 0);
  a.net.connect(reg_r, reg_u, 0);
  a.net.connect(reg_u, a.net.scan_out(), 0);
  a.net.set_capture(reg_c, 0, cf);
  a.net.set_update(reg_r, 1, rf);

  dep::DependencyAnalyzer deps = a.run_deps();
  TokenTable tokens(a.spec, 3);
  HybridAnalyzer hybrid(a.nl, a.net, deps, a.spec, tokens);
  ASSERT_TRUE(hybrid.check_static().clean());
  hybrid.detect_and_resolve(a.net);
  EXPECT_EQ(a.net.registers().size(), 3u);
  EXPECT_EQ(hybrid.count_violating_pairs(a.net), 0u);
  std::string err;
  EXPECT_TRUE(a.net.validate(&err)) << err;
}

TEST(Hybrid, NodeNamingAndIndexing) {
  Analysis a;
  a.nl.add_module("conf");
  NodeId cf = a.nl.add_ff("cf", 0);
  a.nl.set_ff_input(cf, cf);
  ElemId reg = a.net.add_register("reg", 2, 0);
  a.net.connect(a.net.scan_in(), reg, 0);
  a.net.connect(reg, a.net.scan_out(), 0);
  a.net.set_capture(reg, 0, cf);

  dep::DependencyAnalyzer deps = a.run_deps();
  SecuritySpec spec(1, 2);
  TokenTable tokens(spec, 1);
  HybridAnalyzer hybrid(a.nl, a.net, deps, spec, tokens);
  EXPECT_EQ(hybrid.num_nodes(), 3u);  // 2 scan FFs + 1 circuit FF
  EXPECT_NE(hybrid.scan_node(reg, 0), hybrid.scan_node(reg, 1));
  EXPECT_NE(hybrid.node_name(hybrid.circuit_node(cf)).find("cf"),
            std::string::npos);
}

}  // namespace
}  // namespace rsnsec::security
