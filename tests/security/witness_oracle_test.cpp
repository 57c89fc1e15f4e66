// Oracle equivalence of the hybrid witness search. The resolution loop
// asks HybridViolationIndex::find_violation for a witness before every
// change; it walks a predecessor index built lazily over the analyzer's
// compact graph. reference::hybrid_find_violation recomputes the witness
// from nested successor lists and per-query predecessor lists instead.
// Before every change the hybrid stage applies, and once after the last,
// both must agree on token, victim, node path and RSN connections:
//   - on every BASTION family at test scale,
//   - on q12710 at scale 0.35, seeds 1-3, as `rsnsec generate` makes it,
//   - on a network without violations (pairs() == 0), where the witness
//     index is never built,
//   - on a network whose only victims are circuit flip-flops
//     (violating_registers() == 0 but pairs() > 0).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/specgen.hpp"
#include "dep/analyzer.hpp"
#include "obs/trace.hpp"
#include "reference/reference.hpp"
#include "security/hybrid.hpp"
#include "security/violation_index.hpp"
#include "util/thread_pool.hpp"

namespace rsnsec::security {
namespace {

using netlist::NodeId;
using rsn::ElemId;
using Witness = std::optional<HybridAnalyzer::Violation>;

struct Workload {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;
  SecuritySpec spec{1, 1};
};

void expect_same_witness(const Witness& got, const Witness& want,
                         const std::string& what) {
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!got) return;
  EXPECT_EQ(got->token, want->token) << what;
  EXPECT_EQ(got->victim_node, want->victim_node) << what;
  EXPECT_EQ(got->node_path, want->node_path) << what;
  EXPECT_EQ(got->rsn_connections, want->rsn_connections) << what;
}

/// The hybrid stage, step by step as the resolution loop runs it (witness,
/// BestGlobal selection over its RSN connections scored by the index,
/// apply, commit), with the index's witness checked against the reference
/// before every change and after the last. It starts from the unresolved
/// network: pure-path violations are hybrid paths without a circuit hop,
/// so skipping the pure stage leaves more witnesses to check. Returns the
/// number of applied changes.
std::size_t check_witnesses(const Workload& w, const std::string& what) {
  dep::DependencyAnalyzer deps(w.circuit, w.doc.network, {});
  deps.run();
  TokenTable tokens(w.spec, w.spec.num_modules());
  HybridAnalyzer hybrid(w.circuit, w.doc.network, deps, w.spec, tokens);
  rsn::Rsn net = w.doc.network;

  HybridViolationIndex index(hybrid, net);
  auto reference_witness = [&] {
    return reference::hybrid_find_violation(w.circuit, w.doc.network, deps,
                                            w.spec, tokens, net);
  };
  if (!hybrid.check_static().clean()) {
    // Statically insecure: the pipeline stops before resolution, but the
    // witness search is defined all the same.
    expect_same_witness(index.find_violation(), reference_witness(),
                        what + " (statically insecure)");
    return 0;
  }

  ThreadPool pool(1);
  TrialWorkspaces workspaces(net, pool.num_threads());
  HybridViolationIndex::Scratch scratch;
  const Rewirer::TrialScorer score =
      [&](const rsn::Rsn& trial, const std::vector<ElemId>& edited,
          std::size_t) { return index.eval_trial(trial, edited, scratch); };
  const std::size_t max_changes = 8 * net.registers().size() + 64;
  for (std::size_t changes = 0;; ++changes) {
    Witness v = index.find_violation();
    expect_same_witness(v, reference_witness(),
                        what + " after " + std::to_string(changes) +
                            " changes");
    if (!v || ::testing::Test::HasFailure()) return changes;
    if (changes == max_changes) {
      ADD_FAILURE() << what << ": hybrid stage did not converge";
      return changes;
    }
    Rewirer::Selection sel = Rewirer::select_cut_parallel(
        workspaces, index.fanout(), v->rsn_connections, score, index.pairs(),
        ResolutionPolicy::BestGlobal, pool);
    net.begin_journal();
    if (sel.found) {
      Rewirer::cut_connection(net, index.fanout(), sel.cut,
                              sel.reconnect_hint);
    } else {
      // The resolution loop's fallback: isolate the register driving the
      // last RSN hop of the path.
      auto hop = std::find_if(
          v->rsn_connections.rbegin(), v->rsn_connections.rend(),
          [&](const Connection& c) {
            return net.elem(c.from).kind == rsn::ElemKind::Register;
          });
      Rewirer::isolate_register_output(
          net, hop != v->rsn_connections.rend() ? hop->from
                                                : v->rsn_connections[0].from);
    }
    const std::vector<ElemId> edited = net.journal_elements();
    net.close_journal();
    index.commit(net, edited);
    workspaces.sync(edited);
  }
}

class WitnessOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WitnessOracle, BastionFamilyMatchesReference) {
  const benchgen::BenchmarkProfile& p =
      benchgen::bastion_profiles()[GetParam()];
  // Small enough for the from-scratch reference (the same caps as the
  // incremental resolution oracle): at most ~24 registers, ~3000 FFs.
  const double scale = std::min(
      {1.0, 24.0 / static_cast<double>(std::max<std::size_t>(p.registers, 1)),
       3000.0 / static_cast<double>(std::max<std::size_t>(p.scan_ffs, 1))});
  // More sensitive and low-trust modules than the generator's defaults,
  // so that most seeds have violations to explain.
  benchgen::SpecOptions sopt;
  sopt.expected_sensitive_modules = 8;
  sopt.low_trust_prob = 0.4;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Workload w;
    Rng rng(0x71e55ULL + 1000 * seed + GetParam());
    w.doc = benchgen::generate_bastion(p, scale, rng);
    benchgen::CircuitOptions copt;
    copt.target_cross_functional = 6;
    copt.target_cross_structural = 6;
    w.circuit = benchgen::attach_random_circuit(w.doc, copt, rng);
    w.spec = benchgen::random_spec(w.doc.module_names.size(), sopt, rng);
    check_witnesses(w, p.name + " seed " + std::to_string(seed));
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, WitnessOracle,
    ::testing::Range<std::size_t>(0, benchgen::bastion_profiles().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return benchgen::bastion_profiles()[info.param].name;
    });

TEST(WitnessOracleSoc, Q12710MatchesReference) {
  // The soc-cold design: 9k scan FFs with millions of closure edges, the
  // graph the compact CSR was built for.
  std::size_t changes = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    // What `rsnsec generate --benchmark q12710 --scale 0.35` builds.
    Workload w;
    Rng rng(seed);
    w.doc = benchgen::generate_bastion(benchgen::bastion_profile("q12710"),
                                       0.35, rng);
    w.circuit = benchgen::attach_random_circuit(w.doc, {}, rng);
    w.spec = benchgen::random_spec(w.doc.module_names.size(), {}, rng);
    changes += check_witnesses(w, "q12710 seed " + std::to_string(seed));
  }
  // The sweep is only meaningful if some witness was actually resolved.
  EXPECT_GT(changes, 0u);
}

/// Modules: 0 = confidential (accepts category 1 only), 1 = relay
/// (permissive), 2 = untrusted (trust category 0).
SecuritySpec three_module_spec() {
  SecuritySpec spec(3, 2);
  spec.set_policy(0, 1, 0b10);
  spec.set_policy(1, 1, 0b11);
  spec.set_policy(2, 0, 0b11);
  return spec;
}

/// A scan chain through regU (untrusted), regC (confidential) and regR
/// (relay); regR updates rf, rf drives the untrusted circuit flip-flop uf,
/// and regU's update keeps uf attached to the network. With `leak`, regC
/// precedes regR, so its data reaches uf over regR's update: uf is the
/// only victim, no register violates. Without it regC comes last and its
/// data only reaches scan-out: no node violates. (Untrusted data may flow
/// into the confidential register either way.)
Workload update_flow(bool leak) {
  Workload w;
  w.spec = three_module_spec();
  for (const char* m : {"conf", "relay", "untrusted"}) w.circuit.add_module(m);
  NodeId rf = w.circuit.add_ff("rf", 1);
  NodeId uf = w.circuit.add_ff("uf", 2);
  w.circuit.set_ff_input(rf, rf);
  w.circuit.set_ff_input(uf, rf);
  rsn::Rsn& net = w.doc.network;
  ElemId reg_u = net.add_register("regU", 1, 2);
  ElemId reg_c = net.add_register("regC", 1, 0);
  ElemId reg_r = net.add_register("regR", 1, 1);
  const ElemId first = leak ? reg_c : reg_r;
  const ElemId last = leak ? reg_r : reg_c;
  net.connect(net.scan_in(), reg_u, 0);
  net.connect(reg_u, first, 0);
  net.connect(first, last, 0);
  net.connect(last, net.scan_out(), 0);
  net.set_update(reg_u, 0, uf);
  net.set_update(reg_r, 0, rf);
  return w;
}

std::uint64_t witness_index_builds(obs::TraceSession& session) {
  return session.counter("hybrid.witness_index_builds").value();
}

TEST(WitnessOracleEdge, NoViolationNeverBuildsTheWitnessIndex) {
  Workload w = update_flow(/*leak=*/false);
  dep::DependencyAnalyzer deps(w.circuit, w.doc.network, {});
  deps.run();
  TokenTable tokens(w.spec, w.spec.num_modules());
  HybridAnalyzer hybrid(w.circuit, w.doc.network, deps, w.spec, tokens);
  ASSERT_TRUE(hybrid.check_static().clean());

  obs::TraceSession session;
  obs::TraceSession::set_active(&session);
  HybridViolationIndex index(hybrid, w.doc.network);
  EXPECT_EQ(index.pairs(), 0u);
  EXPECT_FALSE(index.find_violation().has_value());
  EXPECT_FALSE(index.find_violation().has_value());
  obs::TraceSession::set_active(nullptr);
  EXPECT_EQ(witness_index_builds(session), 0u);
  EXPECT_FALSE(reference::hybrid_find_violation(w.circuit, w.doc.network,
                                                deps, w.spec, tokens,
                                                w.doc.network)
                   .has_value());
}

TEST(WitnessOracleEdge, CircuitFlipFlopVictimWithoutViolatingRegisters) {
  Workload w = update_flow(/*leak=*/true);
  dep::DependencyAnalyzer deps(w.circuit, w.doc.network, {});
  deps.run();
  TokenTable tokens(w.spec, w.spec.num_modules());
  HybridAnalyzer hybrid(w.circuit, w.doc.network, deps, w.spec, tokens);
  ASSERT_TRUE(hybrid.check_static().clean());

  obs::TraceSession session;
  obs::TraceSession::set_active(&session);
  HybridViolationIndex index(hybrid, w.doc.network);
  // No register violates, yet a pair does: skipping the hybrid stage on
  // violating_registers() == 0 would leave this flow in place.
  EXPECT_EQ(index.violating_registers(), 0u);
  EXPECT_GT(index.pairs(), 0u);
  Witness v = index.find_violation();
  Witness again = index.find_violation();
  obs::TraceSession::set_active(nullptr);
  EXPECT_EQ(witness_index_builds(session), 1u);  // built once, then reused

  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(hybrid.node_name(v->victim_node), "ff:uf");
  EXPECT_FALSE(v->rsn_connections.empty());
  expect_same_witness(v, reference::hybrid_find_violation(
                             w.circuit, w.doc.network, deps, w.spec, tokens,
                             w.doc.network),
                      "circuit-FF victim");
  expect_same_witness(again, v, "repeated query");
  EXPECT_EQ(check_witnesses(w, "circuit-FF victim resolution"), 1u);
}

}  // namespace
}  // namespace rsnsec::security
