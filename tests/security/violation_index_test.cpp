// Randomized delta-vs-rebuild property tests of the violation indexes:
// starting from a generated workload, apply random journaled
// cut_connection edits and check after every step that
//   - eval_trial on an uncommitted trial equals a from-scratch
//     count_violating_pairs of that trial,
//   - after commit, pairs() equals the from-scratch count and
//     find_violation returns exactly the analyzer's witness.
// The random walk exercises repair paths the resolution loop rarely
// takes (arbitrary cuts, repeated commits against an aging index).

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/specgen.hpp"
#include "dep/analyzer.hpp"
#include "security/hybrid.hpp"
#include "security/pure.hpp"
#include "security/violation_index.hpp"

namespace rsnsec::security {
namespace {

struct Workload {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;
  SecuritySpec spec{1, 1};
};

Workload make_workload(std::uint64_t seed) {
  Workload w;
  Rng rng(seed);
  benchgen::BenchmarkProfile p = benchgen::bastion_profile("Mingle");
  w.doc = benchgen::generate_bastion(p, 0.3, rng);
  benchgen::CircuitOptions copt;
  copt.target_cross_functional = 8;
  copt.target_cross_structural = 8;
  w.circuit = benchgen::attach_random_circuit(w.doc, copt, rng);
  benchgen::SpecOptions sopt;
  sopt.expected_sensitive_modules = 4;
  w.spec = benchgen::random_spec(w.doc.module_names.size(), sopt, rng);
  return w;
}

void expect_same_violation(
    const std::optional<HybridAnalyzer::Violation>& a,
    const std::optional<HybridAnalyzer::Violation>& b, int step) {
  ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
  if (!a) return;
  EXPECT_EQ(a->token, b->token) << "step " << step;
  EXPECT_EQ(a->victim_node, b->victim_node) << "step " << step;
  EXPECT_EQ(a->node_path, b->node_path) << "step " << step;
  EXPECT_EQ(a->rsn_connections, b->rsn_connections) << "step " << step;
}

/// Applies the cut to the committed network under a journal, as the
/// resolution loop does, and folds it into the index and the workspace.
template <typename Index>
void commit_cut(rsn::Rsn& net, rsn::Rsn& work, Index& index,
                const Connection& c, rsn::ElemId hint) {
  net.begin_journal();
  Rewirer::cut_connection(net, index.fanout(), c, hint);
  const std::vector<rsn::ElemId> edited = net.journal_elements();
  net.close_journal();
  index.commit(net, edited);
  work.sync_from(net, edited);
}

class IndexFuzz : public ::testing::TestWithParam<int> {};

TEST_P(IndexFuzz, HybridDeltaMatchesRebuild) {
  Workload w = make_workload(0xabc0ULL + GetParam());
  TokenTable tokens(w.spec, w.spec.num_modules());
  dep::DependencyAnalyzer deps(w.circuit, w.doc.network, {});
  deps.run();
  HybridAnalyzer hybrid(w.circuit, w.doc.network, deps, w.spec, tokens);

  rsn::Rsn net = w.doc.network;
  HybridViolationIndex index(hybrid, net);
  ASSERT_EQ(index.pairs(), hybrid.count_violating_pairs(net));
  ASSERT_EQ(index.violating_registers(),
            hybrid.count_violating_registers(net));

  HybridViolationIndex::Scratch scratch;
  rsn::Rsn work = net;
  Rng rng(0x77700ULL + GetParam());
  for (int step = 0; step < 10; ++step) {
    std::vector<Connection> conns = Rewirer::all_connections(net);
    if (conns.empty()) break;
    // Evaluate several uncommitted trials against the same committed
    // state on a journaled workspace (as the candidate loop does), then
    // commit the last one.
    Connection chosen;
    rsn::ElemId chosen_hint = rsn::no_elem;
    for (int t = 0; t < 3; ++t) {
      const Connection& c = rng.pick(conns);
      rsn::ElemId hint = rng.chance(0.5) ? net.scan_in() : rsn::no_elem;
      work.begin_journal();
      Rewirer::cut_connection(work, index.fanout(), c, hint);
      ASSERT_EQ(index.eval_trial(work, work.journal_elements(), scratch),
                hybrid.count_violating_pairs(work))
          << "step " << step << " trial " << t;
      work.rollback_journal();
      chosen = c;
      chosen_hint = hint;
    }
    commit_cut(net, work, index, chosen, chosen_hint);
    ASSERT_EQ(index.pairs(), hybrid.count_violating_pairs(net))
        << "step " << step;
    ASSERT_EQ(index.violating_registers(),
              hybrid.count_violating_registers(net))
        << "step " << step;
    expect_same_violation(index.find_violation(), hybrid.find_violation(net),
                          step);
  }
}

TEST_P(IndexFuzz, PureDeltaMatchesRebuild) {
  Workload w = make_workload(0xdef0ULL + GetParam());
  TokenTable tokens(w.spec, w.spec.num_modules());
  PureScanAnalyzer pure(w.spec, tokens);

  rsn::Rsn net = w.doc.network;
  PureViolationIndex index(pure, net);
  ASSERT_EQ(index.pairs(), pure.count_violating_pairs(net));
  ASSERT_EQ(index.violating_registers(),
            pure.count_violating_registers(net));

  PureViolationIndex::Scratch scratch;
  rsn::Rsn work = net;
  Rng rng(0x12345ULL + GetParam());
  for (int step = 0; step < 10; ++step) {
    std::vector<Connection> conns = Rewirer::all_connections(net);
    if (conns.empty()) break;
    Connection chosen;
    rsn::ElemId chosen_hint = rsn::no_elem;
    for (int t = 0; t < 3; ++t) {
      const Connection& c = rng.pick(conns);
      rsn::ElemId hint = rng.chance(0.5) ? net.scan_in() : rsn::no_elem;
      work.begin_journal();
      Rewirer::cut_connection(work, index.fanout(), c, hint);
      ASSERT_EQ(index.eval_trial(work, work.journal_elements(), scratch),
                pure.count_violating_pairs(work))
          << "step " << step << " trial " << t;
      work.rollback_journal();
      chosen = c;
      chosen_hint = hint;
    }
    commit_cut(net, work, index, chosen, chosen_hint);
    ASSERT_EQ(index.pairs(), pure.count_violating_pairs(net))
        << "step " << step;
    ASSERT_EQ(index.violating_registers(),
              pure.count_violating_registers(net))
        << "step " << step;

    std::optional<PureViolation> a = index.find_violation();
    std::optional<PureViolation> b = pure.find_violation(net);
    ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
    if (a) {
      EXPECT_EQ(a->origin, b->origin) << "step " << step;
      EXPECT_EQ(a->victim, b->victim) << "step " << step;
      EXPECT_EQ(a->token, b->token) << "step " << step;
      EXPECT_EQ(a->path, b->path) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, IndexFuzz, ::testing::Range(0, 8));

}  // namespace
}  // namespace rsnsec::security
