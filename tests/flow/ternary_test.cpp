// Unit tests of the pair-ternary proof engine, plus the contract that
// makes the dependency analysis' ternary prefilter sound:
// proves_independent is a one-directional oracle. Whenever it returns true, the SAT-complete
// ConeDependenceChecker must agree that the leaf is non-functional; when
// it returns false it carries no information (the query falls through to
// simulation/SAT). The randomized sweep checks the implication on
// thousands of generated cones.

#include "flow/ternary.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "netlist/cone_check.hpp"
#include "util/rng.hpp"

namespace rsnsec::flow {
namespace {

using netlist::Cone;
using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

std::size_t leaf_index(const Cone& cone, NodeId leaf) {
  for (std::size_t i = 0; i < cone.leaves.size(); ++i)
    if (cone.leaves[i] == leaf) return i;
  ADD_FAILURE() << "leaf not found";
  return 0;
}

TEST(PairSetDomain, Constants) {
  EXPECT_TRUE(pair_proves_equal(pair_00));
  EXPECT_TRUE(pair_proves_equal(pair_11));
  EXPECT_TRUE(pair_proves_equal(pair_equal));
  EXPECT_FALSE(pair_proves_equal(pair_diff));
  EXPECT_FALSE(pair_proves_equal(pair_top));
  EXPECT_FALSE(pair_proves_equal(static_cast<PairSet>(pair_equal | pair_diff)));
}

TEST(TernaryEvaluator, DirectWireNotProvable) {
  Netlist nl;
  NodeId a = nl.add_ff("a");
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, a);
  nl.set_ff_input(a, a);
  Cone cone = nl.extract_next_state_cone(t);
  TernaryEvaluator ev(nl);
  EXPECT_FALSE(ev.proves_independent(cone, leaf_index(cone, a)));
}

TEST(TernaryEvaluator, XorSelfCancellationProved) {
  // t.D = XOR(x, x) OR y — the Fig. 5 reconvergence. The parity dedupe
  // cancels the repeated fanin exactly: x is proved non-functional, y is
  // (correctly) not provable.
  Netlist nl;
  NodeId x = nl.add_ff("x");
  NodeId y = nl.add_ff("y");
  NodeId dead = nl.add_gate(GateType::Xor, {x, x});
  NodeId d = nl.add_gate(GateType::Or, {dead, y});
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, d);
  nl.set_ff_input(x, x);
  nl.set_ff_input(y, y);
  Cone cone = nl.extract_next_state_cone(t);
  TernaryEvaluator ev(nl);
  EXPECT_TRUE(ev.proves_independent(cone, leaf_index(cone, x)));
  EXPECT_FALSE(ev.proves_independent(cone, leaf_index(cone, y)));
}

TEST(TernaryEvaluator, MuxWithEqualDataProvesSelect) {
  // t.D = MUX(s, a, a): both data ports on the same node, so the select
  // cannot matter.
  Netlist nl;
  NodeId s = nl.add_ff("s");
  NodeId a = nl.add_ff("a");
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, nl.add_gate(GateType::Mux, {s, a, a}));
  nl.set_ff_input(s, s);
  nl.set_ff_input(a, a);
  Cone cone = nl.extract_next_state_cone(t);
  TernaryEvaluator ev(nl);
  EXPECT_TRUE(ev.proves_independent(cone, leaf_index(cone, s)));
  EXPECT_FALSE(ev.proves_independent(cone, leaf_index(cone, a)));
}

TEST(TernaryEvaluator, ConstantGatedAndProved) {
  // t.D = AND(x, 0): the constant absorbs x.
  Netlist nl;
  NodeId x = nl.add_ff("x");
  NodeId zero = nl.add_const(false);
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, nl.add_gate(GateType::And, {x, zero}));
  nl.set_ff_input(x, x);
  Cone cone = nl.extract_next_state_cone(t);
  TernaryEvaluator ev(nl);
  EXPECT_TRUE(ev.proves_independent(cone, leaf_index(cone, x)));
}

TEST(TernaryEvaluator, InverterChainNotProvable) {
  Netlist nl;
  NodeId x = nl.add_ff("x");
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, nl.add_gate(GateType::Not, {nl.add_gate(GateType::Not, {x})}));
  nl.set_ff_input(x, x);
  Cone cone = nl.extract_next_state_cone(t);
  TernaryEvaluator ev(nl);
  EXPECT_FALSE(ev.proves_independent(cone, leaf_index(cone, x)));
}

TEST(TernaryEvaluator, AndIdempotenceKeepsDependence) {
  // t.D = AND(x, x) is just x: dedupe must not accidentally prove it away.
  Netlist nl;
  NodeId x = nl.add_ff("x");
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, nl.add_gate(GateType::And, {x, x}));
  nl.set_ff_input(x, x);
  Cone cone = nl.extract_next_state_cone(t);
  TernaryEvaluator ev(nl);
  EXPECT_FALSE(ev.proves_independent(cone, leaf_index(cone, x)));
}

TEST(TernaryEvaluator, DistinctGateReconvergenceNotProvedButSound) {
  // t.D = (x AND y) XOR (x' AND y') OR z where the two AND gates are
  // *distinct nodes* computing the same function. The pairwise-
  // independence fold cannot see the correlation, so the proof must fail
  // (the prefilter falls through to SAT) — the one-directional contract:
  // no proof, no claim. SAT still classifies x as only-structural.
  Netlist nl;
  NodeId x = nl.add_ff("x");
  NodeId y = nl.add_ff("y");
  NodeId z = nl.add_ff("z");
  NodeId g1 = nl.add_gate(GateType::And, {x, y});
  NodeId g2 = nl.add_gate(GateType::And, {x, y});
  NodeId dead = nl.add_gate(GateType::Xor, {g1, g2});
  NodeId d = nl.add_gate(GateType::Or, {dead, z});
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, d);
  for (NodeId f : {x, y, z}) nl.set_ff_input(f, f);
  Cone cone = nl.extract_next_state_cone(t);
  TernaryEvaluator ev(nl);
  EXPECT_FALSE(ev.proves_independent(cone, leaf_index(cone, x)));
  netlist::ConeDependenceChecker chk(nl, cone);
  EXPECT_FALSE(chk.depends_on(leaf_index(cone, x)));
}

TEST(TernaryEvaluator, CaseSplitProvesAbsorption) {
  // t.D = OR(AND(x, a), a) == a. The pair domain folds AND(x, a) to
  // "maybe differs" and cannot see the absorption; splitting on a can:
  // with a = 0 the root is 0, with a = 1 it is 1, for either x.
  Netlist nl;
  NodeId x = nl.add_ff("x");
  NodeId a = nl.add_ff("a");
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(
      t, nl.add_gate(GateType::Or, {nl.add_gate(GateType::And, {x, a}), a}));
  nl.set_ff_input(x, x);
  nl.set_ff_input(a, a);
  Cone cone = nl.extract_next_state_cone(t);
  TernaryEvaluator ev(nl);
  EXPECT_FALSE(ev.proves_independent(cone, leaf_index(cone, x)));
  EXPECT_TRUE(ev.proves_independent_by_cases(cone, leaf_index(cone, x), 1));
  EXPECT_FALSE(ev.proves_independent_by_cases(cone, leaf_index(cone, x), 0));
  EXPECT_FALSE(ev.proves_independent_by_cases(cone, leaf_index(cone, a), 1));
  netlist::ConeDependenceChecker chk(nl, cone);
  EXPECT_FALSE(chk.depends_on(leaf_index(cone, x)));
}

TEST(TernaryEvaluator, XorTripleOccurrenceKeepsDependence) {
  // XOR(x, x, x) == x: parity dedupe over three occurrences must leave
  // one live.
  Netlist nl;
  NodeId x = nl.add_ff("x");
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, nl.add_gate(GateType::Xor, {x, x, x}));
  nl.set_ff_input(x, x);
  Cone cone = nl.extract_next_state_cone(t);
  TernaryEvaluator ev(nl);
  EXPECT_FALSE(ev.proves_independent(cone, leaf_index(cone, x)));
}

TEST(TernaryEvaluator, NorWithCancelledXorProved) {
  // t.D = NOR(XOR(x, x), y): the negated gate family must propagate the
  // cancellation too.
  Netlist nl;
  NodeId x = nl.add_ff("x");
  NodeId y = nl.add_ff("y");
  NodeId t = nl.add_ff("t");
  NodeId dead = nl.add_gate(GateType::Xor, {x, x});
  nl.set_ff_input(t, nl.add_gate(GateType::Nor, {dead, y}));
  nl.set_ff_input(x, x);
  nl.set_ff_input(y, y);
  Cone cone = nl.extract_next_state_cone(t);
  TernaryEvaluator ev(nl);
  EXPECT_TRUE(ev.proves_independent(cone, leaf_index(cone, x)));
  EXPECT_FALSE(ev.proves_independent(cone, leaf_index(cone, y)));
}

// ---------------------------------------------------------------------
// Randomized soundness sweep: on generated cones, every proof the
// evaluator produces must be confirmed by the SAT-complete checker. The
// generator biases toward repeated fanins and constants so the dedupe
// and absorption paths (where proofs actually fire) are exercised; the
// test also requires that the sweep produced a non-trivial number of
// proofs, so the implication is not vacuously true.
// ---------------------------------------------------------------------

struct RandomCone {
  Netlist nl;
  Cone cone;
};

RandomCone make_random_cone(Rng& rng) {
  RandomCone rc;
  Netlist& nl = rc.nl;
  std::vector<NodeId> pool;
  std::size_t n_leaves = rng.range(2, 5);
  for (std::size_t i = 0; i < n_leaves; ++i) {
    NodeId f = nl.add_ff("l" + std::to_string(i));
    nl.set_ff_input(f, f);
    pool.push_back(f);
  }
  if (rng.chance(0.3)) pool.push_back(nl.add_const(rng.chance(0.5)));

  std::size_t n_gates = rng.range(3, 12);
  for (std::size_t g = 0; g < n_gates; ++g) {
    static constexpr GateType kTypes[] = {
        GateType::Buf, GateType::Not,  GateType::And,
        GateType::Nand, GateType::Or,  GateType::Nor,
        GateType::Xor, GateType::Xnor, GateType::Mux};
    GateType type = kTypes[rng.below(9)];
    std::size_t arity = type == GateType::Mux                            ? 3
                        : (type == GateType::Buf || type == GateType::Not)
                            ? 1
                            : rng.range(2, 4);
    std::vector<NodeId> fanins;
    for (std::size_t a = 0; a < arity; ++a) {
      // Re-pick a previous fanin often, to provoke XOR cancellation,
      // AND/OR idempotence and MUX equal-data situations.
      if (!fanins.empty() && rng.chance(0.35))
        fanins.push_back(fanins[rng.below(static_cast<std::uint32_t>(
            fanins.size()))]);
      else
        fanins.push_back(
            pool[rng.below(static_cast<std::uint32_t>(pool.size()))]);
    }
    pool.push_back(nl.add_gate(type, fanins));
  }
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, pool.back());
  rc.cone = nl.extract_next_state_cone(t);
  return rc;
}

TEST(TernaryEvaluator, ProofImpliesSatUnsatOnRandomCones) {
  Rng rng(20260808);
  std::size_t proved = 0, queried = 0;
  for (int iter = 0; iter < 400; ++iter) {
    RandomCone rc = make_random_cone(rng);
    TernaryEvaluator ev(rc.nl);
    netlist::ConeDependenceChecker chk(rc.nl, rc.cone);
    for (std::size_t i = 0; i < rc.cone.leaves.size(); ++i) {
      ++queried;
      if (!ev.proves_independent(rc.cone, i)) continue;
      ++proved;
      EXPECT_FALSE(chk.depends_on(i))
          << "ternary proof contradicted by SAT on cone " << iter
          << ", leaf " << i;
    }
  }
  // The sweep must exercise the proof path, not just the fall-through.
  EXPECT_GT(proved, 50u);
  EXPECT_GT(queried, proved);
}

TEST(TernaryEvaluator, CaseSplitIsExactOnSmallCones) {
  // With every other leaf fixed, the tested leaf is the only free input,
  // so each signal holds exactly one pair and the evaluation is exact:
  // on cones within the split bound (these have at most 5 leaves), the
  // case-split answer for a flip-flop leaf must equal the SAT-complete
  // checker's, in both directions.
  Rng rng(20261018);
  std::size_t independent = 0;
  for (int iter = 0; iter < 400; ++iter) {
    RandomCone rc = make_random_cone(rng);
    TernaryEvaluator ev(rc.nl);
    netlist::ConeDependenceChecker chk(rc.nl, rc.cone);
    for (std::size_t i = 0; i < rc.cone.leaves.size(); ++i) {
      // Constant leaves cannot vary; the analyses only query FF leaves.
      if (!rc.nl.is_ff(rc.cone.leaves[i])) continue;
      const bool proved = ev.proves_independent_by_cases(rc.cone, i, 4);
      EXPECT_EQ(proved, !chk.depends_on(i))
          << "cone " << iter << ", leaf " << i;
      independent += proved;
    }
  }
  EXPECT_GT(independent, 50u);
}

}  // namespace
}  // namespace rsnsec::flow
