#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace rsnsec::flow {

/// Abstract value of the pair-ternary domain: a set of (v0, v1) value
/// pairs, where v0 is a signal's value in an evaluation with the leaf
/// under test at 0 and v1 its value in the *same* evaluation with only
/// that leaf flipped to 1. The set is encoded as a 4-bit mask with bit
/// (v0*2 + v1) marking pair (v0, v1) as possible.
///
/// This is the classic 0/1/X constant propagation refined to track the
/// two evaluations jointly: a plain ternary domain would assign X to the
/// leaf under test and lose it immediately, while the pair encoding keeps
/// "differs between the evaluations" (the D of D-calculus) as the exact
/// pair {(0,1)} and can cancel it through reconvergences — XOR(x, x)
/// evaluates to {(0,0)}, MUX(x, a, a) to the value set of a.
using PairSet = std::uint8_t;

constexpr PairSet pair_00 = 0b0001;  ///< {(0,0)}: constant 0
constexpr PairSet pair_11 = 0b1000;  ///< {(1,1)}: constant 1
/// Unknown but identical in both evaluations (every leaf that is not the
/// one under test: its value is free, but it does not change when the
/// tested leaf flips).
constexpr PairSet pair_equal = pair_00 | pair_11;
/// The leaf under test itself: 0 in the base evaluation, 1 in the
/// flipped one.
constexpr PairSet pair_diff = 0b0010;
/// No information (any pair possible).
constexpr PairSet pair_top = 0b1111;

/// True if `v` proves the signal never differs between the two
/// evaluations (v contains only equal pairs).
constexpr bool pair_proves_equal(PairSet v) {
  return (v & ~pair_equal) == 0;
}

/// SAT-free proof engine for "the cone root does not functionally depend
/// on one of its leaves", by abstract interpretation of the cone under
/// the pair-ternary domain (one forward evaluation per queried leaf,
/// linear in the cone size).
///
/// Soundness: every gate transfer function computes a superset of the
/// concretely reachable pairs — n-ary gates fold pairwise under an
/// independence assumption (a superset of the correlated truth), repeated
/// identical fanins are deduplicated exactly (AND/OR idempotence, XOR
/// parity cancellation, MUX with both data inputs on the same node), and
/// MUX enumerates the full product of its three fanin sets. If the root's
/// set contains only equal pairs, *no* assignment of the other leaves
/// lets the tested leaf's value propagate — exactly what an UNSAT answer
/// of netlist::ConeDependenceChecker certifies — so a proof here can
/// replace a SAT query without changing any result (the dependency
/// analysis runs it as a prefilter in DepMode::Exact).
/// Failure to prove carries no information: the query falls through to
/// simulation/SAT.
class TernaryEvaluator {
 public:
  explicit TernaryEvaluator(const netlist::Netlist& nl);

  /// True if the pair-ternary evaluation proves that the value of
  /// `cone.root` is independent of `cone.leaves[leaf_idx]` (a
  /// provably-non-functional, "only structural" connection).
  bool proves_independent(const netlist::Cone& cone, std::size_t leaf_idx);

  /// proves_independent, plus a case split when that single evaluation
  /// fails and the cone has at most `max_split` other non-constant
  /// leaves: one evaluation per assignment of those leaves, each fixed to
  /// a constant pair. Independence holds iff it holds under every
  /// assignment, so for such cones the answer is exact — it also sees
  /// through reconvergences the pair domain folds away, like absorption
  /// OR(AND(x, a), a) = a. At most 2^max_split extra evaluations.
  bool proves_independent_by_cases(const netlist::Cone& cone,
                                   std::size_t leaf_idx,
                                   std::size_t max_split);

 private:
  PairSet eval_gate(netlist::NodeId gate);

  const netlist::Netlist& nl_;
  std::vector<PairSet> val_;             // NodeId -> abstract value
  std::vector<netlist::NodeId> dedup_;   // per-gate distinct-fanin scratch
  std::vector<netlist::NodeId> split_;   // case-split leaves
};

}  // namespace rsnsec::flow
