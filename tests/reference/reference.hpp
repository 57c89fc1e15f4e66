#pragma once

// Test-side reference implementations ("oracles") of the production
// pipeline phases, built only from public kernels. Each reference is the
// simplest correct way to compute a phase's result — no caching, no
// incremental state, no parallelism, no tiling — so the production
// engine's fast paths are checked against it rather than against a
// switchable copy of themselves.
//
//  - Dependency analysis: every flip-flop leaf of every next-state and
//    capture cone is classified by a fresh ConeDependenceChecker per
//    query; internal flip-flops are bridged and the relation closed with
//    the dense DepMatrix kernels.
//  - Rewiring: the Sec. III-D repair rules as first written — a network
//    copy per trial, a whole-network is_acyclic() after every tentative
//    connection, and Rsn::reachable_from / Rsn::fanouts for the pre-cut
//    successor queries — independent of the journaled, fanout-indexed
//    production Rewirer.
//  - Resolution: the pure and hybrid detect-and-resolve loops recompute
//    find_violation / count_violating_pairs from scratch every iteration
//    and select cuts with a sequential trial loop over the reference
//    rewiring.
//  - Hybrid witness search: the propagation graph as nested successor
//    vectors and a fresh predecessor list per query, the form the
//    violation index's compact graph and lazy predecessor index replaced.
//  - Verilog reading: the multi-pass reader that retried every
//    unresolved gate per pass, kept to check the single-pass reader's
//    node order, nets and errors.

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "dep/analyzer.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "rsn/rsn.hpp"
#include "security/hybrid.hpp"
#include "security/pure.hpp"
#include "security/rewire.hpp"
#include "util/dep_matrix.hpp"

namespace rsnsec::reference {

// ----------------------------------------------------- dependency analysis

/// Result of the reference dependency analysis. Indices are the
/// analyzer's dense circuit-FF indices (position in Netlist::ffs()).
struct DepResult {
  std::vector<bool> internal;
  DepMatrix one_cycle;
  DepMatrix closure;
  /// Capture dependencies per register (in Rsn::registers() order) and
  /// scan FF, sorted by circuit FF node id.
  std::vector<std::vector<std::vector<dep::CaptureDep>>> capture_deps;
};

/// Reference dependency analysis of `nl` under `network` with the
/// result-relevant fields of `options` (mode, bridge_internal,
/// sat_conflict_limit, max_cycles).
DepResult analyze(const netlist::Netlist& nl, const rsn::Rsn& network,
                  const dep::DepOptions& options = {});

/// gtest expectations: `a` (after run() or restore()) holds exactly the
/// reference result — one-cycle and closure matrices (via to_dense()),
/// internal flags, capture dependencies (as sets) and the counters that
/// are pure functions of the matrices.
void expect_matches(const dep::DependencyAnalyzer& a, const DepResult& ref,
                    const rsn::Rsn& network, const std::string& label);

// ---------------------------------------------------------------- rewiring

/// Reference Rewirer::cut_connection: same repair rules and results, each
/// tentative connection checked with Rsn::is_acyclic() on the whole
/// network, pre-cut successors from Rsn::reachable_from.
int cut_connection(rsn::Rsn& network, const security::Connection& c,
                   rsn::ElemId reconnect_hint = rsn::no_elem);

/// Reference Rewirer::cut_is_hint_insensitive (Rsn::fanouts-based).
bool cut_is_hint_insensitive(const rsn::Rsn& network,
                             const security::Connection& c);

/// Reference Rewirer::isolate_register_output.
int isolate_register_output(rsn::Rsn& network, rsn::ElemId reg);

// -------------------------------------------------------------- resolution

/// Sequential trial loop over every (cut, reconnect) candidate in nested
/// (candidate, hint) order: each trial cuts a fresh copy of `network`
/// with the reference cut_connection and counts its violating pairs from
/// scratch with `count_pairs`. Same policy semantics as
/// Rewirer::select_cut_parallel.
security::Rewirer::Selection select_cut(
    const rsn::Rsn& network,
    const std::vector<security::Connection>& candidates,
    const std::function<std::size_t(const rsn::Rsn&)>& count_pairs,
    std::size_t current_pairs, security::ResolutionPolicy policy);

/// From-scratch pure-path detect-and-resolve loop.
security::ResolveStats resolve_pure(
    const security::PureScanAnalyzer& analyzer, rsn::Rsn& network,
    std::vector<security::AppliedChange>* log,
    security::ResolutionPolicy policy);

/// From-scratch hybrid-path detect-and-resolve loop.
security::ResolveStats resolve_hybrid(
    const security::HybridAnalyzer& analyzer, rsn::Rsn& network,
    std::vector<security::AppliedChange>* log,
    security::ResolutionPolicy policy);

/// Reference HybridViolationIndex::find_violation for `network`, with
/// the HybridAnalyzer's node numbering over `layout` (the network the
/// analyzer was built from): a from-scratch propagation over nested
/// static, closure and inter-segment successor lists, then per-query
/// predecessor lists (sources ascending, static before closure, then the
/// inter-segment edges in chain order) for a backward BFS from the first
/// violating node to a seed of its first bad token.
std::optional<security::HybridAnalyzer::Violation> hybrid_find_violation(
    const netlist::Netlist& nl, const rsn::Rsn& layout,
    const dep::DependencyAnalyzer& deps, const security::SecuritySpec& spec,
    const security::TokenTable& tokens, const rsn::Rsn& network);

// ---------------------------------------------------------- Verilog reading

/// Reference netlist::verilog::parse: the whole file lexed into a vector
/// of std::string tokens, nets in a std::map, and gates created by
/// repeated passes over the unresolved ones, in file order within a
/// pass. Checking whether a gate is ready creates a node for each
/// constant literal it reads up to its first undriven net, so a gate
/// deferred to a later pass leaves unused constant nodes behind; it also
/// loops forever on some truncated files (a header or gate argument list
/// cut off at end of file), and its lexer does not count newlines inside
/// string literals, so on such files its error lines are too low. Compare
/// on complete files without constant literals or multi-line strings.
netlist::verilog::ParsedCircuit parse_verilog(std::istream& is);

}  // namespace rsnsec::reference
