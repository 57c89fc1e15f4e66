#include "reference/reference.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "netlist/cone_check.hpp"

namespace rsnsec::reference {

using netlist::Cone;
using netlist::NodeId;
using rsn::ElemId;
using rsn::ElemKind;
using rsn::Rsn;
using security::AppliedChange;
using security::Connection;
using security::ResolutionPolicy;
using security::ResolveStats;
using security::Rewirer;

namespace {

bool capture_less(const dep::CaptureDep& a, const dep::CaptureDep& b) {
  return a.circuit_ff < b.circuit_ff;
}

bool capture_equal(const std::vector<dep::CaptureDep>& a,
                   const std::vector<dep::CaptureDep>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const dep::CaptureDep& x, const dep::CaptureDep& y) {
                      return x.circuit_ff == y.circuit_ff && x.kind == y.kind;
                    });
}

/// Classification of cone.leaves[i] for every flip-flop leaf i, in leaf
/// order: a fresh ConeDependenceChecker per query (Sat and Unknown are
/// Path, Unsat is Structural); in DepMode::StructuralOnly every
/// flip-flop leaf is Path.
std::vector<std::pair<std::size_t, DepKind>> classify_cone(
    const netlist::Netlist& nl, const Cone& cone,
    const dep::DepOptions& options) {
  std::vector<std::pair<std::size_t, DepKind>> out;
  for (std::size_t i = 0; i < cone.leaves.size(); ++i) {
    if (!nl.is_ff(cone.leaves[i])) continue;
    if (options.mode == dep::DepMode::StructuralOnly) {
      out.emplace_back(i, DepKind::Path);
      continue;
    }
    netlist::ConeDependenceChecker checker(nl, cone,
                                           options.sat_conflict_limit);
    out.emplace_back(i, checker.query(i) == sat::Result::Unsat
                            ? DepKind::Structural
                            : DepKind::Path);
  }
  return out;
}

}  // namespace

DepResult analyze(const netlist::Netlist& nl, const Rsn& network,
                  const dep::DepOptions& options) {
  DepResult r;
  const std::vector<NodeId>& ffs = nl.ffs();
  const std::size_t n = ffs.size();
  std::vector<std::size_t> index(nl.num_nodes(), 0);
  for (std::size_t i = 0; i < n; ++i) index[ffs[i]] = i;

  // One-cycle relation: entry (i, j) is FF j's dependency on FF i.
  r.one_cycle = DepMatrix(n);
  for (std::size_t j = 0; j < n; ++j) {
    Cone cone = nl.extract_next_state_cone(ffs[j]);
    for (auto [leaf, kind] : classify_cone(nl, cone, options))
      r.one_cycle.upgrade(index[cone.leaves[leaf]], j, kind);
  }

  // Capture dependencies, and the flip-flops directly connected to the
  // RSN (update targets and capture-cone leaves); all others are
  // internal.
  std::vector<bool> connected(nl.num_nodes(), false);
  for (ElemId reg : network.registers()) {
    const rsn::Element& e = network.elem(reg);
    std::vector<std::vector<dep::CaptureDep>>& deps =
        r.capture_deps.emplace_back(e.ffs.size());
    for (std::size_t f = 0; f < e.ffs.size(); ++f) {
      const rsn::ScanFF& sf = e.ffs[f];
      if (sf.update_dst != netlist::no_node) connected[sf.update_dst] = true;
      if (sf.capture_src == netlist::no_node) continue;
      Cone cone = nl.extract_signal_cone(sf.capture_src);
      for (NodeId leaf : cone.leaves)
        if (nl.is_ff(leaf)) connected[leaf] = true;
      for (auto [leaf, kind] : classify_cone(nl, cone, options))
        deps[f].push_back({cone.leaves[leaf], kind});
      std::sort(deps[f].begin(), deps[f].end(), capture_less);
    }
  }
  r.internal.resize(n);
  for (std::size_t i = 0; i < n; ++i) r.internal[i] = !connected[ffs[i]];

  // Bridging (Sec. III-A.2), then the multi-cycle closure.
  r.closure = r.one_cycle;
  if (options.bridge_internal) {
    for (std::size_t v = 0; v < n; ++v)
      if (r.internal[v]) r.closure.eliminate(v);
  }
  if (options.max_cycles > 0) {
    r.closure.bounded_closure(options.max_cycles);
  } else {
    std::vector<bool> active(n);
    for (std::size_t i = 0; i < n; ++i)
      active[i] = !options.bridge_internal || !r.internal[i];
    r.closure.transitive_closure(&active);
  }
  return r;
}

void expect_matches(const dep::DependencyAnalyzer& a, const DepResult& ref,
                    const Rsn& network, const std::string& label) {
  const std::size_t n = ref.internal.size();
  ASSERT_EQ(a.num_circuit_ffs(), n) << label;
  EXPECT_TRUE(a.one_cycle().to_dense() == ref.one_cycle)
      << label << ": one-cycle matrices differ";
  EXPECT_TRUE(a.circuit_closure().to_dense() == ref.closure)
      << label << ": closure matrices differ";
  std::size_t internal_ffs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(a.is_internal(i), ref.internal[i]) << label << " ff " << i;
    internal_ffs += ref.internal[i] ? 1 : 0;
    std::vector<std::size_t> want;
    for (std::size_t j : ref.closure.successors(i))
      if (ref.closure.get(i, j) == DepKind::Path) want.push_back(j);
    EXPECT_EQ(a.closure_path_successors(i), want) << label << " row " << i;
  }
  std::size_t slot = 0;
  for (ElemId reg : network.registers()) {
    const rsn::Element& e = network.elem(reg);
    for (std::size_t f = 0; f < e.ffs.size(); ++f) {
      std::vector<dep::CaptureDep> got = a.capture_deps(reg, f);
      std::sort(got.begin(), got.end(), capture_less);
      EXPECT_TRUE(capture_equal(got, ref.capture_deps[slot][f]))
          << label << " register " << reg << " ff " << f;
    }
    ++slot;
  }
  const dep::DepStats& s = a.stats();
  EXPECT_EQ(s.circuit_ffs, n) << label;
  EXPECT_EQ(s.internal_ffs, internal_ffs) << label;
  EXPECT_EQ(s.deps_before_bridging, ref.one_cycle.count_nonzero()) << label;
  EXPECT_EQ(s.closure_deps, ref.closure.count_nonzero()) << label;
  EXPECT_EQ(s.closure_path_deps, ref.closure.count_path()) << label;
}

namespace {

int repair_dangling_input(Rsn& network, ElemId to, std::size_t port,
                          const std::vector<ElemId>& pre_preds, ElemId avoid,
                          ElemId hint) {
  if (hint != rsn::no_elem && hint != avoid && hint != to &&
      network.elem(hint).kind != ElemKind::ScanOut) {
    network.connect(hint, to, port);
    if (network.is_acyclic()) return 1;
    network.disconnect(to, port);
  }
  for (ElemId cand : pre_preds) {
    if (cand == avoid || cand == to) continue;
    if (network.elem(cand).kind == ElemKind::ScanOut) continue;
    network.connect(cand, to, port);
    if (network.is_acyclic()) return 1;
    network.disconnect(to, port);
  }
  network.connect(network.scan_in(), to, port);
  return 1;
}

int attach_to_scan_out_avoiding(Rsn& network, ElemId from, ElemId avoid) {
  ElemId driver = network.elem(network.scan_out()).inputs[0];
  if (driver == avoid && driver != rsn::no_elem) {
    ElemId m = network.add_mux(
        "collect_mux_" + std::to_string(network.num_elements()), 2);
    network.connect(driver, m, 0);
    network.connect(from, m, 1);
    network.connect(m, network.scan_out(), 0);
    return 2;
  }
  ElemId created = network.attach_to_scan_out(from);
  return created == rsn::no_elem ? 1 : 2;
}

int repair_lost_fanout(Rsn& network, ElemId from,
                       const std::vector<ElemId>& pre_succs, ElemId avoid) {
  for (ElemId cand : pre_succs) {
    if (cand == avoid || cand == from) continue;
    const rsn::Element& e = network.elem(cand);
    if (e.kind == ElemKind::Mux) {
      network.add_mux_input(cand, from);
      if (network.is_acyclic()) return 1;
      network.remove_mux_input(cand, network.elem(cand).inputs.size() - 1);
      continue;
    }
    if (e.kind == ElemKind::Register) {
      ElemId old_driver = e.inputs[0];
      if (old_driver == rsn::no_elem) {
        network.connect(from, cand, 0);
        if (network.is_acyclic()) return 1;
        network.disconnect(cand, 0);
        continue;
      }
      ElemId m = network.add_mux(
          "repair_mux_" + std::to_string(network.num_elements()), 2);
      network.connect(old_driver, m, 0);
      network.connect(from, m, 1);
      network.connect(m, cand, 0);
      if (network.is_acyclic()) return 2;
      // Roll back; the fresh mux stays allocated but unconnected.
      network.disconnect(m, 0);
      network.disconnect(m, 1);
      network.connect(old_driver, cand, 0);
    }
  }
  return attach_to_scan_out_avoiding(network, from, avoid);
}

}  // namespace

bool cut_is_hint_insensitive(const Rsn& network, const Connection& c) {
  const rsn::Element& to_elem = network.elem(c.to);
  if (to_elem.kind != ElemKind::Mux || to_elem.inputs.size() <= 1)
    return false;
  return !(network.elem(c.from).kind != ElemKind::ScanIn &&
           network.fanouts(c.from).size() == 1);
}

int cut_connection(Rsn& network, const Connection& c, ElemId reconnect_hint) {
  if (network.elem(c.to).inputs.at(c.port) != c.from)
    throw std::logic_error("reference cut of a missing connection");
  int ops = 1;
  const rsn::Element& to_elem = network.elem(c.to);
  const bool mux_shrink =
      to_elem.kind == ElemKind::Mux && to_elem.inputs.size() > 1;
  const bool loses_fanout = network.elem(c.from).kind != ElemKind::ScanIn &&
                            network.fanouts(c.from).size() == 1;
  std::vector<ElemId> pre_preds, pre_succs;
  if (!mux_shrink) pre_preds = network.reaching(c.to);
  if (loses_fanout) pre_succs = network.reachable_from(c.from);
  if (mux_shrink) {
    network.remove_mux_input(c.to, c.port);
  } else {
    network.disconnect(c.to, c.port);
    ops += repair_dangling_input(network, c.to, c.port, pre_preds, c.from,
                                 reconnect_hint);
  }
  if (loses_fanout) ops += repair_lost_fanout(network, c.from, pre_succs, c.to);
  return ops;
}

int isolate_register_output(Rsn& network, ElemId reg) {
  int ops = 0;
  for (;;) {
    auto fo = network.fanouts(reg);
    if (fo.empty()) break;
    auto [to, port] = fo.front();
    const rsn::Element& te = network.elem(to);
    ++ops;
    if (te.kind == ElemKind::Mux && te.inputs.size() > 1) {
      network.remove_mux_input(to, port);
    } else {
      std::vector<ElemId> pre_preds = network.reaching(to);
      network.disconnect(to, port);
      ops += repair_dangling_input(network, to, port, pre_preds, reg,
                                   rsn::no_elem);
    }
  }
  network.attach_to_scan_out(reg);
  ++ops;
  return ops;
}

Rewirer::Selection select_cut(
    const Rsn& network, const std::vector<Connection>& candidates,
    const std::function<std::size_t(const Rsn&)>& count_pairs,
    std::size_t current_pairs, ResolutionPolicy policy) {
  Rewirer::Selection best;
  for (const Connection& c : candidates) {
    std::vector<ElemId> hints{rsn::no_elem, network.scan_in()};
    if (policy == ResolutionPolicy::PreferScanIn)
      std::swap(hints[0], hints[1]);
    if (cut_is_hint_insensitive(network, c)) hints.resize(1);
    for (ElemId hint : hints) {
      Rsn trial = network;
      int ops = cut_connection(trial, c, hint);
      std::size_t pairs = count_pairs(trial);
      if (pairs >= current_pairs) continue;
      if (policy != ResolutionPolicy::BestGlobal)
        return {true, c, hint, pairs, ops};
      if (!best.found || pairs < best.residual_pairs ||
          (pairs == best.residual_pairs && ops < best.operations)) {
        best = {true, c, hint, pairs, ops};
      }
    }
  }
  return best;
}

namespace {

/// The from-scratch loop both stages share: per iteration one fresh
/// find_violation, a sequential select_cut over the stage's candidates,
/// and either the selected cut or the stage's isolation fallback.
template <typename Analyzer, typename CandidatesFn, typename IsolationFn>
ResolveStats resolve_from_scratch(const std::string& stage,
                                  const Analyzer& analyzer, Rsn& network,
                                  std::vector<AppliedChange>* log,
                                  ResolutionPolicy policy,
                                  CandidatesFn candidates,
                                  IsolationFn isolation_target) {
  auto count = [&analyzer](const Rsn& n) {
    return analyzer.count_violating_pairs(n);
  };
  ResolveStats stats;
  stats.initial_violating_registers =
      analyzer.count_violating_registers(network);
  stats.initial_violating_pairs = count(network);
  std::size_t cur_pairs = stats.initial_violating_pairs;
  const std::size_t max_iters = 8 * network.registers().size() + 64;
  for (std::size_t iter = 0;; ++iter) {
    auto v = analyzer.find_violation(network);
    if (!v) break;
    if (iter >= max_iters)
      throw std::runtime_error(stage + " reference did not converge");
    Rewirer::Selection sel = select_cut(network, candidates(*v, network),
                                        count, cur_pairs, policy);
    AppliedChange change;
    if (sel.found) {
      change.kind = AppliedChange::Kind::CutConnection;
      change.cut = sel.cut;
      change.rewire_operations =
          cut_connection(network, sel.cut, sel.reconnect_hint);
      change.note = stage + ": cut " + network.elem(sel.cut.from).name +
                    " -> " + network.elem(sel.cut.to).name;
      cur_pairs = sel.residual_pairs;
    } else {
      ElemId iso = isolation_target(*v, network);
      change.kind = AppliedChange::Kind::IsolateRegister;
      change.isolated = iso;
      change.rewire_operations = isolate_register_output(network, iso);
      change.note = stage + ": isolate " + network.elem(iso).name;
      ++stats.fallback_isolations;
      cur_pairs = count(network);
    }
    ++stats.applied_changes;
    stats.rewire_operations += change.rewire_operations;
    if (log) log->push_back(std::move(change));
  }
  return stats;
}

}  // namespace

ResolveStats resolve_pure(const security::PureScanAnalyzer& analyzer,
                          Rsn& network, std::vector<AppliedChange>* log,
                          ResolutionPolicy policy) {
  return resolve_from_scratch(
      "pure", analyzer, network, log, policy,
      // Every connection along the witnessing path.
      [](const security::PureViolation& v, const Rsn& net) {
        std::vector<Connection> out;
        for (std::size_t i = 0; i + 1 < v.path.size(); ++i) {
          const rsn::Element& to = net.elem(v.path[i + 1]);
          for (std::size_t p = 0; p < to.inputs.size(); ++p)
            if (to.inputs[p] == v.path[i])
              out.push_back({v.path[i], v.path[i + 1], p});
        }
        return out;
      },
      // The last register on the path before the victim, else the origin.
      [](const security::PureViolation& v, const Rsn& net) {
        ElemId iso = v.origin;
        for (std::size_t i = 0; i + 1 < v.path.size(); ++i)
          if (net.elem(v.path[i]).kind == ElemKind::Register) iso = v.path[i];
        return iso;
      });
}

ResolveStats resolve_hybrid(const security::HybridAnalyzer& analyzer,
                            Rsn& network, std::vector<AppliedChange>* log,
                            ResolutionPolicy policy) {
  using Violation = security::HybridAnalyzer::Violation;
  return resolve_from_scratch(
      "hybrid", analyzer, network, log, policy,
      [](const Violation& v, const Rsn&) {
        if (v.rsn_connections.empty())
          throw std::runtime_error("hybrid violation without RSN connection");
        return v.rsn_connections;
      },
      // The register driving the last RSN hop of the path.
      [](const Violation& v, const Rsn& net) {
        for (auto it = v.rsn_connections.rbegin();
             it != v.rsn_connections.rend(); ++it)
          if (net.elem(it->from).kind == ElemKind::Register) return it->from;
        throw std::runtime_error("hybrid reference found no register");
      });
}

}  // namespace rsnsec::reference
