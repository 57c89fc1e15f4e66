#include "reference/reference.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "netlist/cone_check.hpp"
#include "rsn/access.hpp"

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

std::optional<security::HybridAnalyzer::Violation> hybrid_find_violation(
    const netlist::Netlist& nl, const Rsn& layout,
    const dep::DependencyAnalyzer& deps, const security::SecuritySpec& spec,
    const security::TokenTable& tokens, const Rsn& network) {
  using security::TokenSet;
  // Nodes: scan FFs by register in layout order, then circuit FFs.
  std::vector<std::size_t> scan_base(layout.num_elements(), 0);
  std::vector<netlist::ModuleId> owner;
  for (ElemId r : layout.registers()) {
    scan_base[r] = owner.size();
    owner.insert(owner.end(), layout.elem(r).ffs.size(), layout.elem(r).module);
  }
  const std::size_t circuit_base = owner.size();
  for (std::size_t i = 0; i < deps.num_circuit_ffs(); ++i)
    owner.push_back(nl.node(deps.circuit_ff(i)).module);
  const std::size_t nodes = owner.size();
  std::vector<int> seed(nodes, -1);
  for (std::size_t n = 0; n < nodes; ++n)
    if (n < circuit_base || !deps.is_internal(n - circuit_base))
      seed[n] = tokens.token_of(owner[n]);
  auto scan = [&](ElemId r, std::size_t f) { return scan_base[r] + f; };
  auto circuit = [&](NodeId ff) {
    return circuit_base + deps.circuit_index(ff);
  };

  // Static and closure successors (path-dependent edges only).
  std::vector<std::vector<std::size_t>> static_succ(nodes);
  std::vector<std::vector<std::size_t>> circuit_succ(nodes);
  for (ElemId r : layout.registers()) {
    const rsn::Element& e = layout.elem(r);
    for (std::size_t f = 0; f < e.ffs.size(); ++f) {
      if (f + 1 < e.ffs.size()) static_succ[scan(r, f)].push_back(scan(r, f + 1));
      for (const dep::CaptureDep& d : deps.capture_deps(r, f))
        if (d.kind == DepKind::Path)
          static_succ[circuit(d.circuit_ff)].push_back(scan(r, f));
      if (e.ffs[f].update_dst != netlist::no_node)
        static_succ[scan(r, f)].push_back(circuit(e.ffs[f].update_dst));
    }
  }
  for (std::size_t i = 0; i < deps.num_circuit_ffs(); ++i) {
    if (deps.is_internal(i)) continue;
    for (std::size_t j : deps.closure_path_successors(i))
      if (i != j) circuit_succ[circuit_base + i].push_back(circuit_base + j);
  }

  // Inter-segment chains: per register, a DFS over mux-only element
  // chains (at most 256 per register), in registers() order.
  struct Chain {
    ElemId from, to;
    std::vector<Connection> conns;
  };
  std::vector<Chain> chains;
  rsn::FanoutIndex fanout(network);
  for (ElemId r : network.registers()) {
    std::size_t emitted = 0;
    std::vector<std::pair<ElemId, std::vector<Connection>>> stack{{r, {}}};
    while (!stack.empty() && emitted < 256) {
      auto [cur, chain] = std::move(stack.back());
      stack.pop_back();
      for (auto [to, port] : fanout.of(cur)) {
        std::vector<Connection> next = chain;
        next.push_back({cur, to, port});
        if (network.elem(to).kind == ElemKind::Register) {
          chains.push_back({r, to, std::move(next)});
          ++emitted;
        } else if (network.elem(to).kind == ElemKind::Mux) {
          stack.push_back({to, std::move(next)});
        }
      }
    }
  }

  // Predecessors with provenance (-1 = static/closure, else a chain).
  struct Pred {
    std::size_t node;
    int chain;
  };
  std::vector<std::vector<Pred>> preds(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    for (std::size_t t : static_succ[n]) preds[t].push_back({n, -1});
    for (std::size_t t : circuit_succ[n]) preds[t].push_back({n, -1});
  }
  std::vector<std::vector<std::size_t>> rsn_succ(nodes);
  for (std::size_t ci = 0; ci < chains.size(); ++ci) {
    const std::size_t from =
        scan(chains[ci].from, network.elem(chains[ci].from).ffs.size() - 1);
    const std::size_t to = scan(chains[ci].to, 0);
    rsn_succ[from].push_back(to);
    preds[to].push_back({from, static_cast<int>(ci)});
  }

  // Least fixpoint of the token propagation.
  std::vector<TokenSet> state(nodes);
  std::vector<std::size_t> work;
  for (std::size_t n = 0; n < nodes; ++n) {
    if (seed[n] < 0) continue;
    state[n].set(static_cast<std::size_t>(seed[n]));
    work.push_back(n);
  }
  while (!work.empty()) {
    const std::size_t n = work.back();
    work.pop_back();
    for (const auto* succ : {&static_succ[n], &circuit_succ[n], &rsn_succ[n]})
      for (std::size_t t : *succ)
        if (state[t].merge(state[n])) work.push_back(t);
  }

  for (std::size_t victim = 0; victim < nodes; ++victim) {
    if (owner[victim] < 0) continue;
    const int tok =
        state[victim].first_common(tokens.bad(spec.policy(owner[victim]).trust));
    if (tok < 0) continue;
    std::vector<int> parent_chain(nodes, -1);
    std::vector<std::size_t> parent(nodes, 0);
    std::vector<bool> seen(nodes, false);
    std::vector<std::size_t> queue{victim};
    seen[victim] = true;
    std::size_t origin = nodes;
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const std::size_t cur = queue[qi];
      if (seed[cur] == tok && cur != victim) {
        origin = cur;
        break;
      }
      for (const Pred& p : preds[cur]) {
        if (seen[p.node] || !state[p.node].test(static_cast<std::size_t>(tok)))
          continue;
        seen[p.node] = true;
        parent[p.node] = cur;
        parent_chain[p.node] = p.chain;
        queue.push_back(p.node);
      }
    }
    if (origin == nodes) continue;
    security::HybridAnalyzer::Violation v;
    v.token = tok;
    v.victim_node = victim;
    for (std::size_t cur = origin;; cur = parent[cur]) {
      v.node_path.push_back(cur);
      if (parent_chain[cur] >= 0) {
        const Chain& c = chains[static_cast<std::size_t>(parent_chain[cur])];
        v.rsn_connections.insert(v.rsn_connections.end(), c.conns.begin(),
                                 c.conns.end());
      }
      if (cur == victim) break;
    }
    return v;
  }
  return std::nullopt;
}

}  // namespace rsnsec::reference
