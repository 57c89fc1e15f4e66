#include "security/hybrid.hpp"

#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "obs/trace.hpp"
#include "security/resolve_loop.hpp"
#include "security/violation_index.hpp"

namespace rsnsec::security {

using rsn::ElemId;
using rsn::ElemKind;
using rsn::Rsn;

HybridAnalyzer::HybridAnalyzer(const netlist::Netlist& nl,
                               const Rsn& layout_network,
                               const dep::DependencyAnalyzer& deps,
                               const SecuritySpec& spec,
                               const TokenTable& tokens)
    : nl_(nl), deps_(deps), spec_(spec), tokens_(tokens) {
  build_nodes(layout_network);
  build_edges(layout_network);
}

void check_node_id_range(std::size_t nodes) {
  if (nodes > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error(
        "HYB001: hybrid propagation graph has " + std::to_string(nodes) +
        " nodes; node ids are 32-bit");
}

std::size_t HybridAnalyzer::scan_node(ElemId reg, std::size_t ff) const {
  return scan_base_[static_cast<std::size_t>(reg)] + ff;
}

std::size_t HybridAnalyzer::circuit_node(netlist::NodeId ff) const {
  return circuit_base_ + deps_.circuit_index(ff);
}

std::string HybridAnalyzer::node_name(std::size_t node) const {
  if (node < circuit_base_) {
    return "scan:" + std::to_string(node_reg_[node]) + "[" +
           std::to_string(node_ff_[node]) + "]";
  }
  netlist::NodeId ff = deps_.circuit_ff(node - circuit_base_);
  const std::string& n = nl_.node(ff).name;
  return "ff:" + (n.empty() ? std::to_string(ff) : n);
}

void HybridAnalyzer::build_nodes(const Rsn& layout) {
  scan_base_.assign(layout.num_elements(), 0);
  std::size_t next = 0;
  for (ElemId r : layout.registers()) {
    scan_base_[r] = next;
    const rsn::Element& e = layout.elem(r);
    for (std::size_t f = 0; f < e.ffs.size(); ++f) {
      node_reg_.push_back(r);
      node_ff_.push_back(f);
      owner_module_.push_back(e.module);
      ++next;
    }
  }
  circuit_base_ = next;
  for (std::size_t i = 0; i < deps_.num_circuit_ffs(); ++i) {
    owner_module_.push_back(nl_.node(deps_.circuit_ff(i)).module);
  }

  seed_token_.assign(owner_module_.size(), -1);
  for (std::size_t n = 0; n < owner_module_.size(); ++n) {
    // Internal circuit flip-flops are transit-only: they were bridged out
    // of the relation and contribute no tokens (Sec. III-A.2).
    if (n >= circuit_base_ && deps_.is_internal(n - circuit_base_)) continue;
    seed_token_[n] = tokens_.token_of(owner_module_[n]);
  }
}

void HybridAnalyzer::build_edges(const Rsn& layout) {
  const std::size_t nodes = owner_module_.size();
  check_node_id_range(nodes);
  auto id = [](std::size_t n) { return static_cast<std::uint32_t>(n); };

  // Static edges are few (one per scan FF plus the capture and update
  // attachments), so they are listed in emission order first.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> statics;
  for (ElemId r : layout.registers()) {
    const rsn::Element& e = layout.elem(r);
    for (std::size_t f = 0; f < e.ffs.size(); ++f) {
      std::size_t node = scan_node(r, f);
      // Shift order inside the register: data only moves toward scan-out
      // (SF5 -> SF6, never SF6 -> SF5; Sec. III-C).
      if (f + 1 < e.ffs.size())
        statics.emplace_back(id(node), id(scan_node(r, f + 1)));
      // Capture-cone dependencies (path-dependent only: tokens cannot
      // ride only-structural connections).
      for (const dep::CaptureDep& d : deps_.capture_deps(r, f)) {
        if (d.kind == DepKind::Path)
          statics.emplace_back(id(circuit_node(d.circuit_ff)), id(node));
      }
      // Update connection into the circuit.
      if (e.ffs[f].update_dst != netlist::no_node)
        statics.emplace_back(id(node),
                             id(circuit_node(e.ffs[f].update_dst)));
    }
  }

  // Multi-cycle circuit closure: one edge per path-dependent pair. The
  // closure is transitively closed, so a single hop covers any number of
  // functional clock cycles. It outnumbers all other edges by orders of
  // magnitude, so the CSR is sized exactly before it is filled: degrees
  // come from a popcount of the tiled closure rows (never a dense matrix
  // or a per-row list), then each row is written in place.
  const TiledDepMatrix& closure = deps_.circuit_closure();
  // Pass 1: degrees. Until the prefix sum, closure_off_[n] holds n's
  // static out-degree and succ_off_[n + 1] its closure out-degree.
  succ_off_.assign(nodes + 1, 0);
  closure_off_.assign(nodes, 0);
  for (const auto& [from, to] : statics) ++closure_off_[from];
  for (std::size_t i = 0; i < deps_.num_circuit_ffs(); ++i) {
    if (deps_.is_internal(i)) continue;
    std::uint64_t degree = closure.path_successor_count(i);
    if (closure.get(i, i) == DepKind::Path) --degree;  // no self-loop
    succ_off_[circuit_base_ + i + 1] = degree;
  }
  for (std::size_t n = 0; n < nodes; ++n) {
    closure_off_[n] += succ_off_[n];
    succ_off_[n + 1] += closure_off_[n];
  }
  // Pass 2: fill. Static edges keep their emission order per source.
  succ_.resize(succ_off_[nodes]);
  std::vector<std::uint64_t> cursor(succ_off_.begin(), succ_off_.end() - 1);
  for (const auto& [from, to] : statics) succ_[cursor[from]++] = to;
  for (std::size_t i = 0; i < deps_.num_circuit_ffs(); ++i) {
    if (deps_.is_internal(i)) continue;
    std::uint64_t o = closure_off_[circuit_base_ + i];
    closure.for_each_path_successor(i, [&](std::size_t j) {
      if (j != i) succ_[o++] = id(circuit_base_ + j);
    });
  }
}

void HybridAnalyzer::append_register_chains(const Rsn& network,
                                            const rsn::FanoutIndex& fanout,
                                            ElemId r,
                                            std::vector<RsnEdge>& out) {
  append_register_chains_fn(
      network, [&](ElemId id) -> decltype(auto) { return fanout.of(id); }, r,
      out);
}

std::vector<HybridAnalyzer::RsnEdge> HybridAnalyzer::build_rsn_edges(
    const Rsn& network) const {
  // For every register, find the registers reachable through mux-only
  // element chains, recording the concrete connections of each chain
  // (cut candidates for the resolution step).
  std::vector<RsnEdge> edges;
  rsn::FanoutIndex fanout(network);
  for (ElemId r : network.registers())
    append_register_chains(network, fanout, r, edges);
  return edges;
}

std::vector<TokenSet> HybridAnalyzer::run_worklist(
    const std::vector<std::vector<std::size_t>>& extra_succ,
    bool circuit_only) const {
  std::vector<TokenSet> state(owner_module_.size());
  std::vector<std::size_t> worklist;
  std::vector<bool> queued(owner_module_.size(), false);
  for (std::size_t n = 0; n < owner_module_.size(); ++n) {
    if (circuit_only && n < circuit_base_) continue;
    if (seed_token_[n] >= 0) {
      state[n].set(static_cast<std::size_t>(seed_token_[n]));
      worklist.push_back(n);
      queued[n] = true;
    }
  }
  auto relax = [&](std::size_t from, std::size_t to) {
    if (state[to].merge(state[from]) && !queued[to]) {
      queued[to] = true;
      worklist.push_back(to);
    }
  };
  while (!worklist.empty()) {
    std::size_t n = worklist.back();
    worklist.pop_back();
    queued[n] = false;
    for (std::uint32_t s :
         circuit_only ? closure_successors(n) : successors(n))
      relax(n, s);
    if (!circuit_only && n < extra_succ.size()) {
      for (std::size_t s : extra_succ[n]) relax(n, s);
    }
  }
  return state;
}

std::vector<TokenSet> HybridAnalyzer::propagate(const Rsn* network,
                                                bool circuit_only) const {
  if (obs::TraceSession* trace = obs::TraceSession::active())
    trace->counter("hybrid.propagations").add(1);
  std::vector<std::vector<std::size_t>> extra;
  if (network != nullptr && !circuit_only) {
    extra.assign(owner_module_.size(), {});
    for (const RsnEdge& e : build_rsn_edges(*network)) {
      std::size_t from =
          scan_node(e.from_reg, network->elem(e.from_reg).ffs.size() - 1);
      std::size_t to = scan_node(e.to_reg, 0);
      extra[from].push_back(to);
    }
  }
  return run_worklist(extra, circuit_only);
}

std::size_t HybridAnalyzer::violating_pairs(
    const std::vector<TokenSet>& state) const {
  std::size_t count = 0;
  for (std::size_t n = 0; n < state.size(); ++n) {
    if (owner_module_[n] < 0) continue;  // unannotated: transit only
    TrustCategory t = spec_.policy(owner_module_[n]).trust;
    const TokenSet& bad = tokens_.bad(t);
    for (std::size_t k = 0; k < tokens_.num_tokens(); ++k)
      if (state[n].test(k) && bad.test(k)) ++count;
  }
  return count;
}

StaticReport HybridAnalyzer::check_static() const {
  StaticReport report;
  std::vector<TokenSet> circ = propagate(nullptr, /*circuit_only=*/true);
  std::vector<TokenSet> stat = propagate(nullptr, /*circuit_only=*/false);
  for (std::size_t n = 0; n < stat.size(); ++n) {
    if (owner_module_[n] < 0) continue;
    TrustCategory t = spec_.policy(owner_module_[n]).trust;
    const TokenSet& bad = tokens_.bad(t);
    for (std::size_t k = 0; k < tokens_.num_tokens(); ++k) {
      bool in_circ = circ[n].test(k) && bad.test(k);
      bool in_stat = stat[n].test(k) && bad.test(k);
      if (in_circ) {
        report.insecure_logic = true;
        report.details.push_back("insecure circuit logic: token " +
                                 std::to_string(k) + " reaches " +
                                 node_name(n));
      } else if (in_stat) {
        report.intra_segment = true;
        report.details.push_back("intra-segment flow: token " +
                                 std::to_string(k) + " reaches " +
                                 node_name(n));
      }
    }
  }
  return report;
}

std::size_t HybridAnalyzer::count_violating_pairs(const Rsn& network) const {
  return violating_pairs(propagate(&network));
}

std::size_t HybridAnalyzer::count_violating_registers(
    const Rsn& network) const {
  std::vector<TokenSet> state = propagate(&network);
  std::size_t count = 0;
  for (ElemId r : network.registers()) {
    const rsn::Element& e = network.elem(r);
    if (e.module < 0) continue;
    TrustCategory t = spec_.policy(e.module).trust;
    const TokenSet& bad = tokens_.bad(t);
    for (std::size_t f = 0; f < e.ffs.size(); ++f) {
      if (state[scan_node(r, f)].intersects(bad)) {
        ++count;
        break;
      }
    }
  }
  return count;
}

std::optional<HybridAnalyzer::Violation> HybridAnalyzer::find_violation(
    const Rsn& network) const {
  return HybridViolationIndex(*this, network).find_violation();
}

HybridStats HybridAnalyzer::detect_and_resolve(
    Rsn& network, std::vector<AppliedChange>* log,
    ResolutionPolicy policy, const ChangeCallback& on_change,
    const ResolveOptions& resolve_options) {
  static constexpr detail::StageLabels kLabels{
      "hybrid.resolve", "resolve.hybrid_iterations", "hybrid"};
  return detail::resolve_loop<HybridViolationIndex>(
      kLabels, *this, network, log, policy, on_change, resolve_options,
      // Candidate cuts: the RSN connections the witnessing path crosses.
      [](const Violation& v, const Rsn&) {
        if (v.rsn_connections.empty())
          throw std::runtime_error(
              "hybrid violation without RSN connection on its path; "
              "run check_static() before resolution");
        return v.rsn_connections;
      },
      // Isolate the source register of the last RSN hop on the path.
      [](const Violation& v, const Rsn& net) {
        // rsn_connections were collected walking seed -> victim, so the
        // last chain's first element is the register driving the final
        // inter-segment hop; fall back to any register endpoint.
        ElemId iso = v.rsn_connections.front().from;
        for (auto it = v.rsn_connections.rbegin();
             it != v.rsn_connections.rend(); ++it) {
          if (net.elem(it->from).kind == ElemKind::Register) {
            iso = it->from;
            break;
          }
        }
        if (net.elem(iso).kind != ElemKind::Register) {
          throw std::runtime_error(
              "hybrid resolution fallback found no register to isolate");
        }
        return iso;
      });
}

}  // namespace rsnsec::security
