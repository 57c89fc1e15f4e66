#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dep/analyzer.hpp"
#include "netlist/netlist.hpp"
#include "rsn/access.hpp"
#include "rsn/rsn.hpp"
#include "security/rewire.hpp"
#include "security/spec.hpp"

namespace rsnsec::security {

class HybridViolationIndex;

/// Checks that a propagation graph of `nodes` nodes fits the 32-bit node
/// ids of its CSR form; throws std::length_error (code HYB001) if not.
void check_node_id_range(std::size_t nodes);

/// Outcome of the scan-infrastructure-independent checks (Sec. III-B plus
/// the intra-segment extension documented in DESIGN.md). Violations of
/// these classes cannot be removed by rewiring the RSN.
struct StaticReport {
  /// Circuit-logic-only violations: data of a too-confidential module is
  /// path-dependent into an untrusted module purely through circuit logic
  /// (Sec. III-B). Requires redesigning the circuit.
  bool insecure_logic = false;
  /// Violations through a single register's own capture/shift/update flow
  /// (confidential data captured at FF i, updated out at FF j >= i into an
  /// untrusted sink). Requires redesigning the register, not the RSN.
  bool intra_segment = false;
  std::vector<std::string> details;

  bool clean() const { return !insecure_logic && !intra_segment; }
};

/// Statistics of one hybrid detect-and-resolve run.
using HybridStats = ResolveStats;

/// Detection and resolution of security violations over *hybrid* scan
/// paths — paths through both the RSN and the underlying circuit logic
/// (the paper's contribution, Sec. III-C / III-D).
///
/// The analyzer works at flip-flop granularity: its propagation graph has
/// one node per scan flip-flop and one per (non-bridged) circuit
/// flip-flop. Static edges — intra-register shift order, capture-cone
/// dependencies, update connections and the multi-cycle circuit closure —
/// are built once from the dependency analysis and remain valid across
/// all RSN rewirings; the RSN inter-segment edges are recomputed from the
/// current network on every propagation ("the dependencies are calculated
/// once ... without RSN-internal connections", Sec. III-A). Tokens
/// propagate only over path-dependent edges; only-structural connections
/// cannot transport data (Fig. 5's XOR reconvergence). Propagation is
/// cyclic ("omnidirectional", Sec. III-D) and runs to a fixed point;
/// during resolution a HybridViolationIndex maintains that fixed point
/// under the applied changes.
class HybridAnalyzer {
 public:
  HybridAnalyzer(const netlist::Netlist& nl,
                 const rsn::Rsn& layout_network,
                 const dep::DependencyAnalyzer& deps,
                 const SecuritySpec& spec, const TokenTable& tokens);

  /// Number of nodes of the propagation graph.
  std::size_t num_nodes() const { return owner_module_.size(); }

  /// Node index of scan FF `ff` of register `reg`.
  std::size_t scan_node(rsn::ElemId reg, std::size_t ff) const;

  /// Node index of circuit flip-flop `ff`.
  std::size_t circuit_node(netlist::NodeId ff) const;

  /// Human-readable node label (for reports).
  std::string node_name(std::size_t node) const;

  /// Runs the fixed-point token propagation. `network` provides the RSN
  /// inter-segment edges; pass nullptr to propagate over static edges
  /// only (scan-infrastructure-independent flows). `circuit_only`
  /// restricts edges to the circuit closure (Sec. III-B check).
  std::vector<TokenSet> propagate(const rsn::Rsn* network,
                                  bool circuit_only = false) const;

  /// Scan-infrastructure-independent violation checks; must be clean
  /// before detect_and_resolve is meaningful.
  StaticReport check_static() const;

  /// Number of (node, token) violating pairs under the given propagation.
  std::size_t count_violating_pairs(const rsn::Rsn& network) const;

  /// Registers with at least one violating scan flip-flop.
  std::size_t count_violating_registers(const rsn::Rsn& network) const;

  /// A violation over a hybrid (or pure) path in the combined graph.
  struct Violation {
    int token = -1;
    std::size_t victim_node = 0;
    std::vector<std::size_t> node_path;  ///< seed ... victim
    /// Concrete RSN connections crossed by the path (cut candidates).
    std::vector<Connection> rsn_connections;
  };

  /// Finds one violation with a witnessing path, or nullopt if secure
  /// (HybridViolationIndex::find_violation of a fresh index of `network`).
  std::optional<Violation> find_violation(const rsn::Rsn& network) const;

  /// Repeatedly detects and resolves violations by cutting RSN
  /// connections until the network is secure. Requires check_static() to
  /// be clean. Modifies `network`; appends changes to `log`; invokes
  /// `on_change` after every applied change (see ChangeCallback).
  ///
  /// Violation state is kept in a HybridViolationIndex and maintained
  /// under deltas, with candidate cuts trial-evaluated in parallel; the
  /// change log, stats and final network are bit-identical to
  /// recomputing the fixpoint from scratch every iteration, at any
  /// thread count.
  HybridStats detect_and_resolve(
      rsn::Rsn& network, std::vector<AppliedChange>* log = nullptr,
      ResolutionPolicy policy = ResolutionPolicy::BestGlobal,
      const ChangeCallback& on_change = {},
      const ResolveOptions& resolve_options = {});

 private:
  friend class HybridViolationIndex;
  const netlist::Netlist& nl_;
  const dep::DependencyAnalyzer& deps_;
  const SecuritySpec& spec_;
  const TokenTable& tokens_;

  // Node layout: [scan FFs by register, flattened][circuit FFs].
  std::vector<std::size_t> scan_base_;  // ElemId -> first node index
  std::vector<rsn::ElemId> node_reg_;   // scan node -> register
  std::vector<std::size_t> node_ff_;    // scan node -> ff index
  std::size_t circuit_base_ = 0;
  std::vector<netlist::ModuleId> owner_module_;  // per node
  std::vector<int> seed_token_;                  // per node, -1 = none

  // Propagation graph without the RSN inter-segment edges (path-dependent
  // edges only), stored once in CSR form with 32-bit node ids: node n's
  // successors are succ_[succ_off_[n] .. succ_off_[n + 1]). The static
  // ones (shift order, capture, update) come first; the circuit-closure
  // ones start at closure_off_[n].
  std::vector<std::uint64_t> succ_off_;
  std::vector<std::uint64_t> closure_off_;
  std::vector<std::uint32_t> succ_;

  /// Static and circuit-closure successors of node n.
  std::span<const std::uint32_t> successors(std::size_t n) const {
    return {succ_.data() + succ_off_[n], succ_.data() + succ_off_[n + 1]};
  }
  /// Circuit-closure successors of node n (the Sec. III-B graph).
  std::span<const std::uint32_t> closure_successors(std::size_t n) const {
    return {succ_.data() + closure_off_[n], succ_.data() + succ_off_[n + 1]};
  }

  struct RsnEdge {
    rsn::ElemId from_reg, to_reg;
    std::vector<Connection> chain;
  };
  /// Appends the inter-segment chains starting at register `r` (DFS over
  /// mux-only element chains under `fanout`, capped) to `out`. The
  /// emission order is a deterministic function of r's local fanout
  /// structure alone, so the violation index can rebuild one register's
  /// chains and splice them into the full build_rsn_edges order.
  static void append_register_chains(const rsn::Rsn& network,
                                     const rsn::FanoutIndex& fanout,
                                     rsn::ElemId r, std::vector<RsnEdge>& out);
  /// Generalization over the fanout source: `fanout_of(id)` must return a
  /// range of (consumer, port) pairs in FanoutIndex order (consumer
  /// ascending, then port). The returned reference may be invalidated by
  /// the next fanout_of call; each result is fully consumed before the
  /// next lookup. This is what lets the violation index rebuild chains
  /// against a patched committed fanout without indexing a whole trial
  /// network per candidate.
  template <typename FanoutFn>
  static void append_register_chains_fn(const rsn::Rsn& network,
                                        FanoutFn&& fanout_of, rsn::ElemId r,
                                        std::vector<RsnEdge>& out) {
    constexpr std::size_t max_chains_per_register = 256;
    std::size_t emitted = 0;
    // DFS over (element, chain-so-far); chains are short in practice.
    std::vector<std::pair<rsn::ElemId, std::vector<Connection>>> stack;
    stack.push_back({r, {}});
    while (!stack.empty() && emitted < max_chains_per_register) {
      auto [cur, chain] = std::move(stack.back());
      stack.pop_back();
      for (auto [to, port] : fanout_of(cur)) {
        std::vector<Connection> next_chain = chain;
        next_chain.push_back({cur, to, port});
        const rsn::Element& te = network.elem(to);
        if (te.kind == rsn::ElemKind::Register) {
          out.push_back({r, to, std::move(next_chain)});
          ++emitted;
        } else if (te.kind == rsn::ElemKind::Mux) {
          stack.push_back({to, std::move(next_chain)});
        }
        // Scan-out: data leaves the chip; no further segment is reached.
      }
    }
  }
  std::vector<RsnEdge> build_rsn_edges(const rsn::Rsn& network) const;

  void build_nodes(const rsn::Rsn& layout);
  void build_edges(const rsn::Rsn& layout);
  std::vector<TokenSet> run_worklist(
      const std::vector<std::vector<std::size_t>>& extra_succ,
      bool circuit_only) const;
  std::size_t violating_pairs(const std::vector<TokenSet>& state) const;
};

}  // namespace rsnsec::security
