#include "security/rewire.hpp"

#include <cassert>
#include <ranges>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace rsnsec::security {

using rsn::ElemId;
using rsn::ElemKind;
using rsn::Rsn;

std::vector<Connection> Rewirer::all_connections(const Rsn& network) {
  std::vector<Connection> out;
  for (ElemId id = 0; id < network.num_elements(); ++id) {
    const rsn::Element& e = network.elem(id);
    for (std::size_t p = 0; p < e.inputs.size(); ++p) {
      if (e.inputs[p] != rsn::no_elem)
        out.push_back({e.inputs[p], id, p});
    }
  }
  return out;
}

namespace {

/// The first element, in discovery order, of the depth-first walk that
/// Rsn::reaching and Rsn::reachable_from run from `start` (neighbors in
/// `next(id)` order, each recorded when first seen) that satisfies
/// `accept`, or no_elem. A repair takes the first eligible element of
/// that order, so the walk stops there instead of listing the whole
/// predecessor or successor set per trial.
template <typename NextFn, typename AcceptFn>
ElemId first_discovered(std::size_t num_elements, ElemId start, NextFn&& next,
                        AcceptFn&& accept) {
  std::vector<bool> seen(num_elements, false);
  std::vector<ElemId> stack{start};
  seen[start] = true;
  while (!stack.empty()) {
    ElemId id = stack.back();
    stack.pop_back();
    for (ElemId s : next(id)) {
      if (s == rsn::no_elem || seen[s]) continue;
      if (accept(s)) return s;
      seen[s] = true;
      stack.push_back(s);
    }
  }
  return rsn::no_elem;
}

}  // namespace

ElemId Rewirer::first_predecessor(const Rsn& network, ElemId to,
                                  ElemId avoid) {
  return first_discovered(
      network.num_elements(), to,
      [&](ElemId id) -> const std::vector<ElemId>& {
        return network.elem(id).inputs;
      },
      [&](ElemId cand) {
        return cand != avoid &&
               network.elem(cand).kind != ElemKind::ScanOut;
      });
}

ElemId Rewirer::first_successor(const Rsn& network,
                                const rsn::FanoutIndex& fanout, ElemId from,
                                ElemId avoid) {
  return first_discovered(
      network.num_elements(), from,
      [&](ElemId id) { return fanout.of(id) | std::views::keys; },
      [&](ElemId cand) {
        const ElemKind k = network.elem(cand).kind;
        return cand != avoid &&
               (k == ElemKind::Mux || k == ElemKind::Register);
      });
}

bool Rewirer::closes_cycle(const Rsn& network, ElemId driver,
                           ElemId consumer) {
  // In an acyclic network, a new connection driver -> consumer closes a
  // cycle exactly when the consumer already reaches the driver: a walk
  // over the driver's input cone, not a whole-network check.
  if (driver == consumer) return true;
  std::vector<bool> seen(network.num_elements(), false);
  std::vector<ElemId> stack{driver};
  seen[driver] = true;
  while (!stack.empty()) {
    ElemId id = stack.back();
    stack.pop_back();
    for (ElemId in : network.elem(id).inputs) {
      if (in == rsn::no_elem || seen[in]) continue;
      if (in == consumer) return true;
      seen[in] = true;
      stack.push_back(in);
    }
  }
  return false;
}

int Rewirer::repair_dangling_input(Rsn& network, ElemId to, std::size_t port,
                                   ElemId pre_pred, ElemId avoid,
                                   ElemId hint) {
  // Reconnect to a multi-cycle predecessor over pure scan paths that does
  // not recreate a cycle (Sec. III-D: "only segments that are multi-cycle
  // predecessors/successors over pure scan paths are connected"); fall
  // back to the scan-in port. A hint (evaluated as a separate repair
  // candidate by the resolver) overrides the default choice. The
  // predecessor needs no cycle check: it reached `to` before the input
  // was cut, so in the acyclic network `to` cannot reach it.
  if (hint != rsn::no_elem && hint != avoid && hint != to &&
      network.elem(hint).kind != ElemKind::ScanOut &&
      !closes_cycle(network, hint, to)) {
    network.connect(hint, to, port);
  } else {
    network.connect(pre_pred != rsn::no_elem ? pre_pred : network.scan_in(),
                    to, port);
  }
  return 1;
}

int Rewirer::repair_lost_fanout(Rsn& network, ElemId from, ElemId pre_succ,
                                ElemId avoid) {
  // The successor needs no cycle check either: `from` reached it before
  // the cut, so it cannot reach `from` — the cut only removed an edge, and
  // the dangling-input repair only added one into the cut's consumer,
  // which (downstream of `from`) cannot reach `from` itself.
  if (pre_succ == rsn::no_elem)
    return attach_to_scan_out_avoiding(network, from, avoid);
  if (network.elem(pre_succ).kind == ElemKind::Mux) {
    network.add_mux_input(pre_succ, from);
    return 1;
  }
  ElemId old_driver = network.elem(pre_succ).inputs[0];
  if (old_driver == rsn::no_elem) {
    network.connect(from, pre_succ, 0);
    return 1;
  }
  // Insert a fresh 2:1 mux in front of the register ("placing new
  // multiplexers", Sec. IV-C).
  ElemId m = network.add_mux(
      "repair_mux_" + std::to_string(network.num_elements()), 2);
  network.connect(old_driver, m, 0);
  network.connect(from, m, 1);
  network.connect(m, pre_succ, 0);
  return 2;
}

int Rewirer::attach_to_scan_out_avoiding(Rsn& network, ElemId from,
                                         ElemId avoid) {
  // Like Rsn::attach_to_scan_out, but never reuses `avoid` as the
  // collector mux (we just disconnected `from` from it; reusing it would
  // silently recreate the cut connection).
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

TrialWorkspaces::TrialWorkspaces(const Rsn& committed, std::size_t capacity)
    : committed_(committed), nets_(capacity) {}

TrialWorkspaces::Claim::Claim(TrialWorkspaces& pool) : pool_(pool) {
  std::lock_guard<std::mutex> lock(pool_.mutex_);
  if (!pool_.free_.empty()) {
    slot_ = pool_.free_.back();
    pool_.free_.pop_back();
    return;
  }
  if (pool_.created_ == pool_.nets_.size())
    throw std::logic_error("more concurrent trial chunks than workspaces");
  slot_ = pool_.created_++;
  pool_.nets_[slot_] = std::make_unique<Rsn>(pool_.committed_);
}

TrialWorkspaces::Claim::~Claim() {
  if (network().journal_open()) network().rollback_journal();
  std::lock_guard<std::mutex> lock(pool_.mutex_);
  pool_.free_.push_back(slot_);
}

void TrialWorkspaces::sync(const std::vector<ElemId>& edited) {
  for (std::size_t i = 0; i < created_; ++i)
    nets_[i]->sync_from(committed_, edited);
}

Rewirer::Selection Rewirer::select_cut_parallel(
    TrialWorkspaces& workspaces, const rsn::FanoutIndex& fanout,
    const std::vector<Connection>& candidates, const TrialScorer& score,
    std::size_t current_pairs, ResolutionPolicy policy, ThreadPool& pool) {
  obs::TraceSession* trace = obs::TraceSession::active();
  const Rsn& network = workspaces.committed();
  // Flatten the nested (candidate, hint) loop into one combo list in the
  // same order; evaluate all combos concurrently; then select by scanning
  // the results in combo order. The scan replicates the sequential policy
  // logic exactly, so the Selection is identical for any thread count.
  struct Combo {
    Connection cut;
    rsn::ElemId hint;
  };
  std::vector<Combo> combos;
  combos.reserve(2 * candidates.size());
  for (const Connection& c : candidates) {
    rsn::ElemId hints[2] = {rsn::no_elem, network.scan_in()};
    if (policy == ResolutionPolicy::PreferScanIn)
      std::swap(hints[0], hints[1]);
    combos.push_back({c, hints[0]});
    // A hint-insensitive cut yields the same trial for both hints; the
    // duplicate cannot change the selection (identical pairs and ops lose
    // every strict tie-break), so it is not evaluated.
    if (!cut_is_hint_insensitive(network, fanout, c))
      combos.push_back({c, hints[1]});
  }
  std::vector<std::size_t> pairs(combos.size(), 0);
  std::vector<int> ops(combos.size(), 0);
  pool.parallel_chunks(
      0, combos.size(),
      [&](std::size_t cb, std::size_t ce, std::size_t) {
        // Apply, score and roll back each trial on one claimed workspace.
        TrialWorkspaces::Claim ws(workspaces);
        Rsn& trial = ws.network();
        for (std::size_t i = cb; i < ce; ++i) {
          trial.begin_journal();
          ops[i] = cut_connection(trial, fanout, combos[i].cut,
                                  combos[i].hint);
          pairs[i] = score(trial, trial.journal_elements(), ws.slot());
          trial.rollback_journal();
        }
      },
      /*grain=*/0);
  if (trace != nullptr) {
    trace->counter("rewire.trials").add(combos.size());
    trace->counter("resolve.candidates_evaluated").add(combos.size());
  }

  Selection best;
  for (std::size_t i = 0; i < combos.size(); ++i) {
    if (pairs[i] >= current_pairs) continue;
    if (policy != ResolutionPolicy::BestGlobal) {
      return {true, combos[i].cut, combos[i].hint, pairs[i], ops[i]};
    }
    if (!best.found || pairs[i] < best.residual_pairs ||
        (pairs[i] == best.residual_pairs && ops[i] < best.operations)) {
      best = {true, combos[i].cut, combos[i].hint, pairs[i], ops[i]};
    }
  }
  return best;
}

bool Rewirer::cut_is_hint_insensitive(const Rsn& network,
                                      const rsn::FanoutIndex& fanout,
                                      const Connection& c) {
  // The reconnect hint is consulted only by repair_dangling_input, which
  // runs when the cut leaves a non-mux input dangling. A cut that merely
  // shrinks a multi-input mux and does not orphan its source produces
  // the same network for every hint.
  const rsn::Element& to_elem = network.elem(c.to);
  if (to_elem.kind != ElemKind::Mux || to_elem.inputs.size() <= 1)
    return false;
  return !(network.elem(c.from).kind != ElemKind::ScanIn &&
           fanout.of(c.from).size() == 1);
}

int Rewirer::cut_connection(Rsn& network, const Connection& c,
                            ElemId reconnect_hint) {
  return cut_connection(network, rsn::FanoutIndex(network), c,
                        reconnect_hint);
}

int Rewirer::cut_connection(Rsn& network, const rsn::FanoutIndex& fanout,
                            const Connection& c, ElemId reconnect_hint) {
  assert(network.elem(c.to).inputs.at(c.port) == c.from);
  int ops = 1;
  const rsn::Element& to_elem = network.elem(c.to);
  const bool mux_shrink =
      to_elem.kind == ElemKind::Mux && to_elem.inputs.size() > 1;
  // `from` is orphaned exactly when this connection is its only fanout
  // (repairs reconnect drivers to `c.to` but never to `from`).
  const bool loses_fanout = network.elem(c.from).kind != ElemKind::ScanIn &&
                            fanout.of(c.from).size() == 1;
  // The repairs' multi-cycle predecessor/successor *before* the cut, per
  // Sec. III-D — found only for the repairs that actually consult them.
  ElemId pre_pred = rsn::no_elem, pre_succ = rsn::no_elem;
  if (!mux_shrink) pre_pred = first_predecessor(network, c.to, c.from);
  if (loses_fanout) pre_succ = first_successor(network, fanout, c.from, c.to);

  if (mux_shrink) {
    network.remove_mux_input(c.to, c.port);
  } else {
    network.disconnect(c.to, c.port);
    ops += repair_dangling_input(network, c.to, c.port, pre_pred, c.from,
                                 reconnect_hint);
  }

  if (loses_fanout) ops += repair_lost_fanout(network, c.from, pre_succ, c.to);
  return ops;
}

int Rewirer::isolate_register_output(Rsn& network, ElemId reg) {
  assert(network.elem(reg).kind == ElemKind::Register);
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
      ElemId pre_pred = first_predecessor(network, to, reg);
      network.disconnect(to, port);
      ops += repair_dangling_input(network, to, port, pre_pred, reg,
                                   rsn::no_elem);
    }
  }
  network.attach_to_scan_out(reg);
  ++ops;
  return ops;
}

}  // namespace rsnsec::security
