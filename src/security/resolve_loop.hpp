#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "rsn/rsn.hpp"
#include "security/rewire.hpp"
#include "util/thread_pool.hpp"

namespace rsnsec::security::detail {

/// Trace and report names of one resolution stage.
struct StageLabels {
  const char* span;        ///< trace span covering the whole loop
  const char* iterations;  ///< per-iteration trace counter
  const char* stage;       ///< change-note / error-message prefix
};

/// The detect-and-resolve loop shared by the pure and the hybrid stage
/// (Fig. 2, steps 3 and 4). Violation state lives in an `Index` (a
/// PureViolationIndex or HybridViolationIndex built from `analyzer`) and
/// is maintained under deltas; candidate cuts are trial-evaluated in
/// parallel against it, each applied to a per-worker TrialWorkspaces
/// copy of the network and rolled back through its edit journal. Every
/// applied change is journaled too: its edited elements drive the index
/// commit and the workspace sync. `network` must be acyclic (the
/// pipeline validates it first). Per iteration the stage supplies only
///  - `candidates(violation, network)`: the connections to try cutting,
///  - `isolation_target(violation, network)`: the register whose output
///    is isolated when no cut reduces the violating-pair count.
/// Results are bit-identical for any thread count.
template <typename Index, typename Analyzer, typename CandidatesFn,
          typename IsolationFn>
ResolveStats resolve_loop(const StageLabels& labels, const Analyzer& analyzer,
                          rsn::Rsn& network, std::vector<AppliedChange>* log,
                          ResolutionPolicy policy,
                          const ChangeCallback& on_change,
                          const ResolveOptions& options,
                          CandidatesFn&& candidates,
                          IsolationFn&& isolation_target) {
  obs::TraceSession* trace = obs::TraceSession::active();
  obs::Span resolve_span(trace, labels.span);
  ResolveStats stats;

  Index index(analyzer, network);
  // ResolveOptions::pool (shared, serve scheduler) wins over a private
  // per-resolve pool sized by num_threads.
  ThreadPool* pool = options.pool;
  std::optional<ThreadPool> owned_pool;
  if (pool == nullptr) {
    owned_pool.emplace(ThreadPool::resolve_num_threads(options.num_threads));
    pool = &*owned_pool;
  }
  TrialWorkspaces workspaces(network, pool->num_threads());
  // Per-worker delta-query scratch, keyed by workspace slot.
  std::vector<typename Index::Scratch> scratch(workspaces.capacity());
  const Rewirer::TrialScorer score =
      [&index, &scratch](const rsn::Rsn& trial,
                         const std::vector<rsn::ElemId>& edited,
                         std::size_t slot) {
        return index.eval_trial(trial, edited, scratch[slot]);
      };
  stats.initial_violating_registers = index.violating_registers();
  stats.initial_violating_pairs = index.pairs();
  // Applying a cut re-runs the deterministic cut_connection on the real
  // network, so the selected trial's residual count IS the new current
  // count; only the fallback isolation needs a recount.
  std::size_t cur_pairs = stats.initial_violating_pairs;
  const std::string stage = labels.stage;

  const std::size_t max_iters = 8 * network.registers().size() + 64;
  std::size_t iter = 0;
  for (;;) {
    auto v = index.find_violation();
    if (!v) break;
    if (++iter > max_iters)
      throw std::runtime_error(
          stage + " resolution did not converge (iteration cap exceeded)");
    if (trace != nullptr) trace->counter(labels.iterations).add(1);

    // Each cut is evaluated with both reconnection variants ([17]-style
    // candidate generation); the policy decides how exhaustively.
    Rewirer::Selection sel = Rewirer::select_cut_parallel(
        workspaces, index.fanout(), candidates(*v, network), score,
        cur_pairs, policy, *pool);

    AppliedChange change;
    network.begin_journal();
    if (sel.found) {
      change.kind = AppliedChange::Kind::CutConnection;
      change.cut = sel.cut;
      change.rewire_operations = Rewirer::cut_connection(
          network, index.fanout(), sel.cut, sel.reconnect_hint);
      change.note = stage + ": cut " + network.elem(sel.cut.from).name +
                    " -> " + network.elem(sel.cut.to).name;
    } else {
      // Guaranteed-progress fallback.
      const rsn::ElemId iso = isolation_target(*v, network);
      change.kind = AppliedChange::Kind::IsolateRegister;
      change.isolated = iso;
      change.rewire_operations =
          Rewirer::isolate_register_output(network, iso);
      change.note = stage + ": isolate " + network.elem(iso).name;
      ++stats.fallback_isolations;
    }
    const std::vector<rsn::ElemId> edited = network.journal_elements();
    network.close_journal();
    index.commit(network, edited);
    workspaces.sync(edited);
    cur_pairs = sel.found ? sel.residual_pairs : index.pairs();
    ++stats.applied_changes;
    stats.rewire_operations += change.rewire_operations;
    if (trace != nullptr) {
      trace->counter("rewire.changes_applied").add(1);
      trace->counter("rewire.operations").add(change.rewire_operations);
    }
    if (on_change) on_change(network, change);
    if (log) log->push_back(std::move(change));
  }
  return stats;
}

}  // namespace rsnsec::security::detail
