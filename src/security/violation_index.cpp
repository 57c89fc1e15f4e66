#include "security/violation_index.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>

#include "obs/trace.hpp"
#include "rsn/access.hpp"

namespace rsnsec::security {

using rsn::ElemId;
using rsn::ElemKind;
using rsn::Rsn;

namespace {

/// Backward mux-walk under `net`: appends every register that can reach
/// `x` through mux-only element chains (the sources whose chain DFS may
/// traverse x), including x itself if it is a register. Ports terminate
/// the walk — chains neither start nor pass through them. `visited`
/// entries equal to `epoch` are skipped (marks persist across the
/// endpoints of one delta query).
void collect_chain_sources(const Rsn& net, ElemId x,
                           std::vector<std::uint32_t>& visited,
                           std::uint32_t epoch, std::vector<ElemId>& stack,
                           std::vector<ElemId>& dirty) {
  if (x == rsn::no_elem || x >= net.num_elements()) return;
  stack.clear();
  stack.push_back(x);
  while (!stack.empty()) {
    ElemId cur = stack.back();
    stack.pop_back();
    if (visited[cur] == epoch) continue;
    visited[cur] = epoch;
    const rsn::Element& e = net.elem(cur);
    if (e.kind == ElemKind::Register) {
      dirty.push_back(cur);
      continue;
    }
    if (e.kind != ElemKind::Mux) continue;
    for (ElemId in : e.inputs)
      if (in != rsn::no_elem) stack.push_back(in);
  }
}

void count_delta_query() {
  if (obs::TraceSession* trace = obs::TraceSession::active())
    trace->counter("resolve.delta_queries").add(1);
}

void count_index_rebuild() {
  if (obs::TraceSession* trace = obs::TraceSession::active())
    trace->counter("resolve.index_rebuilds").add(1);
}

}  // namespace

// ---------------------------------------------------------------------------
// HybridViolationIndex

HybridViolationIndex::HybridViolationIndex(const HybridAnalyzer& analyzer,
                                           const Rsn& network)
    : a_(analyzer), net_(network), fanout_(network) {
  count_index_rebuild();
  const std::size_t nodes = a_.owner_module_.size();
  reg_chains_.assign(net_.num_elements(), {});
  rsn_succ_.assign(nodes, {});
  rsn_pred_.assign(nodes, {});
  std::vector<std::vector<std::size_t>> extra(nodes);
  for (ElemId r : net_.registers()) {
    HybridAnalyzer::append_register_chains(net_, fanout_, r, reg_chains_[r]);
    for (const HybridAnalyzer::RsnEdge& e : reg_chains_[r]) {
      std::size_t f = from_node(e.from_reg);
      std::size_t t = a_.scan_node(e.to_reg, 0);
      rsn_succ_[f].push_back(t);
      rsn_pred_[t].push_back(f);
      extra[f].push_back(t);
    }
  }
  // The committed fixpoint. run_worklist computes the unique least
  // fixpoint, so this equals what any later from-scratch propagation of
  // the same network produces, bit for bit.
  state_ = a_.run_worklist(extra, /*circuit_only=*/false);
  node_pairs_.assign(nodes, 0);
  for (std::size_t n = 0; n < nodes; ++n) {
    node_pairs_[n] = node_pair_count(n, state_[n]);
    pairs_ += node_pairs_[n];
  }
}

std::size_t HybridViolationIndex::node_pair_count(std::size_t node,
                                                  const TokenSet& st) const {
  netlist::ModuleId m = a_.owner_module_[node];
  if (m < 0) return 0;  // unannotated: transit only
  TrustCategory t = a_.spec_.policy(m).trust;
  return st.count_common(a_.tokens_.bad(t));
}

std::size_t HybridViolationIndex::from_node(ElemId reg) const {
  return a_.scan_node(reg, net_.elem(reg).ffs.size() - 1);
}

std::size_t HybridViolationIndex::violating_registers() const {
  std::size_t count = 0;
  for (ElemId r : net_.registers()) {
    const rsn::Element& e = net_.elem(r);
    if (e.module < 0) continue;
    TrustCategory t = a_.spec_.policy(e.module).trust;
    const TokenSet& bad = a_.tokens_.bad(t);
    for (std::size_t f = 0; f < e.ffs.size(); ++f) {
      if (state_[a_.scan_node(r, f)].intersects(bad)) {
        ++count;
        break;
      }
    }
  }
  return count;
}

const std::vector<std::pair<ElemId, std::size_t>>&
HybridViolationIndex::trial_fanout_of(ElemId x, Scratch& s) const {
  s.fanout_buf.clear();
  // Committed entries of unchanged consumers, merged with the trial-only
  // patch, both already in FanoutIndex order (consumer asc, port asc) —
  // so the merged sequence is bit-identical to FanoutIndex(trial).of(x).
  auto add_lo = std::lower_bound(
      s.fanout_adds.begin(), s.fanout_adds.end(), x,
      [](const auto& a, ElemId key) { return a.first < key; });
  auto add_hi = add_lo;
  while (add_hi != s.fanout_adds.end() && add_hi->first == x) ++add_hi;
  const std::vector<std::pair<ElemId, std::size_t>>* committed = nullptr;
  if (x < net_.num_elements()) committed = &fanout_.of(x);
  std::size_t ci = 0;
  const std::size_t cn = committed != nullptr ? committed->size() : 0;
  while (ci < cn || add_lo != add_hi) {
    bool take_committed;
    if (ci == cn) {
      take_committed = false;
    } else if ((*committed)[ci].first < s.changed_mark.size() &&
               s.changed_mark[(*committed)[ci].first] == s.epoch) {
      ++ci;  // consumer's input list changed: committed entry is stale
      continue;
    } else if (add_lo == add_hi) {
      take_committed = true;
    } else {
      take_committed = (*committed)[ci] < add_lo->second;
    }
    if (take_committed) {
      s.fanout_buf.push_back((*committed)[ci]);
      ++ci;
    } else {
      s.fanout_buf.push_back(add_lo->second);
      ++add_lo;
    }
  }
  return s.fanout_buf;
}

std::size_t HybridViolationIndex::delta_analysis(
    const Rsn& trial, const std::vector<ElemId>& edited, Scratch& s) const {
  count_delta_query();
  const std::size_t nodes = state_.size();
  const std::size_t elems =
      std::max(net_.num_elements(), trial.num_elements());
  if (s.state.size() < nodes) {
    s.state.resize(nodes);
    s.affected_mark.assign(nodes, 0);
    s.queued_mark.assign(nodes, 0);
    s.dirty_from_mark.assign(nodes, 0);
    s.holds_lost_mark.assign(nodes, 0);
  }
  if (s.changed_mark.size() < elems) {
    s.changed_mark.resize(elems, 0);
    s.vis_old_mark.resize(elems, 0);
    s.vis_new_mark.resize(elems, 0);
  }
  if (++s.epoch == 0) {  // epoch wrap: reset marks once per 2^32 queries
    std::fill(s.affected_mark.begin(), s.affected_mark.end(), 0u);
    std::fill(s.queued_mark.begin(), s.queued_mark.end(), 0u);
    std::fill(s.dirty_from_mark.begin(), s.dirty_from_mark.end(), 0u);
    std::fill(s.holds_lost_mark.begin(), s.holds_lost_mark.end(), 0u);
    std::fill(s.changed_mark.begin(), s.changed_mark.end(), 0u);
    std::fill(s.vis_old_mark.begin(), s.vis_old_mark.end(), 0u);
    std::fill(s.vis_new_mark.begin(), s.vis_new_mark.end(), 0u);
    s.epoch = 1;
  }

  // 1. Input-list diff of the edited elements (the only ones whose input
  //    vectors can differ): changed consumers (elements whose input
  //    vector differs, or that exist only in the trial), the drivers
  //    involved on either side (endpoints — every element whose fanout
  //    differs between the two structures has a representative among
  //    them), and the trial-side fanout patch entries of the changed
  //    consumers.
  s.endpoints.clear();
  s.fanout_adds.clear();
  for (ElemId id : edited) {
    const std::vector<ElemId>* old_in =
        id < net_.num_elements() ? &net_.elem(id).inputs : nullptr;
    const std::vector<ElemId>* new_in =
        id < trial.num_elements() ? &trial.elem(id).inputs : nullptr;
    if (old_in != nullptr && new_in != nullptr && *old_in == *new_in)
      continue;
    s.changed_mark[id] = s.epoch;
    if (old_in != nullptr) {
      for (ElemId x : *old_in)
        if (x != rsn::no_elem) s.endpoints.push_back(x);
    }
    if (new_in != nullptr) {
      for (std::size_t p = 0; p < new_in->size(); ++p) {
        ElemId x = (*new_in)[p];
        if (x == rsn::no_elem) continue;
        s.endpoints.push_back(x);
        s.fanout_adds.push_back({x, {id, p}});
      }
    }
  }
  std::sort(s.endpoints.begin(), s.endpoints.end());
  s.endpoints.erase(std::unique(s.endpoints.begin(), s.endpoints.end()),
                    s.endpoints.end());
  // Consumers were scanned ascending (journal_elements() is sorted; ports
  // ascending within each), so a stable sort by source keeps each
  // source's run in FanoutIndex order.
  std::stable_sort(s.fanout_adds.begin(), s.fanout_adds.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });

  //    Dirty registers: backward mux-walk from every endpoint under both
  //    structures (a register whose chains change in either direction
  //    must rebuild).
  s.dirty_regs.clear();
  for (ElemId x : s.endpoints) {
    if (x < net_.num_elements())
      collect_chain_sources(net_, x, s.vis_old_mark, s.epoch, s.chain_stack,
                            s.dirty_regs);
    collect_chain_sources(trial, x, s.vis_new_mark, s.epoch, s.chain_stack,
                          s.dirty_regs);
  }
  std::sort(s.dirty_regs.begin(), s.dirty_regs.end());
  s.dirty_regs.erase(std::unique(s.dirty_regs.begin(), s.dirty_regs.end()),
                     s.dirty_regs.end());

  // 2. Rebuild the dirty registers' chains under the trial structure
  //    (against the patched committed fanout) and derive the node-level
  //    edge sets on both sides.
  // Reuse the outer chain buffers across queries (clear keeps capacity).
  if (s.dirty_chains.size() < s.dirty_regs.size())
    s.dirty_chains.resize(s.dirty_regs.size());
  for (std::size_t i = 0; i < s.dirty_regs.size(); ++i)
    s.dirty_chains[i].clear();
  s.old_edges.clear();
  s.new_edges.clear();
  for (std::size_t i = 0; i < s.dirty_regs.size(); ++i) {
    ElemId r = s.dirty_regs[i];
    HybridAnalyzer::append_register_chains_fn(
        trial,
        [&](ElemId id) -> const std::vector<std::pair<ElemId, std::size_t>>& {
          return trial_fanout_of(id, s);
        },
        r, s.dirty_chains[i]);
    for (const HybridAnalyzer::RsnEdge& e : reg_chains_[r])
      s.old_edges.push_back(
          {from_node(e.from_reg), a_.scan_node(e.to_reg, 0)});
    for (const HybridAnalyzer::RsnEdge& e : s.dirty_chains[i])
      s.new_edges.push_back(
          {from_node(e.from_reg), a_.scan_node(e.to_reg, 0)});
    s.dirty_from_mark[from_node(r)] = s.epoch;
  }

  // 3. Removed/added inter-segment edges as multiset differences — an
  //    edge with equal multiplicity on both sides transports the same
  //    values and invalidates nothing.
  std::vector<std::pair<std::size_t, std::size_t>>& so = s.sorted_old;
  std::vector<std::pair<std::size_t, std::size_t>>& sn = s.sorted_new;
  so = s.old_edges;
  sn = s.new_edges;
  std::sort(so.begin(), so.end());
  std::sort(sn.begin(), sn.end());
  std::vector<std::pair<std::size_t, std::size_t>>& removed = s.edge_removed;
  std::vector<std::pair<std::size_t, std::size_t>>& added = s.edge_added;
  removed.clear();
  added.clear();
  std::set_difference(so.begin(), so.end(), sn.begin(), sn.end(),
                      std::back_inserter(removed));
  std::set_difference(sn.begin(), sn.end(), so.begin(), so.end(),
                      std::back_inserter(added));

  // 4. Shrink region: only values flowing over a removed edge can be
  //    lost anywhere, so a node whose committed value shares no token
  //    with `possibly_lost` can only grow — it need not be re-solved
  //    from scratch (growth is handled monotonically in step 5). The
  //    region is the forward closure, over the TRIAL graph, of the
  //    removed-edge heads, pruned at content-disjoint nodes: any
  //    committed support path of a lost token downstream of a removed
  //    edge consists of nodes all carrying that token, so every node
  //    that can actually lose a token is reached. This mirrors the
  //    oracle's sparsity — its push-based worklist also never touches
  //    token-free nodes, while an unfiltered structural closure drags
  //    in the whole dense circuit-closure fanout.
  TokenSet possibly_lost;
  for (const auto& e : removed) possibly_lost.merge(state_[e.first]);
  const std::size_t num_nodes = a_.num_nodes();
  if (possibly_lost.any()) {
    for (std::size_t n = 0; n < num_nodes; ++n)
      if (state_[n].intersects(possibly_lost)) s.holds_lost_mark[n] = s.epoch;
  }
  s.affected.clear();
  s.worklist.clear();
  auto discover = [&](std::size_t n) {
    if (s.affected_mark[n] == s.epoch) return;
    if (s.holds_lost_mark[n] != s.epoch) return;
    s.affected_mark[n] = s.epoch;
    s.affected.push_back(n);
    s.worklist.push_back(n);
  };
  for (const auto& e : removed) discover(e.second);
  auto for_each_trial_rsn_succ = [&](std::size_t n, auto&& fn) {
    if (s.dirty_from_mark[n] == s.epoch) {
      for (const auto& e : s.new_edges)
        if (e.first == n) fn(e.second);
    } else {
      for (std::size_t t : rsn_succ_[n]) fn(t);
    }
  };
  while (!s.worklist.empty()) {
    std::size_t n = s.worklist.back();
    s.worklist.pop_back();
    for (std::uint32_t t : a_.successors(n)) discover(t);
    for_each_trial_rsn_succ(n, discover);
  }

  // 5. Re-solve the fixpoint on the region (seed tokens plus committed
  //    values of outside trial-predecessors as boundary constants), with
  //    lazy monotone growth beyond it: a relaxation that would enlarge an
  //    outside node's committed value pulls that node into the overlay
  //    (committed ∪ growth, not reset) and keeps propagating. The start
  //    assignment is pointwise ≤ the trial's least fixpoint and every
  //    retained committed token keeps a support path untouched by the
  //    edit (it would otherwise carry a possibly-lost token into the
  //    region), so the chaotic iteration converges exactly to the
  //    trial's least fixpoint — bit-identical to the from-scratch run.
  s.worklist.clear();
  // A committed token outside `possibly_lost` keeps, at every node, a
  // support path no removed edge touched (losing it would require its
  // support to cross a removed edge, tagging it possibly-lost), so the
  // stripped committed value is a sound start below the trial's
  // fixpoint — only the possibly-lost part needs re-deriving. That in
  // turn means the only boundary contributions the strip didn't keep
  // come from predecessors *holding* possibly-lost tokens; they are few,
  // so they push their values into the region (touching only their own
  // out-edges) instead of every region node pulling its dense in-edges.
  for (std::size_t n : s.affected) {
    s.state[n] = state_[n];
    s.state[n].subtract(possibly_lost);
    if (a_.seed_token_[n] >= 0)
      s.state[n].set(static_cast<std::size_t>(a_.seed_token_[n]));
  }
  if (possibly_lost.any()) {
    for (std::size_t p = 0; p < num_nodes; ++p) {
      if (s.holds_lost_mark[p] != s.epoch || s.affected_mark[p] == s.epoch)
        continue;
      for (std::uint32_t t : a_.successors(p))
        if (s.affected_mark[t] == s.epoch) s.state[t].merge(state_[p]);
      // Committed inter-segment out-edges survive into the trial iff
      // their source register is not dirty; edges of dirty registers
      // are re-added from the rebuilt chains below.
      if (s.dirty_from_mark[p] != s.epoch)
        for (std::size_t t : rsn_succ_[p])
          if (s.affected_mark[t] == s.epoch) s.state[t].merge(state_[p]);
    }
  }
  auto enqueue = [&](std::size_t n) {
    if (s.queued_mark[n] != s.epoch) {
      s.queued_mark[n] = s.epoch;
      s.worklist.push_back(n);
    }
  };
  for (const auto& e : s.new_edges) {
    if (s.affected_mark[e.second] == s.epoch &&
        s.affected_mark[e.first] != s.epoch)
      s.state[e.second].merge(state_[e.first]);
  }
  // Only nodes that can deliver something a successor's init lacks —
  // possibly-lost tokens they retained or tokens gained beyond their
  // committed value — need to push (dirty-from nodes always do: their
  // rebuilt inter-segment edges may be new, with no init coverage).
  for (std::size_t n : s.affected) {
    TokenSet d = s.state[n];
    TokenSet base = state_[n];
    base.subtract(possibly_lost);
    d.subtract(base);
    if (d.any() || s.dirty_from_mark[n] == s.epoch) {
      s.queued_mark[n] = s.epoch;
      s.worklist.push_back(n);
    }
  }
  auto grow_to = [&](const TokenSet& fv, std::size_t to) {
    if (s.affected_mark[to] == s.epoch) {
      // contains-first: the common no-op push stays read-only instead of
      // rewriting (and dirtying) the target's cache lines via merge.
      if (!s.state[to].contains(fv)) {
        s.state[to].merge(fv);
        enqueue(to);
      }
    } else if (!state_[to].contains(fv)) {
      s.affected_mark[to] = s.epoch;
      s.affected.push_back(to);
      s.state[to] = state_[to];
      s.state[to].merge(fv);
      s.queued_mark[to] = s.epoch;
      s.worklist.push_back(to);
    }
  };
  // Added edges whose source stays outside the overlay deliver their
  // committed value exactly once here; overlay sources push from the
  // worklist below.
  for (const auto& e : added)
    if (s.affected_mark[e.first] != s.epoch)
      grow_to(state_[e.first], e.second);
  while (!s.worklist.empty()) {
    std::size_t n = s.worklist.back();
    s.worklist.pop_back();
    s.queued_mark[n] = s.epoch - 1;
    const TokenSet& nv = s.state[n];
    const bool dirty_from = s.dirty_from_mark[n] == s.epoch;
    // Push only what committed-edge targets can be missing (see above);
    // rebuilt inter-segment edges of dirty-from nodes may be brand new,
    // so they carry the full value.
    TokenSet push = state_[n];
    push.subtract(possibly_lost);
    TokenSet masked = nv;
    masked.subtract(push);
    if (masked.any()) {
      for (std::uint32_t t : a_.successors(n)) grow_to(masked, t);
      if (!dirty_from)
        for (std::size_t t : rsn_succ_[n]) grow_to(masked, t);
    }
    if (dirty_from)
      for (const auto& e : s.new_edges)
        if (e.first == n) grow_to(nv, e.second);
  }

  // 6. Pair-count delta over the affected nodes only.
  std::ptrdiff_t delta = 0;
  for (std::size_t n : s.affected) {
    delta += static_cast<std::ptrdiff_t>(node_pair_count(n, s.state[n]));
    delta -= static_cast<std::ptrdiff_t>(node_pairs_[n]);
  }
  return static_cast<std::size_t>(static_cast<std::ptrdiff_t>(pairs_) +
                                  delta);
}

std::size_t HybridViolationIndex::eval_trial(const Rsn& trial,
                                             const std::vector<ElemId>& edited,
                                             Scratch& scratch) const {
  return delta_analysis(trial, edited, scratch);
}

void HybridViolationIndex::commit(const Rsn& network,
                                  const std::vector<ElemId>& edited) {
  Scratch& s = commit_scratch_;
  const std::size_t new_pairs = delta_analysis(network, edited, s);
  for (std::size_t n : s.affected) {
    state_[n] = s.state[n];
    node_pairs_[n] = node_pair_count(n, state_[n]);
  }
  pairs_ = new_pairs;

  // Splice the rebuilt chains and node-level adjacency of the dirty
  // registers into the committed structures. rsn_pred_ lists are only
  // read for (idempotent, order-insensitive) boundary merges, so
  // filter-and-append is enough.
  if (reg_chains_.size() < network.num_elements())
    reg_chains_.resize(network.num_elements());
  std::vector<std::size_t> touched;
  for (const auto& e : s.old_edges) touched.push_back(e.second);
  for (const auto& e : s.new_edges) touched.push_back(e.second);
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (std::size_t t : touched) {
    std::vector<std::size_t>& lst = rsn_pred_[t];
    lst.erase(std::remove_if(lst.begin(), lst.end(),
                             [&](std::size_t f) {
                               return s.dirty_from_mark[f] == s.epoch;
                             }),
              lst.end());
  }
  for (std::size_t i = 0; i < s.dirty_regs.size(); ++i) {
    ElemId r = s.dirty_regs[i];
    rsn_succ_[from_node(r)].clear();
    reg_chains_[r] = std::move(s.dirty_chains[i]);
  }
  for (const auto& e : s.new_edges) {
    rsn_succ_[e.first].push_back(e.second);
    rsn_pred_[e.second].push_back(e.first);
  }
  net_.sync_from(network, edited);
  // Re-index the committed fanout (once per applied change; trials never
  // pay for it — they patch this index instead).
  fanout_ = rsn::FanoutIndex(net_);
}

void HybridViolationIndex::build_witness_index() {
  if (obs::TraceSession* trace = obs::TraceSession::active())
    trace->counter("hybrid.witness_index_builds").add(1);
  // Transpose of the analyzer's CSR by counting sort. Sources are scanned
  // ascending and each source's static successors precede its closure
  // ones, so every predecessor list is ordered by source, static first.
  const std::size_t nodes = a_.num_nodes();
  pred_off_.assign(nodes + 1, 0);
  for (std::uint32_t t : a_.succ_) ++pred_off_[t + 1];
  for (std::size_t n = 0; n < nodes; ++n) pred_off_[n + 1] += pred_off_[n];
  pred_.resize(a_.succ_.size());
  std::vector<std::uint64_t> cursor(pred_off_.begin(), pred_off_.end() - 1);
  for (std::size_t n = 0; n < nodes; ++n)
    for (std::uint32_t t : a_.successors(n))
      pred_[cursor[t]++] = static_cast<std::uint32_t>(n);
}

std::optional<HybridAnalyzer::Violation>
HybridViolationIndex::find_violation() {
  if (pairs_ == 0) return std::nullopt;
  if (pred_off_.empty()) build_witness_index();

  // Inter-segment predecessors by head node. Chains concatenated in
  // registers() order are build_rsn_edges' emission order; the stable
  // sort keeps that order among the predecessors of one head.
  struct RsnPred {
    std::size_t to, from;
    const HybridAnalyzer::RsnEdge* edge;
  };
  std::vector<RsnPred> rsn_preds;
  for (ElemId r : net_.registers())
    for (const HybridAnalyzer::RsnEdge& e : reg_chains_[r])
      rsn_preds.push_back(
          {a_.scan_node(e.to_reg, 0), from_node(e.from_reg), &e});
  std::stable_sort(
      rsn_preds.begin(), rsn_preds.end(),
      [](const RsnPred& x, const RsnPred& y) { return x.to < y.to; });

  // Backward BFS from the first victim to a seed of its first bad token,
  // over predecessors carrying it: fixed predecessors by source, then the
  // inter-segment ones. reference::hybrid_find_violation (tests) walks
  // the same order, and the witness and its cut candidates depend on it.
  // Only the nodes a search visits are reset after it.
  const std::size_t nodes = state_.size();
  std::vector<char> seen(nodes, 0);
  std::vector<std::size_t> parent(nodes);
  std::vector<const HybridAnalyzer::RsnEdge*> parent_edge(nodes);
  std::vector<std::size_t> queue;
  for (std::size_t victim = 0; victim < nodes; ++victim) {
    if (node_pairs_[victim] == 0) continue;
    TrustCategory t = a_.spec_.policy(a_.owner_module_[victim]).trust;
    const int tok = state_[victim].first_common(a_.tokens_.bad(t));
    const auto tok_bit = static_cast<std::size_t>(tok);

    queue.assign(1, victim);
    seen[victim] = 1;
    std::size_t seed = nodes;
    auto visit = [&](std::size_t cur, std::size_t p,
                     const HybridAnalyzer::RsnEdge* edge) {
      if (seen[p] != 0 || !state_[p].test(tok_bit)) return;
      seen[p] = 1;
      parent[p] = cur;
      parent_edge[p] = edge;
      queue.push_back(p);
    };
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const std::size_t cur = queue[qi];
      if (a_.seed_token_[cur] == tok && cur != victim) {
        seed = cur;
        break;
      }
      for (std::uint64_t i = pred_off_[cur]; i < pred_off_[cur + 1]; ++i)
        visit(cur, pred_[i], nullptr);
      auto lo = std::lower_bound(
          rsn_preds.begin(), rsn_preds.end(), cur,
          [](const RsnPred& x, std::size_t key) { return x.to < key; });
      for (; lo != rsn_preds.end() && lo->to == cur; ++lo)
        visit(cur, lo->from, lo->edge);
    }
    for (std::size_t n : queue) seen[n] = 0;
    // A victim whose token has no upstream seed cannot occur after spec
    // validation; skip it rather than report a path-less witness.
    if (seed == nodes) continue;

    HybridAnalyzer::Violation v;
    v.token = tok;
    v.victim_node = victim;
    for (std::size_t cur = seed;; cur = parent[cur]) {
      v.node_path.push_back(cur);
      if (parent_edge[cur] != nullptr)
        v.rsn_connections.insert(v.rsn_connections.end(),
                                 parent_edge[cur]->chain.begin(),
                                 parent_edge[cur]->chain.end());
      if (cur == victim) break;
    }
    return v;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// PureViolationIndex

PureViolationIndex::PureViolationIndex(const PureScanAnalyzer& analyzer,
                                       const Rsn& network)
    : a_(analyzer), net_(network), fanout_(network) {
  count_index_rebuild();
  state_ = a_.propagate(net_);
  reg_pairs_.assign(net_.num_elements(), 0);
  for (ElemId reg : net_.registers()) {
    TokenSet incoming;
    for (ElemId in : net_.elem(reg).inputs)
      if (in != rsn::no_elem) incoming.merge(state_[in]);
    reg_pairs_[reg] = register_pair_count(net_, reg, incoming);
    pairs_ += reg_pairs_[reg];
  }
}

std::size_t PureViolationIndex::register_pair_count(
    const Rsn& net, ElemId reg, const TokenSet& incoming) const {
  TrustCategory t = a_.spec_.policy(net.elem(reg).module).trust;
  return incoming.count_common(a_.tokens_.bad(t));
}

std::size_t PureViolationIndex::violating_registers() const {
  std::size_t count = 0;
  for (ElemId reg : net_.registers()) {
    TokenSet incoming;
    for (ElemId in : net_.elem(reg).inputs)
      if (in != rsn::no_elem) incoming.merge(state_[in]);
    if (a_.violates(net_, reg, incoming)) ++count;
  }
  return count;
}

std::size_t PureViolationIndex::delta_analysis(
    const Rsn& trial, const std::vector<ElemId>& edited, Scratch& s) const {
  count_delta_query();
  const std::size_t n = trial.num_elements();
  if (s.state.size() < n) {
    s.state.resize(n);
    s.affected_mark.resize(n, 0);
    s.pending.resize(n, 0);
    s.local_succ.resize(n);
  }
  if (++s.epoch == 0) {
    std::fill(s.affected_mark.begin(), s.affected_mark.end(), 0u);
    s.epoch = 1;
  }

  // Affected = forward closure of the elements whose input lists changed
  // (including elements that exist only in the trial; all of them are
  // among the edited elements). Everything else
  // keeps its committed attribute set: the propagation is a function of
  // the input lists and upstream values, both unchanged. The closure
  // expands over the *committed* fanout, which over-approximates: a
  // trial-removed edge only adds elements that recompute to their old
  // value, and every trial-added edge ends in a changed consumer — a
  // closure seed already.
  s.affected.clear();
  s.stack.clear();
  auto discover = [&](ElemId id) {
    if (s.affected_mark[id] == s.epoch) return;
    s.affected_mark[id] = s.epoch;
    s.affected.push_back(id);
    s.stack.push_back(id);
  };
  for (ElemId id : edited) {
    if (id >= net_.num_elements() ||
        trial.elem(id).inputs != net_.elem(id).inputs)
      discover(id);
  }
  while (!s.stack.empty()) {
    ElemId id = s.stack.back();
    s.stack.pop_back();
    if (id >= fanout_.size()) continue;  // trial-only: consumers are seeds
    for (const auto& [t, port] : fanout_.of(id)) discover(t);
  }

  // Kahn order restricted to the affected subgraph: in-degrees and
  // successor lists only over affected-to-affected trial edges, so this
  // stage costs O(affected region), not O(network). Unaffected inputs
  // are ready constants (the committed value).
  for (std::size_t id : s.affected) {
    s.pending[id] = 0;
    s.local_succ[id].clear();
  }
  for (std::size_t id : s.affected) {
    for (ElemId in : trial.elem(static_cast<ElemId>(id)).inputs) {
      if (in == rsn::no_elem || s.affected_mark[in] != s.epoch) continue;
      s.local_succ[in].push_back(static_cast<ElemId>(id));
      ++s.pending[id];
    }
  }
  auto value_of = [&](ElemId id) -> const TokenSet& {
    return s.affected_mark[id] == s.epoch ? s.state[id] : state_[id];
  };
  s.ready.clear();
  for (std::size_t id : s.affected)
    if (s.pending[id] == 0) s.ready.push_back(static_cast<ElemId>(id));
  while (!s.ready.empty()) {
    ElemId id = s.ready.back();
    s.ready.pop_back();
    s.state[id] = TokenSet{};
    const rsn::Element& e = trial.elem(id);
    for (ElemId in : e.inputs)
      if (in != rsn::no_elem) s.state[id].merge(value_of(in));
    if (e.kind == ElemKind::Register) {
      int tok = a_.register_token(trial, id);
      if (tok >= 0) s.state[id].set(static_cast<std::size_t>(tok));
    }
    for (ElemId t : s.local_succ[id])
      if (--s.pending[t] == 0) s.ready.push_back(t);
  }

  // Pair-count delta over affected registers (registers are never
  // created by repairs, so reg_pairs_ always has the old contribution).
  std::ptrdiff_t delta = 0;
  for (std::size_t id : s.affected) {
    const rsn::Element& e = trial.elem(static_cast<ElemId>(id));
    if (e.kind != ElemKind::Register) continue;
    TokenSet incoming;
    for (ElemId in : e.inputs)
      if (in != rsn::no_elem) incoming.merge(value_of(in));
    delta += static_cast<std::ptrdiff_t>(
        register_pair_count(trial, static_cast<ElemId>(id), incoming));
    delta -= static_cast<std::ptrdiff_t>(reg_pairs_[id]);
  }
  return static_cast<std::size_t>(static_cast<std::ptrdiff_t>(pairs_) +
                                  delta);
}

std::size_t PureViolationIndex::eval_trial(const Rsn& trial,
                                           const std::vector<ElemId>& edited,
                                           Scratch& scratch) const {
  return delta_analysis(trial, edited, scratch);
}

void PureViolationIndex::commit(const Rsn& network,
                                const std::vector<ElemId>& edited) {
  Scratch& s = commit_scratch_;
  const std::size_t new_pairs = delta_analysis(network, edited, s);
  if (state_.size() < network.num_elements())
    state_.resize(network.num_elements());
  if (reg_pairs_.size() < network.num_elements())
    reg_pairs_.resize(network.num_elements(), 0);
  for (std::size_t id : s.affected) state_[id] = s.state[id];
  for (std::size_t id : s.affected) {
    const rsn::Element& e = network.elem(static_cast<ElemId>(id));
    if (e.kind != ElemKind::Register) continue;
    TokenSet incoming;
    for (ElemId in : e.inputs)
      if (in != rsn::no_elem) incoming.merge(state_[in]);
    reg_pairs_[id] =
        register_pair_count(network, static_cast<ElemId>(id), incoming);
  }
  pairs_ = new_pairs;
  net_.sync_from(network, edited);
  fanout_ = rsn::FanoutIndex(net_);
}

std::optional<PureViolation> PureViolationIndex::find_violation() const {
  // Mirror of PureScanAnalyzer::find_violation, answered from the
  // committed propagation (same register order, same backward BFS).
  for (ElemId reg : net_.registers()) {
    TokenSet incoming;
    for (ElemId in : net_.elem(reg).inputs)
      if (in != rsn::no_elem) incoming.merge(state_[in]);
    TrustCategory t = a_.spec_.policy(net_.elem(reg).module).trust;
    int tok = incoming.first_common(a_.tokens_.bad(t));
    if (tok < 0) continue;

    PureViolation v;
    v.victim = reg;
    v.token = tok;
    std::vector<ElemId> parent(net_.num_elements(), rsn::no_elem);
    std::vector<bool> seen(net_.num_elements(), false);
    std::vector<ElemId> queue;
    seen[reg] = true;
    queue.push_back(reg);
    ElemId origin = rsn::no_elem;
    for (std::size_t qi = 0; qi < queue.size() && origin == rsn::no_elem;
         ++qi) {
      ElemId cur = queue[qi];
      for (ElemId in : net_.elem(cur).inputs) {
        if (in == rsn::no_elem || seen[in]) continue;
        if (!state_[in].test(static_cast<std::size_t>(tok))) continue;
        seen[in] = true;
        parent[in] = cur;
        if (net_.elem(in).kind == ElemKind::Register &&
            a_.register_token(net_, in) == tok) {
          origin = in;
          break;
        }
        queue.push_back(in);
      }
    }
    assert(origin != rsn::no_elem && "token present but no origin found");
    v.origin = origin;
    for (ElemId cur = origin; cur != rsn::no_elem; cur = parent[cur])
      v.path.push_back(cur);
    return v;
  }
  return std::nullopt;
}

}  // namespace rsnsec::security
