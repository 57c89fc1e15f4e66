#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rsn/access.hpp"
#include "rsn/rsn.hpp"

namespace rsnsec {
class ThreadPool;
}

namespace rsnsec::security {

/// Candidate-selection strategy of the resolution loops (pure and
/// hybrid). [17] generates multiple repair candidates per violation and
/// applies the cheapest; the strategies below trade repair quality
/// against trial-evaluation cost (see bench/ablation_resolution).
enum class ResolutionPolicy : std::uint8_t {
  /// Evaluate every (cut, reconnect) candidate; apply the one leaving the
  /// fewest violating pairs, breaking ties by wiring cost. Default.
  BestGlobal,
  /// Apply the first candidate that reduces the violating-pair count
  /// (path order). Fewer trial propagations, possibly more changes.
  FirstImproving,
  /// Like FirstImproving, but try the reconnect-to-scan-in variant first
  /// (aggressively isolating upstream flow).
  PreferScanIn
};

/// Execution options of the detect-and-resolve loops (pure and hybrid).
struct ResolveOptions {
  /// Worker threads for candidate trial evaluation. 0 = auto:
  /// RSNSEC_JOBS if set, else hardware concurrency.
  /// Any value yields bit-identical results (in-order selection).
  /// Ignored when `pool` is set.
  std::size_t num_threads = 0;
  /// External thread pool for the trial evaluation (not owned; must
  /// outlive the resolve call). When set, the loops run on it instead of
  /// constructing a private pool — the serve scheduler shares one pool
  /// across every concurrent request, so total worker threads stay
  /// bounded by the machine, not by tenant count. Safe because
  /// ThreadPool's loops are caller-participating and independent batches
  /// from different requests interleave without blocking each other.
  ThreadPool* pool = nullptr;
};

/// Statistics of one detect-and-resolve run (pure or hybrid stage).
struct ResolveStats {
  std::size_t initial_violating_registers = 0;  ///< Table I col. 5 input
  std::size_t initial_violating_pairs = 0;
  int applied_changes = 0;  ///< Table I "pure" / "hybrid" changes column
  int rewire_operations = 0;
  int fallback_isolations = 0;
};

/// One concrete RSN connection (driver `from` feeding input `port` of
/// `to`), the unit the resolution step cuts.
struct Connection {
  rsn::ElemId from = rsn::no_elem;
  rsn::ElemId to = rsn::no_elem;
  std::size_t port = 0;

  bool operator==(const Connection&) const = default;
};

/// Record of one applied repair (for reporting and the #Applied-Changes
/// columns of Table I).
struct AppliedChange;

/// Observer the resolution loops invoke after each applied change, with
/// the already-modified network. SecureFlowTool uses it to run the lint
/// invariant pass after every rewire (PipelineOptions::verify_invariants);
/// exceptions thrown from the callback abort the resolution.
using ChangeCallback =
    std::function<void(const rsn::Rsn&, const AppliedChange&)>;

struct AppliedChange {
  enum class Kind : std::uint8_t { CutConnection, IsolateRegister };
  Kind kind = Kind::CutConnection;
  Connection cut;             ///< for CutConnection
  rsn::ElemId isolated = rsn::no_elem;  ///< for IsolateRegister
  int rewire_operations = 0;  ///< individual wiring edits performed
  std::string note;
};

/// Long-lived per-worker copies of the committed network, on which
/// Rewirer::select_cut_parallel applies, scores and rolls back candidate
/// cuts through the Rsn edit journal instead of copying the network per
/// trial. A workspace is claimed per chunk of the parallel trial loop (a
/// chunk index is not a thread id), so at most one exists per
/// concurrently running chunk — at most `capacity`, the thread count of
/// the pool running the trials. Workspaces are created on first claim
/// and kept equal to the committed network by sync() after every change
/// applied to it.
class TrialWorkspaces {
 public:
  /// `committed` is the network being resolved; it must outlive the pool.
  TrialWorkspaces(const rsn::Rsn& committed, std::size_t capacity);

  const rsn::Rsn& committed() const { return committed_; }

  /// Upper bound on the number of workspaces (and on slot indices).
  std::size_t capacity() const { return nets_.size(); }

  /// One claimed workspace; released on destruction, after rolling back
  /// a journal a failed trial left open.
  class Claim {
   public:
    explicit Claim(TrialWorkspaces& pool);
    ~Claim();
    Claim(const Claim&) = delete;
    Claim& operator=(const Claim&) = delete;

    /// Index of the workspace, in [0, capacity()); stable for the
    /// workspace's lifetime, so callers can key per-worker scratch by it.
    std::size_t slot() const { return slot_; }
    rsn::Rsn& network() { return *pool_.nets_[slot_]; }

   private:
    TrialWorkspaces& pool_;
    std::size_t slot_;
  };

  /// Replays the committed network's latest applied edit on every
  /// workspace created so far; `edited` is that edit's journal_elements().
  /// Called between trial loops, never while a workspace is claimed.
  void sync(const std::vector<rsn::ElemId>& edited);

 private:
  const rsn::Rsn& committed_;
  std::vector<std::unique_ptr<rsn::Rsn>> nets_;  ///< null until claimed
  std::size_t created_ = 0;
  std::vector<std::size_t> free_;
  std::mutex mutex_;
};

/// Structural repair operations on an RSN, implementing the reconnection
/// rules of Sec. III-D:
///  - segments never dangle: a register (or the scan-out port) that loses
///    its driver is reconnected to a pre-cut multi-cycle predecessor
///    (which cannot create a cycle), else to the scan-in port;
///  - an element that loses all fanout is attached to a pre-cut
///    multi-cycle successor (adding a mux input, or inserting a fresh
///    2:1 mux in front of a register), else routed to the scan-out port;
///  - the scan network stays cycle-free and keeps every scan register.
class Rewirer {
 public:
  /// Cuts `c` from the acyclic `network` and repairs both sides. Returns
  /// the number of individual wiring operations performed (>= 1).
  ///
  /// `fanout` must index `network` as it is before the cut (the resolver
  /// passes its violation index's committed fanout): the repairs read the
  /// source's pre-cut fanout and multi-cycle successors from it.
  ///
  /// `reconnect_hint` selects the new driver for a dangling to-side input:
  /// by default the first multi-cycle predecessor is chosen (reconnecting
  /// a predecessor never closes a cycle); passing the scan-in port (or
  /// another element that keeps the network acyclic) forces that driver
  /// instead. The resolution loop evaluates both
  /// variants as separate repair candidates ([17]: "multiple candidates
  /// to resolve that violation were generated and evaluated").
  static int cut_connection(rsn::Rsn& network, const rsn::FanoutIndex& fanout,
                            const Connection& c,
                            rsn::ElemId reconnect_hint = rsn::no_elem);

  /// As above, indexing `network`'s fanout first (one-off cuts).
  static int cut_connection(rsn::Rsn& network, const Connection& c,
                            rsn::ElemId reconnect_hint = rsn::no_elem);

  /// True if cut_connection(network, fanout, c, hint) produces the same
  /// network for every hint (the cut shrinks a multi-input mux and does
  /// not orphan its source, so no dangling-input repair consults the
  /// hint). The selection loop evaluates such cuts once instead of per
  /// hint.
  static bool cut_is_hint_insensitive(const rsn::Rsn& network,
                                      const rsn::FanoutIndex& fanout,
                                      const Connection& c);

  /// Removes every outgoing connection of register `reg` and routes its
  /// output directly to the scan-out port; downstream dangling inputs are
  /// repaired. This is the guaranteed-progress fallback of the resolution
  /// loop: after isolation no data can leave `reg` over the scan
  /// infrastructure. Returns the number of wiring operations.
  static int isolate_register_output(rsn::Rsn& network, rsn::ElemId reg);

  /// All current connections of `network`.
  static std::vector<Connection> all_connections(const rsn::Rsn& network);

  /// Outcome of trial-evaluating repair candidates.
  struct Selection {
    bool found = false;
    Connection cut;
    rsn::ElemId reconnect_hint = rsn::no_elem;
    std::size_t residual_pairs = 0;
    int operations = 0;
  };

  /// Counts the violating pairs of one trial: `trial` is a workspace with
  /// one candidate cut applied, `edited` its journal_elements(), and
  /// `slot` the workspace's slot, by which the scorer keys per-worker
  /// scratch. Called concurrently for different slots.
  using TrialScorer = std::function<std::size_t(
      const rsn::Rsn& trial, const std::vector<rsn::ElemId>& edited,
      std::size_t slot)>;

  /// Trial-evaluates cutting each candidate from the committed network of
  /// `workspaces` (with both reconnection variants, except where
  /// cut_is_hint_insensitive) and selects per `policy`. `fanout` indexes
  /// the committed network. Only candidates that strictly reduce the
  /// violating-pair count below `current_pairs` qualify. Every
  /// (cut, reconnect) trial is applied to a claimed workspace, scored and
  /// rolled back, concurrently on `pool`; the selection then scans the
  /// results in nested (candidate, hint) order, exactly as a sequential
  /// first-to-last loop would — so the Selection is identical for any
  /// thread count. (FirstImproving/PreferScanIn evaluate trials past the
  /// one selected; only side-effect-free scorers may observe that.)
  static Selection select_cut_parallel(
      TrialWorkspaces& workspaces, const rsn::FanoutIndex& fanout,
      const std::vector<Connection>& candidates, const TrialScorer& score,
      std::size_t current_pairs, ResolutionPolicy policy, ThreadPool& pool);

 private:
  /// First element of Rsn::reaching(to) other than `avoid` that can
  /// drive an input (not the scan-out port), or no_elem.
  static rsn::ElemId first_predecessor(const rsn::Rsn& network,
                                       rsn::ElemId to, rsn::ElemId avoid);
  /// First register or mux of Rsn::reachable_from(from) other than
  /// `avoid`, read from `fanout`, or no_elem.
  static rsn::ElemId first_successor(const rsn::Rsn& network,
                                     const rsn::FanoutIndex& fanout,
                                     rsn::ElemId from, rsn::ElemId avoid);
  static int repair_dangling_input(rsn::Rsn& network, rsn::ElemId to,
                                   std::size_t port, rsn::ElemId pre_pred,
                                   rsn::ElemId avoid, rsn::ElemId hint);
  static int repair_lost_fanout(rsn::Rsn& network, rsn::ElemId from,
                                rsn::ElemId pre_succ, rsn::ElemId avoid);
  static int attach_to_scan_out_avoiding(rsn::Rsn& network, rsn::ElemId from,
                                         rsn::ElemId avoid);
  static bool closes_cycle(const rsn::Rsn& network, rsn::ElemId driver,
                           rsn::ElemId consumer);
};

}  // namespace rsnsec::security
