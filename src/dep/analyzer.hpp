#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "rsn/rsn.hpp"
#include "sat/literal.hpp"
#include "util/rng.hpp"
#include "util/tiled_matrix.hpp"

namespace rsnsec {
class ThreadPool;
}

namespace rsnsec::dep {

/// How 1-cycle dependencies are classified (Sec. III-A / Sec. IV-C).
enum class DepMode : std::uint8_t {
  /// SAT-exact: distinguish functional (path) from only-structural
  /// dependencies, with a random-simulation prefilter (method of [18]).
  Exact,
  /// Over-approximate path-dependency by structural dependency: every
  /// structural connection is treated as if data could propagate. Fast
  /// (no SAT), but introduces false-positive violations (Sec. IV-C).
  StructuralOnly
};

/// Options of the dependency analysis.
struct DepOptions {
  DepMode mode = DepMode::Exact;
  /// Bridge internal flip-flops out of the relation (Sec. III-A.2). The
  /// multi-cycle closure is cubic in the number of participating
  /// flip-flops, so bridging is what makes large circuits feasible.
  bool bridge_internal = true;
  /// Rounds of 256-pattern random simulation per cone before SAT (each
  /// round evaluates a 4x64-bit SIMD pattern block per leaf).
  int sim_rounds = 4;
  /// Per-query SAT conflict limit; on Unknown the dependency is
  /// conservatively classified as functional (sound for security).
  std::uint64_t sat_conflict_limit = 200000;
  /// Bound on the number of clock cycles the multi-cycle dependency may
  /// span (0 = unbounded fixpoint, the paper's setting). A bound
  /// under-approximates the attacker (who can wait arbitrarily many
  /// cycles) but is useful for "within k cycles" what-if studies, as the
  /// iterative computation of [18] supports. Note that with bridging
  /// enabled a bridged hop may itself span several cycles, so the bound
  /// is in bridged hops.
  std::size_t max_cycles = 0;
  /// Seed for the simulation prefilter patterns. Every cone draws its
  /// patterns from a private stream seeded as hash(seed, cone signature),
  /// so the analysis result is bit-identical for any num_threads — and,
  /// because isomorphic cones share a signature, one classification
  /// serves every cone of the same shape (the cone cache).
  std::uint64_t seed = 1;
  /// Worker threads for the cone fan-out and the closure's row blocks.
  /// 0 = auto: the RSNSEC_JOBS environment variable if set, else
  /// std::thread::hardware_concurrency(). Any value yields bit-identical
  /// results (see ThreadPool and the per-cone RNG streams). Ignored when
  /// `pool` is set.
  std::size_t num_threads = 0;
  /// External thread pool (not owned; must outlive run()). When set, the
  /// analysis runs its parallel phases on it instead of constructing a
  /// private pool. Execution knob like num_threads: results are
  /// bit-identical, so it is excluded from cache keys. The serve
  /// scheduler uses this to share one pool across concurrent requests.
  ThreadPool* pool = nullptr;
  /// Resident-byte budget per tiled matrix before tiles spill to
  /// `spill_backend` (0 = keep everything resident). Execution knob:
  /// results and every DepStats counter except the footprint pair
  /// tiles_spilled / matrix_bytes (resident bytes shrink with the budget)
  /// are identical for any budget, so it is not part of cache keys.
  std::uint64_t tile_spill_budget = 0;
  /// Out-of-core destination for spilled tiles (not owned; must outlive
  /// the analyzer). Typically a store::ArtifactSpillBackend. Ignored
  /// unless the budget is > 0.
  TileSpillBackend* spill_backend = nullptr;
};

/// Instrumentation counters of one analysis run.
struct DepStats {
  std::size_t circuit_ffs = 0;
  std::size_t internal_ffs = 0;          ///< bridged out (Sec. III-A.2)
  std::size_t denoted_ffs_before = 0;    ///< FFs with >= 1 dependency, pre-bridge
  std::size_t denoted_ffs_after = 0;
  std::size_t deps_before_bridging = 0;  ///< denoted 1-cycle dependencies
  std::size_t deps_after_bridging = 0;
  std::size_t closure_deps = 0;          ///< multi-cycle dependencies
  std::size_t closure_path_deps = 0;
  std::uint64_t sim_resolved = 0;  ///< functional deps proven by simulation
  /// Only-structural deps proven by the pair-ternary evaluator (each one
  /// is a SAT query avoided).
  std::uint64_t ternary_resolved = 0;
  std::uint64_t sat_calls = 0;
  std::uint64_t sat_functional = 0;
  std::uint64_t sat_structural = 0;
  /// Queries that exhausted DepOptions::sat_conflict_limit; each is
  /// conservatively classified as a functional (Path) dependency.
  std::uint64_t sat_unknown = 0;
  /// Cones whose classification was reused from an isomorphic cone. All
  /// other classification counters report the logical work — a cache hit
  /// replicates the representative's sim/SAT counters.
  std::uint64_t cone_cache_hits = 0;
  /// Solver work counters. Unlike the classification counters above,
  /// these measure *actual* work: they are aggregated once per
  /// isomorphism-group representative, not replicated per cache member,
  /// so they shrink as the cone cache and the incremental machinery bite.
  std::uint64_t solver_solves = 0;    ///< solver solve() calls issued
  std::uint64_t solver_conflicts = 0;
  std::uint64_t solver_decisions = 0;
  std::uint64_t solver_propagations = 0;
  std::uint64_t solver_restarts = 0;
  std::uint64_t solver_learned = 0;
  std::uint64_t lbd_protected = 0;       ///< glue clauses (LBD <= 2) learned
  std::uint64_t inprocessing_rounds = 0;
  std::uint64_t cores_reused = 0;        ///< leaves discharged by Unsat cores
  std::uint64_t rotation_witnesses = 0;  ///< leaves discharged by rotation
  std::uint64_t shared_clauses = 0;      ///< clauses imported from iso cones
  /// Regions of the deterministic partition. A pure function of the
  /// circuit — independent of num_threads — so it is part of the logical
  /// result and cached in snapshots.
  std::size_t regions = 0;
  /// Resident heap bytes of the one-cycle + closure matrices.
  std::uint64_t matrix_bytes = 0;
  std::uint64_t tiles_nonzero = 0;  ///< denoted 64x64 tiles
  std::uint64_t tiles_spilled = 0;  ///< cumulative spill evictions this run
  std::size_t threads_used = 0;  ///< resolved parallelism of the run
  /// Per-phase wall-clock seconds (cone classification incl. the
  /// simulation prefilter and SAT, internal-FF bridging, multi-cycle
  /// closure); t_one_cycle also covers the capture-cone classification.
  double t_one_cycle = 0.0;
  double t_bridge = 0.0;
  double t_closure = 0.0;
};

/// A 1-cycle dependency of a scan flip-flop on a circuit flip-flop,
/// established by the scan FF's capture cone.
struct CaptureDep {
  netlist::NodeId circuit_ff;
  DepKind kind;
};

/// Data-flow dependency analysis over the circuit logic (Sec. III-A).
///
/// Computes, for the circuit underlying an RSN:
///  - the 1-cycle dependency of every circuit flip-flop on every other
///    (functional vs. only-structural, SAT-exact in DepMode::Exact);
///  - the 1-cycle dependencies of each scan flip-flop on circuit flip-flops
///    through its capture cone;
///  - the bridged relation with all internal flip-flops (those not directly
///    connected to the RSN, i.e. neither a capture-cone leaf nor an update
///    target) composed out;
///  - the multi-cycle closure of the circuit relation.
///
/// Deliberately computed *without* RSN-internal connections: the security
/// resolution rewires the RSN repeatedly, and this relation stays valid
/// across all rewirings (see the end of Sec. III-A).
class DependencyAnalyzer {
 public:
  DependencyAnalyzer(const netlist::Netlist& nl, const rsn::Rsn& network,
                     DepOptions options = {});

  /// Runs the full analysis pipeline.
  void run();

  /// Multi-cycle circuit-internal dependency closure (after bridging).
  /// Entry (i, j): dependency of circuit FF j on circuit FF i, indices via
  /// circuit_index().
  const TiledDepMatrix& circuit_closure() const { return closure_; }

  /// 1-cycle circuit relation before bridging (kept for tests/ablation).
  const TiledDepMatrix& one_cycle() const { return one_cycle_; }

  /// Closure entry (i, j) by dense index.
  DepKind closure_at(std::size_t i, std::size_t j) const {
    return closure_.get(i, j);
  }

  /// Dense indices j with a Path closure dependency of FF j on FF i,
  /// ascending, read off the tiled closure without a dense matrix.
  std::vector<std::size_t> closure_path_successors(std::size_t i) const {
    return closure_.path_successors(i);
  }

  /// Dense index of a circuit flip-flop node.
  std::size_t circuit_index(netlist::NodeId ff) const {
    return ff_index_[static_cast<std::size_t>(ff)];
  }

  /// Circuit flip-flop node at dense index i.
  netlist::NodeId circuit_ff(std::size_t i) const { return ff_nodes_[i]; }

  /// Number of circuit flip-flops in the relation.
  std::size_t num_circuit_ffs() const { return ff_nodes_.size(); }

  /// True if the circuit FF at dense index i is internal (bridged out).
  bool is_internal(std::size_t i) const { return internal_[i]; }

  /// Capture dependencies of scan FF `ff` of register `reg`.
  const std::vector<CaptureDep>& capture_deps(rsn::ElemId reg,
                                              std::size_t ff) const;

  /// Multi-cycle dependency of circuit FF `to` on circuit FF `from`.
  DepKind circuit_dep(netlist::NodeId from, netlist::NodeId to) const {
    return closure_at(circuit_index(from), circuit_index(to));
  }

  const DepStats& stats() const { return stats_; }
  const DepOptions& options() const { return options_; }

  /// The analysis inputs. Exposed so the artifact store can derive the
  /// content-addressed cache key from an analyzer without re-threading
  /// circuit and network through every call site.
  const netlist::Netlist& circuit() const { return nl_; }
  const rsn::Rsn& network() const { return rsn_; }

  /// Complete result state of a finished run(), in a form that can be
  /// serialized and replayed into a fresh analyzer of the same inputs
  /// (src/store caches these across processes). The dense FF index is
  /// not part of the snapshot — it is a cheap pure function of the
  /// circuit and recomputed on restore.
  struct AnalysisSnapshot {
    std::vector<bool> internal;
    TiledDepMatrix one_cycle;
    TiledDepMatrix closure;
    std::vector<std::vector<std::vector<CaptureDep>>> capture_deps;
    DepStats stats;
  };

  /// Captures the result state. Valid only after run() (or a successful
  /// restore()).
  AnalysisSnapshot snapshot() const;

  /// Replays a snapshot into this analyzer as if run() had produced it.
  /// Validates every shape against the analyzer's own circuit and RSN
  /// (matrix dimensions, register/scan-FF layout, capture-dependency
  /// node ids); on mismatch returns false, fills `error`, and leaves the
  /// analyzer unusable for queries (callers fall back to run()). The
  /// wall-clock fields of the restored stats are zeroed and threads_used
  /// is 0 — "served from the store" does no analysis work.
  bool restore(AnalysisSnapshot snap, std::string* error = nullptr);

 private:
  const netlist::Netlist& nl_;
  const rsn::Rsn& rsn_;
  DepOptions options_;

  std::vector<netlist::NodeId> ff_nodes_;
  std::vector<std::size_t> ff_index_;  // NodeId -> dense index
  std::vector<bool> internal_;
  TiledDepMatrix one_cycle_;
  TiledDepMatrix closure_;
  /// Deterministic region partition: region r covers dense
  /// indices [region_first_block_[r] * 64, region_first_block_[r+1] * 64);
  /// the last entry is the sentinel num_blocks. 64-aligned so a region's
  /// intra-region dependencies live entirely in diagonal-block tiles.
  std::vector<std::size_t> region_first_block_;
  // capture_deps_[register slot][ff index]
  std::vector<std::vector<std::vector<CaptureDep>>> capture_deps_;
  // Capture cones, extracted once per scan FF (classify_internal needs
  // the leaves, compute_one_cycle the full cone); same indexing.
  std::vector<std::vector<netlist::Cone>> capture_cones_;
  std::vector<std::size_t> reg_slot_;
  DepStats stats_;
  /// Live only during run(); loops run inline when it is null.
  ThreadPool* pool_ = nullptr;

  /// Dependency of the cone root on cone.leaves[leaf_idx], positionally:
  /// isomorphic cones (equal signatures) share these verdicts, each cone
  /// translating leaf_idx back to its own leaf node.
  struct LeafDep {
    std::size_t leaf_idx;
    DepKind kind;
  };

  /// Clause-sharing hookup of one cone_deps call. `leaf_to_canon` is the
  /// cone's canonical leaf permutation (dep/clause_share.hpp); `import`
  /// holds clauses (in canonical numbering) from an isomorphic cone's
  /// checker to install before querying; `export_to`, when non-null, is
  /// filled with this checker's learned clauses after querying.
  struct ShareInfo {
    const std::vector<std::uint32_t>* leaf_to_canon = nullptr;
    const std::vector<sat::Clause>* import = nullptr;
    std::vector<sat::Clause>* export_to = nullptr;
  };

  void build_index();
  /// Splits the dense index range into contiguous, 64-aligned regions
  /// along module boundaries. Pure function of the circuit —
  /// independent of num_threads — so partitioned results are reproducible.
  void partition_regions();
  /// Recomputes the footprint stats (matrix_bytes, tiles_nonzero,
  /// tiles_spilled) from the live matrices.
  void refresh_matrix_stats();
  void extract_capture_cones();
  void classify_internal();
  /// Classifies the dependencies of the cone root on the cone's flip-flop
  /// leaves (functional vs. only-structural). Thread-safe: draws patterns
  /// from the caller-provided RNG stream and accumulates the sim/SAT
  /// counters into `stats` (a per-task instance when run in parallel).
  std::vector<LeafDep> cone_deps(const netlist::Cone& cone, Rng& rng,
                                 DepStats& stats,
                                 const ShareInfo* share = nullptr) const;
  void compute_one_cycle();
  void bridge_internal();
  void compute_closure();
};

}  // namespace rsnsec::dep
