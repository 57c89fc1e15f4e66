#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/specgen.hpp"
#include "core/report.hpp"
#include "core/tool.hpp"
#include "store/artifact_store.hpp"

namespace rsnsec::bench {

/// Sweep parameters of the Table I reproduction. The paper uses 10 random
/// circuits x 16 random specifications per benchmark on server hardware;
/// the defaults here are scaled down so the whole harness runs in minutes
/// (override via environment: RSNSEC_CIRCUITS, RSNSEC_SPECS,
/// RSNSEC_TARGET_FFS).
struct SweepOptions {
  int circuits_per_benchmark = 3;   ///< paper: 10
  int specs_per_circuit = 6;        ///< paper: 16
  /// Networks are scaled so their scan-FF count is at most this value.
  std::size_t target_ffs = 400;
  /// ... and their register count is at most this value. Registers and
  /// FFs scale independently: FF-heavy benchmarks (q12710, a586710, ...)
  /// keep their register structure while register widths shrink.
  std::size_t target_regs = 48;
  std::uint64_t base_seed = 1;
  /// Concurrent (circuit, spec) runs per benchmark (0 = auto from
  /// RSNSEC_JOBS / hardware concurrency). Runs are independent — each
  /// works on its own network copy — and the averages are accumulated in
  /// (circuit, spec) order, so the reported row is identical for any
  /// value.
  std::size_t jobs = 0;
  benchgen::SpecOptions spec;
  PipelineOptions pipeline;
};

/// Reads sweep options from the environment (falling back to defaults).
/// When RSNSEC_STORE names a directory, pipeline.store is pointed at a
/// process-lifetime ArtifactStore rooted there (see store_from_env), so
/// a warm sweep serves every dependency analysis from the cache.
SweepOptions sweep_options_from_env();

/// Process-lifetime artifact store rooted at $RSNSEC_STORE, opened on
/// first call; nullptr when the variable is unset or the directory
/// cannot be created (a broken store must not fail a benchmark run —
/// the sweep falls back to recomputing).
store::ArtifactStore* store_from_env();

/// A generated (network, circuit) instance ready for specification runs.
struct Instance {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;
};

/// Generates instance `circuit_idx` of the named benchmark ("BasicSCB"
/// ... "FlexScan" or "MBIST_n_m_o").
Instance make_instance(const std::string& name, const SweepOptions& opt,
                       int circuit_idx);

/// Specification `spec_idx` for instance `circuit_idx`: the one spec
/// recipe of every harness, seeded from (base seed, circuit, spec).
security::SecuritySpec make_spec(const Instance& inst, const SweepOptions& opt,
                                 int circuit_idx, int spec_idx);

/// Published Table I reference values for side-by-side printing.
struct PaperRow {
  const char* name;
  double viol_regs, pure, hybrid, total;  ///< columns 5-8
  double t_dep, t_pure, t_hybrid, t_total;
};

/// Reference row for `name`, if the paper reports one.
std::optional<PaperRow> paper_row(const std::string& name);

/// Runs the full sweep for one benchmark and returns the averaged row.
/// Specs whose runs find no violation, or whose circuit logic is
/// statically insecure, are skipped and counted (the paper averages
/// "over all security specifications, where a security violation
/// occurred, but the circuit logic itself is not insecure").
BenchRow run_benchmark(const std::string& name, const SweepOptions& opt);

/// Prints the paper's reference block under a reproduced table.
void print_paper_reference(std::ostream& os,
                           const std::vector<std::string>& names);

/// Env-driven tracing for the benchmark harnesses: when RSNSEC_TRACE
/// names a file, installs a process-wide obs::TraceSession for the
/// lifetime of this object and writes the chrome://tracing JSON there on
/// destruction; when RSNSEC_METRICS is set (any non-empty value), prints
/// the counter/span summary to stderr as well. A no-op when neither
/// variable is set.
class TraceFromEnv {
 public:
  TraceFromEnv();
  ~TraceFromEnv();

  TraceFromEnv(const TraceFromEnv&) = delete;
  TraceFromEnv& operator=(const TraceFromEnv&) = delete;

 private:
  struct Impl;
  Impl* impl_ = nullptr;
};

}  // namespace rsnsec::bench
