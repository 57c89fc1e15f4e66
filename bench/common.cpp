#include "bench/common.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace rsnsec::bench {

namespace {

std::uint64_t env_or(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

/// Parses "MBIST_n_m_o" into its dimensions; returns false otherwise.
bool parse_mbist(const std::string& name, std::size_t dims[3]) {
  if (name.rfind("MBIST_", 0) != 0) return false;
  std::size_t pos = 6;
  for (int i = 0; i < 3; ++i) {
    std::size_t next = name.find('_', pos);
    std::string piece = name.substr(pos, next == std::string::npos
                                             ? std::string::npos
                                             : next - pos);
    dims[i] = std::strtoull(piece.c_str(), nullptr, 10);
    if (dims[i] == 0) return false;
    pos = next + 1;
  }
  return true;
}

}  // namespace

SweepOptions sweep_options_from_env() {
  SweepOptions opt;
  opt.circuits_per_benchmark =
      static_cast<int>(env_or("RSNSEC_CIRCUITS", 3));
  opt.specs_per_circuit = static_cast<int>(env_or("RSNSEC_SPECS", 6));
  opt.target_ffs = env_or("RSNSEC_TARGET_FFS", 400);
  opt.target_regs = env_or("RSNSEC_TARGET_REGS", 48);
  opt.base_seed = env_or("RSNSEC_SEED", 1);
  opt.jobs = env_or("RSNSEC_JOBS", 0);
  // Sparse specifications: a couple of protected instruments and few
  // low-trust ones, matching the violating-register densities of Table I.
  opt.spec.expected_sensitive_modules = 2.5;
  opt.spec.low_trust_prob = 0.1;
  opt.pipeline.store = store_from_env();
  return opt;
}

store::ArtifactStore* store_from_env() {
  struct Holder {
    std::unique_ptr<store::ArtifactStore> store;
    Holder() {
      const char* dir = std::getenv("RSNSEC_STORE");
      if (dir == nullptr || *dir == '\0') return;
      try {
        store = std::make_unique<store::ArtifactStore>(dir);
      } catch (const std::exception& e) {
        std::cerr << "bench: ignoring RSNSEC_STORE: " << e.what() << "\n";
      }
    }
  };
  static Holder holder;
  return holder.store.get();
}

Instance make_instance(const std::string& name, const SweepOptions& opt,
                       int circuit_idx) {
  Instance inst;
  // Per-benchmark seed (FNV-1a over the name) so same-sized profiles
  // still get distinct instances.
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : name) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  Rng rng(opt.base_seed * 7919 + h + static_cast<std::uint64_t>(circuit_idx));
  std::size_t dims[3];
  if (parse_mbist(name, dims)) {
    // Full register count without building the network:
    // regs = 2 + n*(11 + m*(5 + 3o)).
    double full_regs = 2.0 + static_cast<double>(dims[0]) *
                                 (11.0 + static_cast<double>(dims[1]) *
                                             (5.0 + 3.0 * dims[2]));
    double scale = std::min(
        1.0, 2.0 * static_cast<double>(opt.target_regs) / full_regs);
    inst.doc = benchgen::generate_mbist(dims[0], dims[1], dims[2], scale);
  } else {
    // Scale registers and FFs independently so FF-heavy benchmarks keep
    // their register structure.
    benchgen::BenchmarkProfile p = benchgen::bastion_profile(name);
    std::size_t orig_regs = p.registers;
    if (p.topology == benchgen::Topology::SerialMux) {
      // FlexScan's identity is "many 1-FF registers": the FF budget is
      // the register budget.
      p.registers = std::min(p.registers,
                             std::max(opt.target_regs, opt.target_ffs));
      p.scan_ffs = p.registers;
    } else {
      p.registers = std::min(p.registers, opt.target_regs);
      p.scan_ffs = std::min(p.scan_ffs, std::max(p.registers,
                                                 opt.target_ffs));
    }
    p.muxes = std::max<std::size_t>(
        1, p.muxes * p.registers / std::max<std::size_t>(1, orig_regs));
    inst.doc = benchgen::generate_bastion(p, 1.0, rng);
  }
  // Cross-module circuit connectivity grows with the module count so
  // hybrid-path substrate exists at every network size.
  benchgen::CircuitOptions copt;
  double modules = static_cast<double>(inst.doc.module_names.size());
  copt.target_cross_functional = std::clamp(1.0 * modules, 4.0, 128.0);
  copt.target_cross_structural = std::clamp(0.6 * modules, 5.0, 80.0);
  inst.circuit = benchgen::attach_random_circuit(inst.doc, copt, rng);
  return inst;
}

security::SecuritySpec make_spec(const Instance& inst, const SweepOptions& opt,
                                 int circuit_idx, int spec_idx) {
  Rng rng(opt.base_seed * 104729 +
          static_cast<std::uint64_t>(circuit_idx) * 1000 +
          static_cast<std::uint64_t>(spec_idx));
  return benchgen::random_spec(inst.doc.module_names.size(), opt.spec, rng);
}

BenchRow run_benchmark(const std::string& name, const SweepOptions& opt) {
  RowAccumulator acc(name);
  ThreadPool pool(ThreadPool::resolve_num_threads(opt.jobs));

  // The sweep parallelizes at the (circuit, spec) granularity: the
  // outermost independent unit, mirroring how the paper's 10 x 16 grid
  // is embarrassingly parallel. When the sweep itself is concurrent, the
  // per-run dependency analysis defaults to 1 thread so the machine is
  // not oversubscribed quadratically (an explicit pipeline.dep
  // num_threads is honored).
  PipelineOptions popt = opt.pipeline;
  if (pool.num_threads() > 1 && popt.dep.num_threads == 0)
    popt.dep.num_threads = 1;

  const std::size_t circuits =
      static_cast<std::size_t>(opt.circuits_per_benchmark);
  const std::size_t specs = static_cast<std::size_t>(opt.specs_per_circuit);

  // Instances are deterministic functions of (name, opt, ci) and shared
  // read-only by that circuit's spec runs.
  std::vector<Instance> instances(circuits);
  pool.parallel_for(
      0, circuits,
      [&](std::size_t ci) {
        instances[ci] = make_instance(name, opt, static_cast<int>(ci));
      },
      /*grain=*/1);
  if (!instances.empty()) {
    acc.set_structure(instances[0].doc.network.registers().size(),
                      instances[0].doc.network.num_scan_ffs(),
                      instances[0].doc.network.muxes().size());
  }

  enum class Outcome : std::uint8_t { Ok, Insecure, NoViolation };
  std::vector<Outcome> outcomes(circuits * specs, Outcome::Ok);
  std::vector<PipelineResult> results(circuits * specs);
  pool.parallel_for(
      0, circuits * specs,
      [&](std::size_t t) {
        const std::size_t ci = t / specs;
        const std::size_t si = t % specs;
        const Instance& inst = instances[ci];
        security::SecuritySpec spec = make_spec(
            inst, opt, static_cast<int>(ci), static_cast<int>(si));
        // Each spec run transforms a fresh copy of the network.
        rsn::Rsn network = inst.doc.network;
        SecureFlowTool tool(inst.circuit, network, spec, popt);
        PipelineResult result = tool.run();
        if (!result.static_report.clean())
          outcomes[t] = Outcome::Insecure;
        else if (result.initial_violating_registers == 0)
          outcomes[t] = Outcome::NoViolation;
        else
          results[t] = std::move(result);
      },
      /*grain=*/1);

  // Deterministic reduction: accumulate in (circuit, spec) order
  // regardless of which thread finished first.
  for (std::size_t t = 0; t < outcomes.size(); ++t) {
    switch (outcomes[t]) {
      case Outcome::Insecure:
        acc.add_skipped_insecure();
        break;
      case Outcome::NoViolation:
        acc.add_skipped_no_violation();
        break;
      case Outcome::Ok:
        acc.add(results[t]);
        break;
    }
  }
  return acc.finish();
}

std::optional<PaperRow> paper_row(const std::string& name) {
  // Table I of the paper (averages over 10 circuits x 16 specs on an
  // Intel Xeon 3.3 GHz).
  static const PaperRow rows[] = {
      {"BasicSCB", 1.56, 1.4, 0.6, 2.0, 0.13, 0.00, 0.00, 0.13},
      {"Mingle", 2.21, 1.8, 0.8, 2.5, 0.18, 0.00, 0.00, 0.19},
      {"TreeFlat", 3.65, 3.0, 1.7, 4.7, 0.05, 0.01, 0.01, 0.06},
      {"TreeFlatEx", 8.45, 5.8, 6.3, 12.1, 26.48, 0.07, 0.09, 26.65},
      {"TreeBalanced", 7.22, 4.7, 4.3, 9.0, 43.12, 0.04, 0.05, 43.21},
      {"TreeUnbalanced", 6.27, 3.9, 3.7, 7.6, 16686.78, 0.02, 0.08,
       16686.87},
      {"q12710", 5.20, 3.8, 3.3, 7.1, 5703.16, 0.02, 0.04, 5703.22},
      {"t512505", 12.44, 9.2, 15.7, 24.9, 28702.78, 0.32, 1.14, 28704.23},
      {"p22810", 21.75, 17.2, 24.6, 41.9, 1082.98, 1.02, 1.91, 1085.91},
      {"a586710", 5.89, 4.3, 4.2, 8.4, 14724.12, 0.01, 0.08, 14724.21},
      {"p34392", 11.26, 8.2, 13.3, 21.4, 1072.99, 0.07, 0.21, 1073.27},
      {"p93791", 40.51, 35.4, 44.1, 79.5, 14592.50, 1.83, 5.32, 14599.64},
      {"FlexScan", 207.22, 203.7, 247.7, 451.4, 32.73, 827.54, 1012.72,
       1872.99},
      {"MBIST_1_5_5", 6.64, 2.3, 10.8, 13.2, 0.21, 0.01, 0.03, 0.25},
      {"MBIST_1_5_20", 9.00, 3.3, 36.2, 39.5, 1.13, 0.04, 0.38, 1.55},
      {"MBIST_1_20_20", 7.60, 2.4, 38.2, 40.6, 13.90, 0.15, 1.25, 15.29},
      {"MBIST_2_5_5", 6.18, 3.6, 8.1, 11.7, 0.46, 0.04, 0.08, 0.58},
      {"MBIST_2_5_20", 8.88, 4.7, 38.9, 43.6, 3.28, 0.17, 1.05, 4.50},
      {"MBIST_2_20_20", 2.45, 1.6, 1.0, 2.6, 67.86, 0.44, 0.52, 68.82},
      {"MBIST_5_5_5", 9.64, 6.6, 15.1, 21.7, 1.51, 0.15, 0.35, 2.02},
      {"MBIST_5_20_20", 4.56, 2.8, 10.1, 12.9, 465.85, 2.70, 6.40, 474.95},
      {"MBIST_20_20_20", 19.62, 15.1, 89.8, 104.8, 9359.48, 0.87, 73.19,
       9433.54},
  };
  for (const PaperRow& r : rows) {
    if (name == r.name) return r;
  }
  return std::nullopt;
}

struct TraceFromEnv::Impl {
  obs::TraceSession session;
  std::string trace_path;
  bool metrics = false;
};

TraceFromEnv::TraceFromEnv() {
  const char* trace = std::getenv("RSNSEC_TRACE");
  const char* metrics = std::getenv("RSNSEC_METRICS");
  bool want_trace = trace != nullptr && *trace != '\0';
  bool want_metrics = metrics != nullptr && *metrics != '\0';
  if (!want_trace && !want_metrics) return;
  impl_ = new Impl;
  if (want_trace) impl_->trace_path = trace;
  impl_->metrics = want_metrics;
  obs::TraceSession::set_active(&impl_->session);
}

TraceFromEnv::~TraceFromEnv() {
  if (impl_ == nullptr) return;
  obs::TraceSession::set_active(nullptr);
  if (!impl_->trace_path.empty()) {
    std::ofstream f(impl_->trace_path);
    if (f) {
      impl_->session.write_chrome_trace(f);
    } else {
      std::cerr << "bench: cannot write RSNSEC_TRACE file '"
                << impl_->trace_path << "'\n";
    }
  }
  if (impl_->metrics) impl_->session.write_summary_text(std::cerr);
  delete impl_;
}

void print_paper_reference(std::ostream& os,
                           const std::vector<std::string>& names) {
  os << "\nPaper reference (Table I averages; 10 circuits x 16 specs, "
        "full-size networks, Intel Xeon 3.3 GHz):\n";
  os << std::left << std::setw(16) << "Benchmark" << std::right
     << std::setw(10) << "#RegViol" << std::setw(8) << "pure" << std::setw(8)
     << "hybrid" << std::setw(8) << "total" << std::setw(12) << "t_dep[s]"
     << std::setw(12) << "t_tot[s]" << "\n";
  for (const std::string& n : names) {
    if (auto r = paper_row(n)) {
      os << std::left << std::setw(16) << r->name << std::right
         << std::fixed << std::setprecision(2) << std::setw(10)
         << r->viol_regs << std::setprecision(1) << std::setw(8) << r->pure
         << std::setw(8) << r->hybrid << std::setw(8) << r->total
         << std::setprecision(2) << std::setw(12) << r->t_dep
         << std::setw(12) << r->t_total << "\n";
    }
  }
}

}  // namespace rsnsec::bench
