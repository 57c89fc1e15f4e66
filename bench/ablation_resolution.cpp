// Design-choice ablation (not from the paper): how the repair-candidate
// selection strategy of the resolution loop affects repair quality and
// runtime. [17] evaluates multiple candidates per violation and applies
// the cheapest; BestGlobal reproduces that, FirstImproving/PreferScanIn
// trade trial-propagation cost against the number of applied changes.

#include <iomanip>
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace rsnsec;
  bench::SweepOptions opt = bench::sweep_options_from_env();
  const std::vector<std::string> names = {
      "BasicSCB", "Mingle", "TreeFlatEx", "q12710", "MBIST_2_5_5",
      "MBIST_5_5_5"};
  struct Policy {
    const char* name;
    security::ResolutionPolicy policy;
  };
  const Policy policies[] = {
      {"BestGlobal", security::ResolutionPolicy::BestGlobal},
      {"FirstImproving", security::ResolutionPolicy::FirstImproving},
      {"PreferScanIn", security::ResolutionPolicy::PreferScanIn},
  };

  std::cout << "=== Ablation: resolution candidate-selection policy ===\n\n";
  std::cout << std::left << std::setw(16) << "Benchmark";
  for (const Policy& p : policies)
    std::cout << std::right << std::setw(11) << p.name << std::setw(9)
              << "t[s]";
  std::cout << "\n";

  std::vector<double> total_changes(std::size(policies), 0.0);
  std::vector<double> total_time(std::size(policies), 0.0);
  for (const std::string& name : names) {
    std::vector<double> changes(std::size(policies), 0.0);
    std::vector<double> time(std::size(policies), 0.0);
    std::vector<int> runs(std::size(policies), 0);
    for (int ci = 0; ci < opt.circuits_per_benchmark; ++ci) {
      bench::Instance inst = bench::make_instance(name, opt, ci);
      for (int si = 0; si < opt.specs_per_circuit; ++si) {
        security::SecuritySpec spec = bench::make_spec(inst, opt, ci, si);
        for (std::size_t pi = 0; pi < std::size(policies); ++pi) {
          rsn::Rsn network = inst.doc.network;
          PipelineOptions po;
          po.resolution = policies[pi].policy;
          SecureFlowTool tool(inst.circuit, network, spec, po);
          PipelineResult r = tool.run();
          if (!r.secured || r.initial_violating_registers == 0) continue;
          changes[pi] += r.total_changes();
          time[pi] += r.t_pure + r.t_hybrid;
          ++runs[pi];
        }
      }
    }
    std::cout << std::left << std::setw(16) << name << std::fixed;
    for (std::size_t pi = 0; pi < std::size(policies); ++pi) {
      double avg = runs[pi] ? changes[pi] / runs[pi] : 0.0;
      double t = runs[pi] ? time[pi] / runs[pi] : 0.0;
      std::cout << std::right << std::setprecision(1) << std::setw(11)
                << avg << std::setprecision(4) << std::setw(9) << t;
      total_changes[pi] += changes[pi];
      total_time[pi] += time[pi];
    }
    std::cout << "\n";
  }

  std::cout << "\nTotals (changes / resolve-time):\n";
  for (std::size_t pi = 0; pi < std::size(policies); ++pi) {
    std::cout << "  " << std::left << std::setw(16) << policies[pi].name
              << std::fixed << std::setprecision(0) << total_changes[pi]
              << " changes, " << std::setprecision(3) << total_time[pi]
              << " s\n";
  }
  std::cout << "\nExpected: BestGlobal applies the fewest changes; the\n"
               "greedy policies run faster per violation but may cut more.\n";
  return 0;
}
