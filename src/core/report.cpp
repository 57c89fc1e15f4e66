#include "core/report.hpp"

#include <iomanip>
#include <ostream>

#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace rsnsec {

void RowAccumulator::set_structure(std::size_t registers,
                                   std::size_t scan_ffs, std::size_t muxes) {
  row_.registers = registers;
  row_.scan_ffs = scan_ffs;
  row_.muxes = muxes;
}

void RowAccumulator::add(const PipelineResult& result) {
  ++row_.runs;
  row_.avg_violating_registers +=
      static_cast<double>(result.initial_violating_registers);
  row_.avg_changes_pure += result.pure.applied_changes;
  row_.avg_changes_hybrid += result.hybrid.applied_changes;
  row_.avg_changes_total += result.total_changes();
  row_.t_dependency += result.t_dependency;
  row_.t_pure += result.t_pure;
  row_.t_hybrid += result.t_hybrid;
  row_.t_total += result.t_total;
}

BenchRow RowAccumulator::finish() const {
  BenchRow r = row_;
  if (r.runs > 0) {
    double n = r.runs;
    r.avg_violating_registers /= n;
    r.avg_changes_pure /= n;
    r.avg_changes_hybrid /= n;
    r.avg_changes_total /= n;
    r.t_dependency /= n;
    r.t_pure /= n;
    r.t_hybrid /= n;
    r.t_total /= n;
  }
  return r;
}

void print_table_header(std::ostream& os) {
  os << std::left << std::setw(16) << "Benchmark" << std::right
     << std::setw(7) << "#Reg" << std::setw(9) << "#ScanFF" << std::setw(7)
     << "#Mux" << std::setw(10) << "#RegViol" << std::setw(8) << "pure"
     << std::setw(8) << "hybrid" << std::setw(8) << "total" << std::setw(11)
     << "t_dep[s]" << std::setw(11) << "t_pure[s]" << std::setw(11)
     << "t_hyb[s]" << std::setw(11) << "t_tot[s]" << std::setw(7) << "runs"
     << "\n";
  os << std::string(16 + 7 + 9 + 7 + 10 + 8 + 8 + 8 + 11 * 4 + 7, '-')
     << "\n";
}

void print_table_row(std::ostream& os, const BenchRow& row) {
  os << std::left << std::setw(16) << row.name << std::right << std::setw(7)
     << row.registers << std::setw(9) << row.scan_ffs << std::setw(7)
     << row.muxes << std::fixed << std::setprecision(2) << std::setw(10)
     << row.avg_violating_registers << std::setprecision(1) << std::setw(8)
     << row.avg_changes_pure << std::setw(8) << row.avg_changes_hybrid
     << std::setw(8) << row.avg_changes_total << std::setprecision(3)
     << std::setw(11) << row.t_dependency << std::setw(11) << row.t_pure
     << std::setw(11) << row.t_hybrid << std::setw(11) << row.t_total
     << std::setw(7) << row.runs << "\n";
}

void print_table_summary(std::ostream& os,
                         const std::vector<BenchRow>& rows) {
  double pure = 0.0, total = 0.0;
  int skipped_insecure = 0, skipped_none = 0, runs = 0;
  for (const BenchRow& r : rows) {
    pure += r.avg_changes_pure * r.runs;
    total += r.avg_changes_total * r.runs;
    skipped_insecure += r.skipped_insecure;
    skipped_none += r.skipped_no_violation;
    runs += r.runs;
  }
  os << "\nIncluded runs: " << runs
     << "  (skipped: " << skipped_none
     << " without violations, " << skipped_insecure
     << " with insecure circuit logic)\n";
  if (total > 0.0) {
    os << "Share of changes resolved by the pure stage: " << std::fixed
       << std::setprecision(1) << 100.0 * pure / total
       << "%  (paper reports ~43% on average)\n";
  }
}

void write_json(std::ostream& os, const PipelineResult& r) {
  os << "{\n";
  os << "  \"secured\": " << (r.secured ? "true" : "false") << ",\n";
  os << "  \"insecure_logic\": "
     << (r.static_report.insecure_logic ? "true" : "false") << ",\n";
  os << "  \"intra_segment\": "
     << (r.static_report.intra_segment ? "true" : "false") << ",\n";
  os << "  \"initial_violating_registers\": "
     << r.initial_violating_registers << ",\n";
  os << "  \"dependency\": {\n"
     << "    \"mode\": \""
     << (r.dep_mode == dep::DepMode::Exact ? "exact" : "structural")
     << "\",\n"
     << "    \"regions\": " << r.dep_stats.regions << ",\n"
     << "    \"matrix_bytes\": " << r.dep_stats.matrix_bytes << ",\n"
     << "    \"tiles_nonzero\": " << r.dep_stats.tiles_nonzero << ",\n"
     << "    \"circuit_ffs\": " << r.dep_stats.circuit_ffs << ",\n"
     << "    \"internal_ffs\": " << r.dep_stats.internal_ffs << ",\n"
     << "    \"deps_before_bridging\": " << r.dep_stats.deps_before_bridging
     << ",\n"
     << "    \"deps_after_bridging\": " << r.dep_stats.deps_after_bridging
     << ",\n"
     << "    \"sat_calls\": " << r.dep_stats.sat_calls << ",\n"
     << "    \"sat_unknown\": " << r.dep_stats.sat_unknown << ",\n"
     << "    \"sim_resolved\": " << r.dep_stats.sim_resolved << ",\n"
     << "    \"ternary_resolved\": " << r.dep_stats.ternary_resolved
     << ",\n"
     << "    \"solver\": {\n"
     << "      \"solves\": " << r.dep_stats.solver_solves << ",\n"
     << "      \"conflicts\": " << r.dep_stats.solver_conflicts << ",\n"
     << "      \"decisions\": " << r.dep_stats.solver_decisions << ",\n"
     << "      \"propagations\": " << r.dep_stats.solver_propagations
     << ",\n"
     << "      \"restarts\": " << r.dep_stats.solver_restarts << ",\n"
     << "      \"learned\": " << r.dep_stats.solver_learned << ",\n"
     << "      \"lbd_protected\": " << r.dep_stats.lbd_protected << ",\n"
     << "      \"inprocessing_rounds\": "
     << r.dep_stats.inprocessing_rounds << ",\n"
     << "      \"cores_reused\": " << r.dep_stats.cores_reused << ",\n"
     << "      \"rotation_witnesses\": " << r.dep_stats.rotation_witnesses
     << ",\n"
     << "      \"shared_clauses\": " << r.dep_stats.shared_clauses << "\n"
     << "    },\n"
     << "    \"threads\": " << r.dep_stats.threads_used << ",\n"
     << "    \"phase_seconds\": {\"one_cycle\": " << r.dep_stats.t_one_cycle
     << ", \"bridge\": " << r.dep_stats.t_bridge
     << ", \"closure\": " << r.dep_stats.t_closure << "}\n"
     << "  },\n";
  os << "  \"changes\": {\n"
     << "    \"pure\": " << r.pure.applied_changes << ",\n"
     << "    \"hybrid\": " << r.hybrid.applied_changes << ",\n"
     << "    \"total\": " << r.total_changes() << ",\n"
     << "    \"log\": [\n";
  for (std::size_t i = 0; i < r.changes.size(); ++i) {
    const security::AppliedChange& c = r.changes[i];
    os << "      {\"note\": \"" << json_escape(c.note)
       << "\", \"rewire_operations\": " << c.rewire_operations << "}"
       << (i + 1 < r.changes.size() ? "," : "") << "\n";
  }
  os << "    ]\n  },\n";
  os << "  \"attack\": {\"checked\": "
     << (r.attack_checked ? "true" : "false")
     << ", \"probes\": " << r.attack_probes << ", \"leaks\": 0},\n";
  os << "  \"runtime_seconds\": {\"dependency\": " << r.t_dependency
     << ", \"pure\": " << r.t_pure << ", \"hybrid\": " << r.t_hybrid
     << ", \"total\": " << r.t_total << "}";
  // When a trace session is active its counter/span rollup rides along in
  // the report, so `--metrics --json` needs no second output file.
  if (obs::TraceSession* trace = obs::TraceSession::active()) {
    os << ",\n  \"observability\": ";
    trace->write_summary_json(os, "  ");
    os << "\n";
  } else {
    os << "\n";
  }
  os << "}\n";
}

void write_analyze_json(std::ostream& os, const AnalyzeReport& r) {
  os << "{\"insecure_logic\": " << (r.insecure_logic ? "true" : "false")
     << ", \"intra_segment\": " << (r.intra_segment ? "true" : "false")
     << ", \"pure_violating_pairs\": " << r.pure_violating_pairs
     << ", \"hybrid_violating_pairs\": " << r.hybrid_violating_pairs
     << ", \"violating_registers\": " << r.violating_registers
     << ", \"dep_mode\": \""
     << (r.dep_mode == dep::DepMode::Exact ? "exact" : "structural")
     << "\", \"dep_ternary_resolved\": " << r.dep_stats.ternary_resolved
     << ", \"dep_regions\": " << r.dep_stats.regions
     << ", \"dep_matrix_bytes\": " << r.dep_stats.matrix_bytes
     << ", \"dep_tiles_nonzero\": " << r.dep_stats.tiles_nonzero << "}";
}

void write_csv(std::ostream& os, const std::vector<BenchRow>& rows) {
  os << "benchmark,registers,scan_ffs,muxes,violating_registers,"
        "changes_pure,changes_hybrid,changes_total,t_dependency,t_pure,"
        "t_hybrid,t_total,runs,skipped_insecure,skipped_no_violation\n";
  for (const BenchRow& r : rows) {
    os << r.name << "," << r.registers << "," << r.scan_ffs << ","
       << r.muxes << "," << r.avg_violating_registers << ","
       << r.avg_changes_pure << "," << r.avg_changes_hybrid << ","
       << r.avg_changes_total << "," << r.t_dependency << "," << r.t_pure
       << "," << r.t_hybrid << "," << r.t_total << "," << r.runs << ","
       << r.skipped_insecure << "," << r.skipped_no_violation << "\n";
  }
}

}  // namespace rsnsec
