// perfbench_probe — the benchmark's in-process helper. Four commands, each
// printing one JSON object on stdout:
//
//   perfbench_probe trace --rsn R --verilog V --spec S --out O --jobs N
//                         [--store DIR]
//       Runs the `rsnsec secure` pipeline in-process, calling the public
//       layer functions in the order tools/cli.cpp and SecureFlowTool::run
//       call them, and times every call from outside. Reports per-layer
//       seconds next to the work counters that DepStats, PureStats,
//       HybridStats and the obs::TraceSession already expose. Writes the
//       secured network to O exactly as the CLI does. The whole process is
//       timed by the caller, so whatever the listed calls do not explain
//       (start-up, teardown, glue) stays visible as unattributed time.
//
//   perfbench_probe check --rsn R --verilog V --spec S --exit CODE
//                         [--out O]
//       Independent output checker for one `rsnsec secure` case: exit 0
//       needs an output that loads, validates, certifies and keeps every
//       register accessible; exit 3 needs `certify` to reject the input
//       too; any other exit code is a failure.
//
//   perfbench_probe generate --benchmark B --scale X --dir D
//                            --designs NAME=SEED[,NAME=SEED...]
//       Writes D/NAME.rsn, D/NAME.v and D/NAME.spec per design, byte for
//       byte what `rsnsec generate --benchmark B --scale X --seed SEED`
//       writes with --out-rsn/--out-verilog/--out-spec. One process makes
//       many designs, so the set-up time is benchgen's work, not the cost
//       of starting a process per design.
//
//   perfbench_probe specs --rsn R --seed N --count K --out-prefix P
//       Writes K random security specifications (benchgen defaults) for
//       the modules of network R to P0.spec ... P<K-1>.spec.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/specgen.hpp"
#include "dep/analyzer.hpp"
#include "flow/certify.hpp"
#include "netlist/verilog.hpp"
#include "obs/trace.hpp"
#include "rsn/access.hpp"
#include "rsn/io.hpp"
#include "security/hybrid.hpp"
#include "security/pure.hpp"
#include "security/spec_io.hpp"
#include "store/artifact_store.hpp"
#include "store/dep_cache.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

#include <sys/resource.h>

namespace {

using namespace rsnsec;
using Clock = std::chrono::steady_clock;

struct Options {
  std::map<std::string, std::string> values;

  std::string get(const std::string& key) const {
    auto it = values.find(key);
    if (it == values.end())
      throw std::runtime_error("missing option --" + key);
    return it->second;
  }
  std::string get_or(const std::string& key, std::string fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  std::uint64_t number(const std::string& key) const {
    std::optional<std::uint64_t> v = parse_u64(get(key));
    if (!v) throw std::runtime_error("--" + key + " needs a number");
    return *v;
  }
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::runtime_error("expected --key value, got '" + key + "'");
    o.values[key.substr(2)] = argv[++i];
  }
  return o;
}

std::ifstream open_input(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open '" + path + "'");
  return f;
}

/// JSON object builder for the single-line reports.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double v) {
    field(key) << v;
    return *this;
  }
  JsonLine& str(const std::string& key, const std::string& v) {
    field(key) << '"' << json_escape(v) << '"';
    return *this;
  }
  JsonLine& boolean(const std::string& key, bool v) {
    field(key) << (v ? "true" : "false");
    return *this;
  }
  std::string done() const { return "{" + os_.str() + "}"; }
  JsonLine() { os_ << std::setprecision(15); }

 private:
  std::ostream& field(const std::string& key) {
    if (!first_) os_ << ", ";
    first_ = false;
    os_ << '"' << json_escape(key) << "\": ";
    return os_;
  }
  std::ostringstream os_;
  bool first_ = true;
};

/// User + system CPU seconds of this process, all threads.
double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Times library calls from the caller's side: start() before a call,
/// stop(name) after it, as wall seconds ("t.<name>") and as process CPU
/// seconds over all threads ("c.<name>"). Whatever runs between a stop()
/// and the next start() is left unattributed on purpose.
class PhaseClock {
 public:
  explicit PhaseClock(JsonLine& out) : out_(out) {}

  void start() {
    begin_ = Clock::now();
    begin_cpu_ = process_cpu_seconds();
  }
  void stop(const std::string& name) {
    out_.num("t." + name,
             std::chrono::duration<double>(Clock::now() - begin_).count());
    out_.num("c." + name, process_cpu_seconds() - begin_cpu_);
  }

 private:
  JsonLine& out_;
  Clock::time_point begin_;
  double begin_cpu_ = 0;
};

std::uint64_t counter(obs::TraceSession& session, const char* name) {
  return session.counter(name).value();
}

int cmd_trace(const Options& opt) {
  const std::size_t jobs = static_cast<std::size_t>(opt.number("jobs"));
  const std::string store_dir = opt.get_or("store", "");

  obs::TraceSession session;
  obs::TraceSession::set_active(&session);
  JsonLine out;
  PhaseClock phase(out);

  // Input (tools/cli.cpp load_workload): network, circuit, attachments,
  // specification.
  phase.start();
  rsn::RsnDocument doc;
  {
    std::ifstream f = open_input(opt.get("rsn"));
    doc = rsn::read_rsn(f);
  }
  phase.stop("rsn_read");
  phase.start();
  netlist::verilog::ParsedCircuit parsed;
  {
    std::ifstream f = open_input(opt.get("verilog"));
    parsed = netlist::verilog::parse(f);
  }
  phase.stop("netlist_parse");
  phase.start();
  rsn::apply_attachments(doc, parsed.nets);
  phase.stop("rsn_attach");
  netlist::Netlist circuit = std::move(parsed.netlist);
  phase.start();
  security::SecuritySpec spec{1, 1};
  {
    std::ifstream f = open_input(opt.get("spec"));
    spec = security::read_spec(f, doc.module_names);
  }
  phase.stop("spec_parse");

  // Pipeline (SecureFlowTool::run with the CLI's --jobs and --store).
  std::unique_ptr<store::ArtifactStore> artifact_store;
  phase.start();
  if (!store_dir.empty())
    artifact_store = std::make_unique<store::ArtifactStore>(store_dir);
  phase.stop("store_open");
  rsn::Rsn& network = doc.network;
  std::string err;
  phase.start();
  if (!spec.validate(&err))
    throw std::invalid_argument("invalid security specification: " + err);
  if (!network.validate(&err))
    throw std::invalid_argument("invalid scan network: " + err);
  if (!circuit.validate(&err))
    throw std::invalid_argument("invalid circuit: " + err);
  phase.stop("validate");

  dep::DepOptions dep_options;
  dep_options.num_threads = jobs;
  phase.start();
  dep::DependencyAnalyzer deps(circuit, network, dep_options);
  bool hit = store::run_with_store(artifact_store.get(), deps);
  phase.stop("dependency");
  const dep::DepStats& ds = deps.stats();

  phase.start();
  security::TokenTable tokens(spec, spec.num_modules());
  security::HybridAnalyzer hybrid(circuit, network, deps, spec, tokens);
  phase.stop("hybrid_setup");
  phase.start();
  security::StaticReport static_report = hybrid.check_static();
  phase.stop("static_check");
  const bool secured = static_report.clean();

  security::ResolveOptions resolve;
  resolve.num_threads = jobs;
  std::vector<security::AppliedChange> changes;
  security::PureStats pure_stats;
  security::HybridStats hybrid_stats;
  std::uint64_t pure_trials = 0;
  if (secured) {
    phase.start();
    std::size_t violating = hybrid.count_violating_registers(network);
    phase.stop("count_violating");
    out.num("initial_violating_registers", static_cast<double>(violating));
    phase.start();
    security::PureScanAnalyzer pure(spec, tokens);
    pure_stats = pure.detect_and_resolve(
        network, &changes, security::ResolutionPolicy::BestGlobal, {},
        resolve);
    phase.stop("pure");
    pure_trials = counter(session, "rewire.trials");
    phase.start();
    hybrid_stats = hybrid.detect_and_resolve(
        network, &changes, security::ResolutionPolicy::BestGlobal, {},
        resolve);
    phase.stop("hybrid");
    phase.start();
    if (!network.validate(&err))
      throw std::logic_error("transformed network failed validation: " + err);
    phase.stop("final_validate");

    // Output (cmd_secure): only a secured network is written.
    phase.start();
    {
      std::ofstream f(opt.get("out"));
      if (!f)
        throw std::runtime_error("cannot write '" + opt.get("out") + "'");
      rsn::write_rsn(f, network, doc.module_names, &circuit);
    }
    phase.stop("rsn_write");
  }
  obs::TraceSession::set_active(nullptr);

  out.num("exit", secured ? 0 : 3)
      .num("pure_changes", pure_stats.applied_changes)
      .num("hybrid_changes", hybrid_stats.applied_changes)
      .num("pure_trials", static_cast<double>(pure_trials))
      .num("t.dep_one_cycle", ds.t_one_cycle)
      .num("t.dep_bridge", ds.t_bridge)
      .num("t.dep_closure", ds.t_closure)
      .num("dep.sat_calls", static_cast<double>(ds.sat_calls))
      .num("dep.sim_resolved", static_cast<double>(ds.sim_resolved))
      .num("dep.ternary_resolved", static_cast<double>(ds.ternary_resolved))
      .num("dep.closure_deps", static_cast<double>(ds.closure_deps))
      .num("dep.matrix_bytes", static_cast<double>(ds.matrix_bytes))
      .boolean("store.hit", hit);
  if (artifact_store) {
    store::StoreCounters sc = artifact_store->counters();
    out.num("store.hits", static_cast<double>(sc.hits))
        .num("store.misses", static_cast<double>(sc.misses))
        .num("store.bytes",
             static_cast<double>(artifact_store->disk_stats().bytes));
  }
  for (const char* name : {"rewire.trials", "resolve.delta_queries",
                           "resolve.hybrid_iterations", "hybrid.propagations"})
    out.num(name, static_cast<double>(counter(session, name)));
  std::cout << out.done() << "\n";
  return 0;
}

/// One failed check: its name and what went wrong.
struct Failure {
  std::string check;
  std::string detail;
};

std::optional<Failure> check_case(const Options& opt) {
  const std::string exit_code = opt.get("exit");
  std::ifstream vf = open_input(opt.get("verilog"));
  netlist::verilog::ParsedCircuit parsed = netlist::verilog::parse(vf);

  std::ifstream in_f = open_input(opt.get("rsn"));
  rsn::RsnDocument input = rsn::read_rsn(in_f);
  std::ifstream sf = open_input(opt.get("spec"));
  security::SecuritySpec spec = security::read_spec(sf, input.module_names);

  if (exit_code == "3") {
    // Insecure circuit logic: the certifier must agree that the input
    // cannot be secured as it stands.
    rsn::apply_attachments(input, parsed.nets);
    if (flow::certify(parsed.netlist, input.network, spec).certified())
      return Failure{"certify_rejects_input",
                     "secure reported insecure logic, certify accepts the input"};
    return std::nullopt;
  }
  if (exit_code != "0")
    return Failure{"exit", "rsnsec secure exited with " + exit_code};

  rsn::RsnDocument output;
  try {
    std::ifstream f = open_input(opt.get("out"));
    output = rsn::read_rsn(f);
    rsn::apply_attachments(output, parsed.nets);
  } catch (const std::exception& e) {
    return Failure{"read_output", e.what()};
  }
  std::string err;
  if (!output.network.validate(&err)) return Failure{"validate", err};
  flow::CertifyResult cert = flow::certify(parsed.netlist, output.network, spec);
  if (!cert.certified())
    return Failure{"certify", std::to_string(cert.stats.violating_pairs) +
                                  " violating pairs remain"};

  std::set<std::string> kept;
  rsn::AccessPlanner planner(output.network);
  for (rsn::ElemId r : output.network.registers()) {
    kept.insert(output.network.elem(r).name);
    if (!planner.plan(r))
      return Failure{"access", "register '" + output.network.elem(r).name +
                                   "' is not accessible"};
  }
  for (rsn::ElemId r : input.network.registers())
    if (!kept.count(input.network.elem(r).name))
      return Failure{"access", "register '" + input.network.elem(r).name +
                                   "' was removed"};
  return std::nullopt;
}

int cmd_check(const Options& opt) {
  std::optional<Failure> failure;
  try {
    failure = check_case(opt);
  } catch (const std::exception& e) {
    failure = Failure{"checker_input", e.what()};
  }
  JsonLine out;
  out.boolean("ok", !failure.has_value());
  if (failure) out.str("check", failure->check).str("detail", failure->detail);
  std::cout << out.done() << "\n";
  return 0;
}

std::ofstream open_output(const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write '" + path + "'");
  return f;
}

/// The steps and random-number order of cmd_generate in tools/cli.cpp.
void generate_design(const std::string& benchmark, double scale,
                     std::uint64_t seed, const std::string& base) {
  Rng rng(seed);
  rsn::RsnDocument doc = benchgen::generate_bastion(
      benchgen::bastion_profile(benchmark), scale, rng);
  netlist::Netlist circuit = benchgen::attach_random_circuit(doc, {}, rng);
  {
    std::ofstream f = open_output(base + ".v");
    netlist::verilog::write(f, circuit, doc.network.name());
  }
  {
    std::ofstream f = open_output(base + ".rsn");
    rsn::write_rsn(f, doc.network, doc.module_names, &circuit);
  }
  security::SecuritySpec spec =
      benchgen::random_spec(doc.module_names.size(), {}, rng);
  std::ofstream f = open_output(base + ".spec");
  security::write_spec(f, spec, doc.module_names);
}

int cmd_generate(const Options& opt) {
  const std::string benchmark = opt.get("benchmark");
  const double scale = std::stod(opt.get("scale"));
  std::size_t designs = 0;
  for (const std::string& item : split(opt.get("designs"), ',')) {
    std::size_t eq = item.rfind('=');
    std::optional<std::uint64_t> seed =
        eq == std::string::npos ? std::nullopt
                                : parse_u64(item.substr(eq + 1));
    if (!seed)
      throw std::runtime_error("--designs needs NAME=SEED, got '" + item +
                               "'");
    generate_design(benchmark, scale, *seed,
                    opt.get("dir") + "/" + item.substr(0, eq));
    ++designs;
  }
  std::cout << JsonLine().num("designs", static_cast<double>(designs)).done()
            << "\n";
  return 0;
}

int cmd_specs(const Options& opt) {
  std::ifstream f = open_input(opt.get("rsn"));
  rsn::RsnDocument doc = rsn::read_rsn(f);
  Rng rng(opt.number("seed"));
  const std::uint64_t count = opt.number("count");
  const std::string prefix = opt.get("out-prefix");
  for (std::uint64_t i = 0; i < count; ++i) {
    security::SecuritySpec spec =
        benchgen::random_spec(doc.module_names.size(), {}, rng);
    std::ofstream out = open_output(prefix + std::to_string(i) + ".spec");
    security::write_spec(out, spec, doc.module_names);
  }
  std::cout << JsonLine().num("specs", static_cast<double>(count)).done()
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_probe <trace|check|generate|specs> "
                 "--key value ...\n";
    return 2;
  }
  const std::string command = argv[1];
  try {
    Options opt = parse_options(argc, argv);
    if (command == "trace") return cmd_trace(opt);
    if (command == "check") return cmd_check(opt);
    if (command == "generate") return cmd_generate(opt);
    if (command == "specs") return cmd_specs(opt);
    std::cerr << "perfbench_probe: unknown command '" << command << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe " << command << ": " << e.what() << "\n";
    return 1;
  }
}
