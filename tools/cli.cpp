#include "tools/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/trace.hpp"
#include "util/strings.hpp"

#include "attack/engine.hpp"
#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/redteam.hpp"
#include "benchgen/specgen.hpp"
#include "core/report.hpp"
#include "core/tool.hpp"
#include "flow/certify.hpp"
#include "lint/driver.hpp"
#include "netlist/verilog.hpp"
#include "rsn/access.hpp"
#include "rsn/icl.hpp"
#include "rsn/io.hpp"
#include "security/filter.hpp"
#include "security/spec_io.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "store/artifact_store.hpp"
#include "store/dep_cache.hpp"

namespace rsnsec::cli {

namespace {

/// Bad command-line *input* (malformed numbers, bad benchmark syntax).
/// Distinct from plain runtime_error so run() can exit 2 — "your
/// invocation is wrong" — instead of 1 ("the tool failed").
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> flags;
  std::vector<std::string> positionals;

  bool has_flag(const std::string& f) const {
    for (const std::string& x : flags)
      if (x == f) return true;
    return false;
  }
  std::optional<std::string> get(const std::string& key) const {
    auto it = options.find(key);
    if (it == options.end()) return std::nullopt;
    return it->second;
  }
  std::string require(const std::string& key) const {
    auto v = get(key);
    if (!v) throw std::runtime_error("missing required option --" + key);
    return *v;
  }
};

/// Boolean flags and value options that some subcommand reads. Any other
/// `--name` is a usage error: a misspelled option must not run silently
/// with its default.
constexpr std::string_view kFlags[] = {
    "filter-baseline", "json", "metrics", "no-hybrid", "no-pure",
    "no-secure", "no-ternary", "structural", "verify"};
constexpr std::string_view kValueOptions[] = {
    "benchmark", "conflict-limit", "icl", "jobs", "max-bytes",
    "max-findings", "max-request-bytes", "mode", "out", "out-rsn",
    "out-spec", "out-verilog", "port", "queue-depth", "rsn", "scale",
    "scenario", "seed", "socket", "spec", "store", "target-ffs",
    "target-regs", "top", "trace", "verilog", "workers"};

Args parse_args(const std::vector<std::string>& argv) {
  Args args;
  args.command = argv.at(0);
  for (std::size_t i = 1; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (a.rfind("--", 0) != 0) {
      // Only `lint` (input files) and `store` (the action) take
      // positional arguments.
      if (args.command != "lint" && args.command != "store")
        throw std::runtime_error("unexpected argument '" + a + "'");
      args.positionals.push_back(a);
      continue;
    }
    std::string key = a.substr(2);
    if (std::ranges::find(kFlags, key) != std::end(kFlags)) {
      args.flags.push_back(key);
      continue;
    }
    if (std::ranges::find(kValueOptions, key) == std::end(kValueOptions))
      throw UsageError("unknown option '--" + key + "'");
    if (i + 1 >= argv.size())
      throw std::runtime_error("option --" + key + " needs a value");
    // Duplicated value options are last-occurrence-wins by contract (the
    // map assignment overwrites): `rsnsec secure --seed 1 --seed 2` runs
    // with seed 2, matching what shell users expect from appended
    // overrides. Pinned by cli_tests DuplicateOptionLastOccurrenceWins.
    args.options[key] = argv[++i];
  }
  return args;
}

std::ifstream open_input(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open '" + path + "'");
  return f;
}

std::ofstream open_output(const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write '" + path + "'");
  return f;
}

rsn::RsnDocument load_network(const Args& args) {
  if (auto p = args.get("rsn")) {
    std::ifstream f = open_input(*p);
    return rsn::read_rsn(f);
  }
  if (auto p = args.get("icl")) {
    std::ifstream f = open_input(*p);
    return rsn::icl::load_icl(f, args.get("top").value_or(""));
  }
  throw std::runtime_error("need --rsn FILE or --icl FILE");
}

struct LoadedWorkload {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;
  security::SecuritySpec spec{1, 1};
};

/// Reads the network, the circuit and the specification, each under its
/// own trace span (input.rsn, input.verilog, input.spec).
LoadedWorkload load_workload(const Args& args) {
  obs::TraceSession* trace = obs::TraceSession::active();
  LoadedWorkload w;
  {
    obs::Span span(trace, "input.rsn");
    w.doc = load_network(args);
  }
  {
    obs::Span span(trace, "input.verilog");
    std::ifstream f = open_input(args.require("verilog"));
    netlist::verilog::ParsedCircuit parsed = netlist::verilog::parse(f);
    rsn::apply_attachments(w.doc, parsed.nets);
    w.circuit = std::move(parsed.netlist);
  }
  {
    obs::Span span(trace, "input.spec");
    std::ifstream f = open_input(args.require("spec"));
    w.spec = security::read_spec(f, w.doc.module_names);
  }
  return w;
}

/// Guarded numeric parses: any malformed or overflowing number in the
/// invocation is a UsageError (exit 2) with the offending token quoted,
/// never an uncaught std::sto* exception.
std::uint64_t u64_or_usage(const std::string& s, const std::string& what) {
  std::optional<std::uint64_t> v = parse_u64(s);
  if (!v)
    throw UsageError(what + " needs a non-negative integer, got '" + s +
                     "'");
  return *v;
}

double double_or_usage(const std::string& s, const std::string& what) {
  std::optional<double> v = parse_double(s);
  if (!v) throw UsageError(what + " needs a number, got '" + s + "'");
  return *v;
}

/// Parses --jobs N. Without the flag, commands default to auto
/// (RSNSEC_JOBS, else hardware concurrency) — results are bit-identical
/// for any value, so parallelism is safe to default on. An explicit
/// `--jobs 0` is rejected: internally 0 encodes "auto", and accepting it
/// would silently turn a caller's attempt to say "no parallelism" into
/// "all cores" (say `--jobs 1` for serial, omit the flag for auto).
std::size_t jobs_option(const Args& args) {
  if (auto j = args.get("jobs")) {
    std::uint64_t n = u64_or_usage(*j, "--jobs");
    if (n == 0)
      throw UsageError(
          "--jobs needs a positive thread count (use --jobs 1 for serial "
          "execution, or omit the flag for auto)");
    return static_cast<std::size_t>(n);
  }
  return 0;
}

/// Resolves the artifact-store directory: the --store flag wins over the
/// RSNSEC_STORE environment variable (the same precedence --jobs has
/// over RSNSEC_JOBS). Empty string = no store, always recompute.
std::string store_dir(const Args& args) {
  if (auto s = args.get("store")) return *s;
  if (const char* env = std::getenv("RSNSEC_STORE");
      env != nullptr && *env != '\0')
    return env;
  return {};
}

/// Opens the artifact store of this invocation, or nullptr when neither
/// --store nor RSNSEC_STORE is set. Composes with every subcommand that
/// runs the dependency analysis (analyze, secure) and is the target of
/// the `store` maintenance subcommand.
std::unique_ptr<store::ArtifactStore> open_store(const Args& args) {
  std::string dir = store_dir(args);
  if (dir.empty()) return nullptr;
  return std::make_unique<store::ArtifactStore>(dir);
}

PipelineOptions pipeline_options(const Args& args) {
  PipelineOptions opt;
  if (args.has_flag("structural"))
    opt.dep.mode = dep::DepMode::StructuralOnly;
  // Spelled-out alternative to the --structural shorthand; any value the
  // tool does not understand is the caller's mistake (exit 2), not a
  // silent fall-through to the default.
  if (auto m = args.get("mode")) {
    if (*m == "exact")
      opt.dep.mode = dep::DepMode::Exact;
    else if (*m == "structural")
      opt.dep.mode = dep::DepMode::StructuralOnly;
    else
      throw UsageError("unknown --mode '" + *m +
                       "' (try: exact, structural)");
  }
  // --no-ternary switches off certify's ternary refinement, which changes
  // its results; the dependency analysis has no such switch.
  if (args.has_flag("no-ternary"))
    throw UsageError("--no-ternary applies only to certify");
  if (args.has_flag("no-pure")) opt.run_pure = false;
  if (args.has_flag("no-hybrid")) opt.run_hybrid = false;
  // --verify turns on all three independent re-checks: the per-change
  // lint invariant pass, the final SAT-free certification and the
  // differential attack probe battery against the secured network.
  if (args.has_flag("verify")) {
    opt.verify_invariants = true;
    opt.verify_certify = true;
    opt.verify_attack = true;
  }
  opt.dep.num_threads = jobs_option(args);
  opt.resolve.num_threads = opt.dep.num_threads;
  return opt;
}

int cmd_lint(const Args& args, std::ostream& out) {
  if (args.positionals.empty())
    throw std::runtime_error(
        "lint needs input files (.rsn/.icl/.v/.spec), e.g. "
        "rsnsec lint net.rsn ckt.v policy.spec");
  lint::Registry registry = lint::Registry::with_default_passes();
  std::vector<lint::Diagnostic> diags = lint::lint_files(
      registry, args.positionals, args.get("top").value_or(""),
      jobs_option(args));
  if (args.has_flag("json"))
    lint::render_json(out, diags);
  else
    lint::render_text(out, diags);
  return lint::count_at_least(diags, lint::Severity::Error) > 0 ? 2 : 0;
}

int cmd_generate(const Args& args, std::ostream& out) {
  std::string name = args.require("benchmark");
  double scale = double_or_usage(args.get("scale").value_or("1.0"),
                                 "--scale");
  std::uint64_t seed = u64_or_usage(args.get("seed").value_or("1"),
                                    "--seed");
  Rng rng(seed);

  rsn::RsnDocument doc;
  // A dimension product too large for the generators (they refuse with
  // std::overflow_error rather than wrapping, see benchgen/families.cpp)
  // is the caller's mistake, same as a malformed number: exit 2.
  try {
    if (name.rfind("MBIST_", 0) == 0) {
      std::vector<std::string> dims = split(name.substr(6), '_');
      if (dims.size() != 3)
        throw UsageError("MBIST benchmark must be MBIST_n_m_o");
      doc = benchgen::generate_mbist(
          static_cast<std::size_t>(u64_or_usage(dims[0], "MBIST dimension n")),
          static_cast<std::size_t>(u64_or_usage(dims[1], "MBIST dimension m")),
          static_cast<std::size_t>(u64_or_usage(dims[2], "MBIST dimension o")),
          scale);
    } else {
      doc = benchgen::generate_bastion(benchgen::bastion_profile(name), scale,
                                       rng);
    }
  } catch (const std::overflow_error& e) {
    throw UsageError("benchmark '" + name + "' is too large: " + e.what());
  }

  netlist::Netlist circuit;
  bool with_circuit = args.get("out-verilog").has_value();
  if (with_circuit) {
    circuit = benchgen::attach_random_circuit(doc, {}, rng);
    std::ofstream f = open_output(args.require("out-verilog"));
    netlist::verilog::write(f, circuit, doc.network.name());
  }
  {
    std::ofstream f = open_output(args.require("out-rsn"));
    rsn::write_rsn(f, doc.network, doc.module_names,
                   with_circuit ? &circuit : nullptr);
  }
  if (args.get("out-spec")) {
    benchgen::SpecOptions sopt;
    security::SecuritySpec spec =
        benchgen::random_spec(doc.module_names.size(), sopt, rng);
    std::ofstream f = open_output(args.require("out-spec"));
    security::write_spec(f, spec, doc.module_names);
  }
  out << "generated " << rsn::summarize(doc.network) << "\n";
  return 0;
}

int cmd_info(const Args& args, std::ostream& out) {
  rsn::RsnDocument doc = load_network(args);
  out << rsn::summarize(doc.network) << "\n";
  out << "modules: " << doc.module_names.size() << "\n";
  std::string err;
  out << "valid: " << (doc.network.validate(&err) ? "yes" : "no (" + err + ")")
      << "\n";
  rsn::AccessPlanner planner(doc.network);
  std::size_t accessible = 0;
  for (rsn::ElemId r : doc.network.registers())
    accessible += planner.plan(r).has_value();
  out << "accessible registers: " << accessible << " / "
      << doc.network.registers().size() << "\n";
  return 0;
}

int cmd_analyze(const Args& args, std::ostream& out) {
  LoadedWorkload w = load_workload(args);
  security::TokenTable tokens(w.spec, w.spec.num_modules());

  std::unique_ptr<store::ArtifactStore> artifact_store = open_store(args);
  PipelineOptions popt = pipeline_options(args);
  dep::DependencyAnalyzer deps(w.circuit, w.doc.network, popt.dep);
  store::run_with_store(artifact_store.get(), deps);
  security::HybridAnalyzer hybrid(w.circuit, w.doc.network, deps, w.spec,
                                  tokens);
  security::PureScanAnalyzer pure(w.spec, tokens);

  security::StaticReport st = hybrid.check_static();
  std::size_t pure_pairs = pure.count_violating_pairs(w.doc.network);
  std::size_t hybrid_pairs = hybrid.count_violating_pairs(w.doc.network);
  std::size_t viol_regs = hybrid.count_violating_registers(w.doc.network);

  if (args.has_flag("json")) {
    // Shared emitter (also used by the serve daemon's analyze replies, so
    // a daemon request is byte-identical to this one-shot output).
    AnalyzeReport rep;
    rep.insecure_logic = st.insecure_logic;
    rep.intra_segment = st.intra_segment;
    rep.pure_violating_pairs = pure_pairs;
    rep.hybrid_violating_pairs = hybrid_pairs;
    rep.violating_registers = viol_regs;
    rep.dep_mode = deps.options().mode;
    rep.dep_stats = deps.stats();
    write_analyze_json(out, rep);
    out << "\n";
  } else {
    out << "insecure circuit logic: " << (st.insecure_logic ? "YES" : "no")
        << "\n";
    out << "intra-segment flows:    " << (st.intra_segment ? "YES" : "no")
        << "\n";
    out << "violating registers:    " << viol_regs << "\n";
    out << "violating pairs:        " << pure_pairs << " pure, "
        << hybrid_pairs << " incl. hybrid\n";
    out << "dependency matrices:    " << deps.stats().matrix_bytes
        << " bytes resident (" << deps.stats().regions << " regions, "
        << deps.stats().tiles_nonzero << " tiles)\n";
    for (const std::string& d : st.details) out << "  " << d << "\n";
  }
  if (args.has_flag("filter-baseline")) {
    security::AccessFilterBaseline filter(w.doc.network, w.spec, tokens);
    security::FilterReport fr = filter.analyze();
    out << "filter baseline would lock out " << fr.inaccessible.size()
        << " / " << w.doc.network.registers().size() << " registers\n";
  }
  bool any = st.insecure_logic || st.intra_segment || hybrid_pairs > 0;
  return any ? 2 : 0;
}

int cmd_secure(const Args& args, std::ostream& out) {
  LoadedWorkload w = load_workload(args);
  std::unique_ptr<store::ArtifactStore> artifact_store = open_store(args);
  PipelineOptions opt = pipeline_options(args);
  opt.store = artifact_store.get();
  SecureFlowTool tool(w.circuit, w.doc.network, w.spec, opt);
  PipelineResult result = tool.run();

  if (args.has_flag("json")) {
    write_json(out, result);
  } else {
    out << "secured: " << (result.secured ? "yes" : "no") << "\n";
    out << "violating registers before: "
        << result.initial_violating_registers << "\n";
    out << "applied changes: " << result.pure.applied_changes << " pure + "
        << result.hybrid.applied_changes << " hybrid\n";
    for (const security::AppliedChange& c : result.changes)
      out << "  - " << c.note << "\n";
  }
  if (!result.secured) return 3;
  obs::Span span(obs::TraceSession::active(), "output.rsn");
  std::ofstream f = open_output(args.require("out"));
  rsn::write_rsn(f, w.doc.network, w.doc.module_names, &w.circuit);
  return 0;
}

int cmd_certify(const Args& args, std::ostream& out) {
  LoadedWorkload w = load_workload(args);
  flow::CertifyOptions opt;
  if (args.has_flag("no-ternary")) opt.ternary_refine = false;
  if (auto m = args.get("max-findings"))
    opt.max_findings_per_code =
        static_cast<std::size_t>(u64_or_usage(*m, "--max-findings"));
  flow::CertifyResult result =
      flow::certify(w.circuit, w.doc.network, w.spec, opt);

  if (args.has_flag("json")) {
    out << "{\"certified\": " << (result.certified() ? "true" : "false")
        << ", \"violating_pairs\": " << result.stats.violating_pairs
        << ", \"nodes\": " << result.stats.nodes
        << ", \"edges\": " << result.stats.edges
        << ", \"ternary_discharged\": " << result.stats.ternary_discharged
        << ", \"ternary_refine\": " << (opt.ternary_refine ? "true" : "false")
        << ", \"report\": ";
    lint::render_json(out, result.diagnostics);
    out << "}\n";
  } else {
    lint::render_text(out, result.diagnostics);
    out << "certified: " << (result.certified() ? "yes" : "NO") << "  ("
        << result.stats.violating_pairs << " violating pair(s) over "
        << result.stats.nodes << " nodes, " << result.stats.edges
        << " edges)\n";
  }
  return result.certified() ? 0 : 2;
}

void write_outcome_json(std::ostream& out, const attack::AttackOutcome& o) {
  out << "{\"method\": \"" << o.method << "\", \"verdict\": \""
      << attack::verdict_name(o.verdict)
      << "\", \"recovered_value\": " << (o.recovered_value ? 1 : 0)
      << ", \"secret_value\": " << (o.secret_value ? 1 : 0)
      << ", \"leaks\": " << (o.differential.leaks ? "true" : "false")
      << ", \"diff_ops\": " << o.differential.witness.diff_ops.size()
      << ", \"shifts\": " << o.differential.shifts
      << ", \"captures\": " << o.differential.captures
      << ", \"updates\": " << o.differential.updates
      << ", \"sat_calls\": " << o.sat_calls << ", \"seconds\": " << o.seconds
      << ", \"note\": \"" << json_escape(o.note) << "\"}";
}

void write_scenario_json(std::ostream& out,
                         const attack::ScenarioResult& res) {
  out << "{\"scenario\": \"" << res.scenario << "\", \"kind\": \""
      << benchgen::scenario_kind_name(res.kind) << "\", \"outcomes\": [";
  for (std::size_t i = 0; i < res.outcomes.size(); ++i) {
    if (i) out << ", ";
    write_outcome_json(out, res.outcomes[i]);
  }
  out << "], \"cross_check\": {\"ran\": "
      << (res.cross.ran ? "true" : "false")
      << ", \"violating_pairs\": " << res.cross.violating_pairs
      << ", \"certified\": " << (res.cross.certified ? "true" : "false")
      << ", \"dep_secret_edge\": "
      << (res.cross.dep_secret_edge ? "true" : "false")
      << ", \"consistent\": " << (res.cross.consistent ? "true" : "false")
      << "}}";
}

void print_scenario_text(std::ostream& out, const std::string& phase,
                         const attack::ScenarioResult& res) {
  for (const attack::AttackOutcome& o : res.outcomes) {
    out << "  [" << phase << "] " << res.scenario << " / " << o.method
        << ": " << attack::verdict_name(o.verdict);
    if (o.recovered())
      out << " (secret = " << (o.recovered_value ? 1 : 0) << ", witness: "
          << o.differential.witness.diff_ops.size() << " diff ops over "
          << o.differential.shifts << " shifts)";
    if (!o.note.empty()) out << " — " << o.note;
    out << "\n";
  }
  if (res.cross.ran) {
    out << "  [" << phase << "] " << res.scenario
        << " / cross-check: " << res.cross.violating_pairs
        << " violating pair(s), certified "
        << (res.cross.certified ? "yes" : "no") << ", dep edge "
        << (res.cross.dep_secret_edge ? "present" : "absent") << " -> "
        << (res.cross.consistent ? "consistent" : "INCONSISTENT") << "\n";
    for (const std::string& n : res.cross.notes)
      out << "      soundness: " << n << "\n";
  }
}

/// `rsnsec attack`: generates a red-team workload of the given BASTION
/// family with planted secrets, mounts the ScanSAT and GF-Flush attacks
/// against the unsecured network, then (unless --no-secure) secures a copy
/// per scenario and re-attacks it. Exit codes: 0 = expected outcome
/// (secrets recovered pre-secure, nothing recovered post-secure, all
/// verdicts consistent with the static analyses); 2 = usage; 3 = soundness
/// bug (verdicts inconsistent, or a recovery post-secure); 4 = no attack
/// recovered the planted secret from the unsecured network.
int cmd_attack(const Args& args, std::ostream& out) {
  // Every malformed argument exits 2: an unknown family (with the catalog
  // listed), an unknown scenario or a malformed number.
  std::string name = args.require("benchmark");
  try {
    benchgen::bastion_profile(name);
  } catch (const std::exception&) {
    std::string known;
    for (const benchgen::BenchmarkProfile& p : benchgen::bastion_profiles())
      known += (known.empty() ? "" : ", ") + p.name;
    throw UsageError("unknown --benchmark '" + name + "' (try: " + known +
                     ")");
  }
  const std::uint64_t seed =
      u64_or_usage(args.get("seed").value_or("1"), "--seed");
  benchgen::RedTeamOptions redteam;
  redteam.scale =
      double_or_usage(args.get("scale").value_or("1.0"), "--scale");
  if (auto v = args.get("target-ffs"))
    redteam.target_ffs =
        static_cast<std::size_t>(u64_or_usage(*v, "--target-ffs"));
  if (auto v = args.get("target-regs"))
    redteam.target_regs =
        static_cast<std::size_t>(u64_or_usage(*v, "--target-regs"));
  if (auto s = args.get("scenario")) {
    if (*s == "pure") {
      redteam.plant_hybrid = false;
    } else if (*s == "hybrid") {
      redteam.plant_pure = false;
    } else if (*s != "all") {
      throw UsageError("unknown --scenario '" + *s +
                       "' (try: pure, hybrid, all)");
    }
  }
  attack::AttackOptions engine;
  engine.seed = seed;
  engine.sat_conflict_limit = u64_or_usage(
      args.get("conflict-limit").value_or("100000"), "--conflict-limit");
  engine.num_threads = jobs_option(args);
  const bool json = args.has_flag("json");
  const bool do_secure = !args.has_flag("no-secure");

  benchgen::RedTeamWorkload w =
      benchgen::make_redteam_workload(name, seed, redteam);
  attack::AttackReport pre =
      attack::run_attacks(w.circuit, w.doc.network, w.scenarios, engine);

  bool post_recovered = false;
  bool post_inconsistent = false;
  std::vector<attack::AttackReport> post;
  if (do_secure) {
    for (const benchgen::RedTeamScenario& sc : w.scenarios) {
      rsn::Rsn net = w.doc.network;
      PipelineOptions popt;
      popt.dep.num_threads = engine.num_threads;
      popt.resolve.num_threads = engine.num_threads;
      SecureFlowTool tool(w.circuit, net, sc.spec, popt);
      PipelineResult r = tool.run();
      if (!r.secured)
        throw std::runtime_error("secure failed on the '" + sc.name +
                                 "' red-team workload (static report not "
                                 "clean?)");
      attack::AttackReport rep =
          attack::run_attacks(w.circuit, net, {sc}, engine);
      post_recovered |= rep.any_recovered();
      post_inconsistent |= rep.soundness_bug();
      post.push_back(std::move(rep));
    }
  }

  bool soundness_bug =
      pre.soundness_bug() || post_inconsistent || post_recovered;
  if (json) {
    out << "{\"benchmark\": \"" << name << "\", \"seed\": " << seed
        << ", \"pre_secure\": [";
    for (std::size_t i = 0; i < pre.scenarios.size(); ++i) {
      if (i) out << ", ";
      write_scenario_json(out, pre.scenarios[i]);
    }
    out << "], \"post_secure\": [";
    bool first = true;
    for (const attack::AttackReport& rep : post)
      for (const attack::ScenarioResult& sc : rep.scenarios) {
        if (!first) out << ", ";
        first = false;
        write_scenario_json(out, sc);
      }
    out << "], \"recovered_pre\": " << (pre.any_recovered() ? "true" : "false")
        << ", \"recovered_post\": " << (post_recovered ? "true" : "false")
        << ", \"soundness_bug\": " << (soundness_bug ? "true" : "false")
        << "}\n";
  } else {
    out << "attack: " << name << " (seed " << seed << ", "
        << w.scenarios.size() << " planted scenario(s))\n";
    for (const attack::ScenarioResult& sc : pre.scenarios)
      print_scenario_text(out, "unsecured", sc);
    for (const attack::AttackReport& rep : post)
      for (const attack::ScenarioResult& sc : rep.scenarios)
        print_scenario_text(out, "secured", sc);
    out << "verdict: "
        << (soundness_bug ? "SOUNDNESS BUG"
            : pre.any_recovered()
                ? (do_secure ? "leak demonstrated, secure defeats it"
                             : "leak demonstrated")
                : "no attack recovered the planted secret")
        << "\n";
  }
  if (soundness_bug) return 3;
  if (!pre.any_recovered()) return 4;
  return 0;
}

/// Resolves the serve listener endpoint: --socket PATH and --port N are
/// mutually exclusive (exit 2 when both are given); with neither, the
/// RSNSEC_SERVE_SOCKET environment variable supplies the unix path —
/// flag-beats-env, the same precedence --store has over RSNSEC_STORE.
serve::ServerOptions serve_endpoint(const Args& args) {
  serve::ServerOptions opt;
  auto sock = args.get("socket");
  auto port = args.get("port");
  if (sock && port)
    throw UsageError(
        "--socket and --port are mutually exclusive (pick one listener)");
  if (sock) {
    opt.socket_path = *sock;
  } else if (port) {
    std::uint64_t p = u64_or_usage(*port, "--port");
    if (p > 65535) throw UsageError("--port needs a value in [0, 65535]");
    opt.port = static_cast<int>(p);
  } else if (const char* env = std::getenv("RSNSEC_SERVE_SOCKET");
             env != nullptr && *env != '\0') {
    opt.socket_path = env;
  } else {
    throw UsageError(
        "serve needs --socket PATH or --port N (or RSNSEC_SERVE_SOCKET "
        "set)");
  }
  return opt;
}

/// `rsnsec serve`: long-running analysis daemon. Line-delimited JSON
/// requests over a unix or loopback-TCP socket (see src/serve/protocol.hpp
/// for the frame format and the SRV error-code table); all tenants share
/// one artifact store, one analysis thread pool and one trace session, so
/// repeated designs warm-start regardless of who analyzed them first.
/// Runs until SIGINT/SIGTERM or a `shutdown` request, draining in-flight
/// work before exiting.
int cmd_serve(const Args& args, std::ostream& out) {
  serve::ServerOptions opt = serve_endpoint(args);
  if (auto w = args.get("workers")) {
    std::uint64_t n = u64_or_usage(*w, "--workers");
    if (n == 0) throw UsageError("--workers needs a positive count");
    opt.workers = static_cast<std::size_t>(n);
  }
  if (auto q = args.get("queue-depth")) {
    std::uint64_t n = u64_or_usage(*q, "--queue-depth");
    if (n == 0) throw UsageError("--queue-depth needs a positive bound");
    opt.queue_capacity = static_cast<std::size_t>(n);
  }
  if (auto m = args.get("max-request-bytes")) {
    std::uint64_t n = u64_or_usage(*m, "--max-request-bytes");
    if (n == 0)
      throw UsageError("--max-request-bytes needs a positive byte cap");
    opt.max_request_bytes = static_cast<std::size_t>(n);
  }

  serve::ServiceOptions sopt;
  sopt.store_dir = store_dir(args);
  sopt.analysis_threads = jobs_option(args);
  serve::AnalysisService service(sopt);

  serve::Server server(service, opt);
  serve::install_signal_handlers();
  server.bind();
  if (!opt.socket_path.empty())
    out << "listening on unix socket " << opt.socket_path;
  else
    out << "listening on 127.0.0.1:" << server.port();
  out << " (workers " << opt.workers << ", queue " << opt.queue_capacity
      << ", store "
      << (sopt.store_dir.empty() ? std::string("off") : sopt.store_dir)
      << ")\n"
      << std::flush;
  server.serve();
  out << "drained; served " << server.requests_handled() << " request(s)\n";
  return 0;
}

int cmd_store(const Args& args, std::ostream& out) {
  if (args.positionals.size() != 1)
    throw UsageError(
        "store needs exactly one action: stats, verify or gc, e.g. "
        "rsnsec store stats --store DIR");
  std::string dir = store_dir(args);
  if (dir.empty())
    throw UsageError("store needs --store DIR (or RSNSEC_STORE set)");
  store::ArtifactStore st(dir);
  const std::string& action = args.positionals[0];
  const bool json = args.has_flag("json");

  if (action == "stats") {
    store::DiskStats s = st.disk_stats();
    if (json) {
      out << "{\"objects\": " << s.objects << ", \"bytes\": " << s.bytes
          << ", \"quarantined\": " << s.quarantined << "}\n";
    } else {
      out << "store: " << dir << "\n";
      out << "objects:     " << s.objects << " (" << s.bytes << " bytes)\n";
      out << "quarantined: " << s.quarantined << "\n";
    }
    return 0;
  }
  if (action == "verify") {
    store::VerifyResult r = st.verify();
    if (json) {
      out << "{\"valid\": " << r.valid << ", \"corrupt\": " << r.corrupt
          << "}\n";
    } else {
      out << "valid:   " << r.valid << "\n";
      out << "corrupt: " << r.corrupt
          << (r.corrupt > 0 ? " (moved to quarantine/)" : "") << "\n";
    }
    return r.corrupt > 0 ? 2 : 0;
  }
  if (action == "gc") {
    std::uint64_t max_bytes =
        u64_or_usage(args.get("max-bytes").value_or("0"), "--max-bytes");
    std::size_t evicted = st.gc(max_bytes);
    store::DiskStats s = st.disk_stats();
    if (json) {
      out << "{\"evicted\": " << evicted << ", \"objects\": " << s.objects
          << ", \"bytes\": " << s.bytes << "}\n";
    } else {
      out << "evicted " << evicted << " objects; " << s.objects
          << " remain (" << s.bytes << " bytes)\n";
    }
    return 0;
  }
  throw UsageError("unknown store action '" + action +
                   "' (try: stats, verify, gc)");
}

/// Installs a process-wide TraceSession when --trace FILE, --metrics or
/// the RSNSEC_TRACE environment variable asks for one, and writes the
/// requested sinks when the command finishes. The session deactivates on
/// scope exit (exceptions included) so nothing outlives the run.
class TraceScope {
 public:
  TraceScope(const Args& args, std::ostream& err) : err_(err) {
    if (auto t = args.get("trace")) {
      trace_path_ = *t;
    } else if (const char* env = std::getenv("RSNSEC_TRACE");
               env != nullptr && *env != '\0') {
      trace_path_ = env;
    }
    metrics_ = args.has_flag("metrics");
    if (!trace_path_.empty() || metrics_) {
      session_.emplace();
      obs::TraceSession::set_active(&*session_);
    }
  }

  ~TraceScope() { obs::TraceSession::set_active(nullptr); }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// Called once on the success path, while the session is still active.
  void finish() {
    if (!session_) return;
    if (!trace_path_.empty()) {
      std::ofstream f = open_output(trace_path_);
      session_->write_chrome_trace(f);
    }
    if (metrics_) session_->write_summary_text(err_);
  }

 private:
  std::ostream& err_;
  std::string trace_path_;
  bool metrics_ = false;
  std::optional<obs::TraceSession> session_;
};

using Command = int (*)(const Args&, std::ostream&);

/// The subcommand named `name`. An unknown name is a usage error (exit 2),
/// raised before the rest of the invocation is parsed.
Command find_command(const std::string& name) {
  static const std::pair<const char*, Command> kCommands[] = {
      {"generate", cmd_generate}, {"info", cmd_info},
      {"analyze", cmd_analyze},   {"secure", cmd_secure},
      {"certify", cmd_certify},   {"attack", cmd_attack},
      {"lint", cmd_lint},         {"store", cmd_store},
      {"serve", cmd_serve}};
  std::string known;
  for (const auto& [n, cmd] : kCommands) {
    if (name == n) return cmd;
    known += (known.empty() ? "" : ", ") + std::string(n);
  }
  throw UsageError("unknown command '" + name + "' (try: " + known + ")");
}

}  // namespace

int run(const std::vector<std::string>& args_in, std::ostream& out,
        std::ostream& err) {
  try {
    if (args_in.empty()) throw std::runtime_error("missing command");
    Command command = find_command(args_in.front());
    Args args = parse_args(args_in);
    TraceScope trace(args, err);
    int rc = command(args, out);
    trace.finish();
    return rc;
  } catch (const UsageError& e) {
    err << "rsnsec: " << e.what() << "\n";
    return 2;
  } catch (const security::SpecParseError& e) {
    // Malformed spec *input* is the caller's problem, like a usage
    // error; the message already carries the line number.
    err << "rsnsec: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << "rsnsec: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace rsnsec::cli
