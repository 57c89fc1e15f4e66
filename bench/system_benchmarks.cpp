// Whole-subsystem benchmarks (not from the paper), registered into the
// micro_benchmarks binary next to the substrate benchmarks:
//
//   Attack_<family>/<scenario>  both attacks against one planted red-team
//                               scenario per BASTION family
//                               (BENCH_attack.json)
//   Scale_MBIST/<target FFs>    structural dependency analysis of MBIST
//                               networks by decade (BENCH_scale.json)
//   ServeReplay_Mingle/<kind>   concurrent clients replaying a mixed
//                               request stream against an in-process
//                               daemon (BENCH_serve.json)
//
// Workload parameters are fixed constants, reported as counters. Select a
// suite with --benchmark_filter, e.g. '^Attack_' or
// '^Scale_MBIST/(1000|10000)$'.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attack/engine.hpp"
#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/redteam.hpp"
#include "benchgen/specgen.hpp"
#include "dep/analyzer.hpp"
#include "netlist/verilog.hpp"
#include "rsn/io.hpp"
#include "security/spec_io.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "store/artifact_store.hpp"
#include "util/minijson.hpp"
#include "util/socket.hpp"
#include "util/strings.hpp"

namespace {

using namespace rsnsec;

// ---------------------------------------------------------------------------
// Attack sweep: the full ScanSAT + GF-Flush engine against one planted
// scenario of a family's red-team workload (both scenarios are planted, as
// `rsnsec attack` does). Cross-checks are off — this measures the attacks,
// not the analyses they are checked against.

constexpr std::uint64_t kAttackSeed = 1;

void BM_Attack(benchmark::State& state, const std::string& family,
               const std::string& scenario) {
  benchgen::RedTeamWorkload w =
      benchgen::make_redteam_workload(family, kAttackSeed);
  auto sc = std::find_if(
      w.scenarios.begin(), w.scenarios.end(),
      [&](const benchgen::RedTeamScenario& s) { return s.name == scenario; });
  if (sc == w.scenarios.end()) {
    state.SkipWithError("scenario not planted");
    return;
  }
  const std::vector<benchgen::RedTeamScenario> one{*sc};
  attack::AttackOptions opt;
  opt.seed = kAttackSeed;
  opt.cross_check = false;
  attack::ScenarioResult res;
  for (auto _ : state) {
    attack::AttackReport rep =
        attack::run_attacks(w.circuit, w.doc.network, one, opt);
    res = std::move(rep.scenarios.at(0));
  }
  std::uint64_t sat_calls = 0;
  std::size_t recovered = 0, shifts = 0;
  for (const attack::AttackOutcome& oc : res.outcomes) {
    sat_calls += oc.sat_calls;
    recovered += oc.recovered() ? 1 : 0;
    shifts += oc.differential.shifts;
  }
  state.counters["seed"] = static_cast<double>(kAttackSeed);
  state.counters["recovered"] = static_cast<double>(recovered);
  state.counters["methods"] = static_cast<double>(res.outcomes.size());
  state.counters["sat_calls"] = static_cast<double>(sat_calls);
  state.counters["replay_shifts"] = static_cast<double>(shifts);
}

// ---------------------------------------------------------------------------
// Scale sweep: the dependency analysis of an MBIST network whose circuit
// has about arg(0) flip-flops. StructuralOnly, so the numbers measure the
// matrix machinery (construction, bridging, closure) rather than the SAT
// portfolio in front of it.

constexpr std::uint64_t kScaleSeed = 1;

void BM_ScaleMbist(benchmark::State& state) {
  // MBIST_n_4_4 has 5 + 383 n scan FFs and the random circuit attaches
  // ~0.85 circuit FFs per scan FF, so n ~ target / 325 lands the circuit
  // FF count (what the matrices are over) near the target.
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(state.range(0)) / 325);
  Rng rng(kScaleSeed);
  rsn::RsnDocument doc = benchgen::generate_mbist(n, 4, 4, 1.0);
  netlist::Netlist circuit = benchgen::attach_random_circuit(doc, {}, rng);
  dep::DepOptions opt;
  opt.mode = dep::DepMode::StructuralOnly;
  dep::DepStats s;
  for (auto _ : state) {
    dep::DependencyAnalyzer deps(circuit, doc.network, opt);
    deps.run();
    s = deps.stats();
  }
  state.counters["seed"] = static_cast<double>(kScaleSeed);
  state.counters["closure_ms"] = s.t_closure * 1e3;
  state.counters["circuit_ffs"] = static_cast<double>(s.circuit_ffs);
  state.counters["matrix_bytes"] = static_cast<double>(s.matrix_bytes);
  state.counters["tiles_nonzero"] = static_cast<double>(s.tiles_nonzero);
  state.counters["regions"] = static_cast<double>(s.regions);
}

// ---------------------------------------------------------------------------
// Daemon load replay: kServeClients connections send kServeRequests
// requests in total — analyze of one fixed Mingle design, with every 16th
// request a ping — to an in-process daemon on a private unix socket. The
// daemon's temporary store is filled by the reference analyze, so the
// replay measures daemon overhead (framing, admission, scheduling), not
// repeated SAT work. Every analyze reply must equal the one-shot reference
// byte for byte: concurrency must not change results. Each row times one
// replay; its kind selects the statistics it reports.

constexpr std::uint64_t kServeSeed = 1;
constexpr std::size_t kServeClients = 4;
constexpr std::size_t kServeRequests = 2000;

enum class ReplayKind : std::uint8_t { Analyze, Ping, Throughput };

/// The analyze request of the replayed design, as inline payloads.
serve::Request replay_request() {
  Rng rng(kServeSeed);
  rsn::RsnDocument doc = benchgen::generate_bastion(
      benchgen::bastion_profile("Mingle"), 1.0, rng);
  netlist::Netlist circuit = benchgen::attach_random_circuit(doc, {}, rng);
  security::SecuritySpec spec =
      benchgen::random_spec(doc.module_names.size(), {}, rng);
  serve::Request req;
  req.command = serve::Command::Analyze;
  std::ostringstream rsn_text, verilog_text, spec_text;
  rsn::write_rsn(rsn_text, doc.network, doc.module_names, &circuit);
  netlist::verilog::write(verilog_text, circuit, doc.network.name());
  security::write_spec(spec_text, spec, doc.module_names);
  req.rsn = rsn_text.str();
  req.verilog = verilog_text.str();
  req.spec = spec_text.str();
  return req;
}

struct ReplayStats {
  std::vector<double> analyze_us;
  std::vector<double> ping_us;
  std::uint64_t busy = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t errors = 0;
};

/// One client's share of the replay: `n_requests` requests over one
/// connection, retrying after SRV005 (busy) replies.
void replay_client(const std::string& socket_path, std::size_t client,
                   std::size_t n_requests, const std::string& analyze_body,
                   const std::string& expected, ReplayStats& cs) {
  const std::string tenant = "client-" + std::to_string(client);
  try {
    Socket sock = Socket::connect_unix(socket_path);
    LineReader reader(sock, 4u << 20);
    for (std::size_t i = 0; i < n_requests; ++i) {
      const bool is_ping = i % 16 == 15;
      const std::string line =
          std::string("{\"command\": \"") + (is_ping ? "ping" : "analyze") +
          "\", \"id\": \"" + std::to_string(i) + "\", \"tenant\": \"" +
          tenant + "\"" + (is_ping ? "" : ", " + analyze_body) + "}\n";
      for (;;) {
        auto t0 = std::chrono::steady_clock::now();
        sock.write_all(line);
        std::optional<LineReader::Line> reply = reader.next();
        if (!reply || reply->oversize) {
          ++cs.errors;
          return;
        }
        double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        JsonParseResult parsed = parse_json(reply->text);
        if (!parsed.value || !parsed.value->is_object()) {
          ++cs.errors;
          break;
        }
        if (parsed.value->bool_field("ok").value_or(false)) {
          (is_ping ? cs.ping_us : cs.analyze_us).push_back(us);
          if (!is_ping) {
            // Byte identity: the "result" object must equal the one-shot
            // reference exactly.
            std::size_t begin = reply->text.find("\"result\": ");
            std::size_t end = reply->text.rfind(", \"server\": ");
            if (begin == std::string::npos || end == std::string::npos ||
                reply->text.substr(begin + 10, end - begin - 10) != expected)
              ++cs.mismatches;
          }
          break;
        }
        // Error reply: back off and retry on SRV005, count anything else
        // as a hard error.
        const JsonValue* error = parsed.value->find("error");
        std::string code;
        std::uint64_t retry_ms = 5;
        if (error != nullptr && error->is_object()) {
          code = error->string_field("code").value_or("");
          if (auto r = error->number_field("retry_after_ms"))
            retry_ms = static_cast<std::uint64_t>(*r);
        }
        if (code != "SRV005") {
          ++cs.errors;
          break;
        }
        ++cs.busy;
        std::this_thread::sleep_for(std::chrono::milliseconds(retry_ms));
      }
    }
  } catch (const SocketError&) {
    ++cs.errors;
  }
}

ReplayStats replay(const std::string& socket_path,
                   const std::string& analyze_body,
                   const std::string& expected) {
  std::vector<ReplayStats> per_client(kServeClients);
  std::vector<std::thread> threads;
  for (std::size_t ci = 0; ci < kServeClients; ++ci) {
    std::size_t share = kServeRequests / kServeClients +
                        (ci < kServeRequests % kServeClients ? 1 : 0);
    threads.emplace_back(replay_client, std::cref(socket_path), ci, share,
                         std::cref(analyze_body), std::cref(expected),
                         std::ref(per_client[ci]));
  }
  for (std::thread& t : threads) t.join();
  ReplayStats all;
  for (const ReplayStats& cs : per_client) {
    all.analyze_us.insert(all.analyze_us.end(), cs.analyze_us.begin(),
                          cs.analyze_us.end());
    all.ping_us.insert(all.ping_us.end(), cs.ping_us.begin(),
                       cs.ping_us.end());
    all.busy += cs.busy;
    all.mismatches += cs.mismatches;
    all.errors += cs.errors;
  }
  std::sort(all.analyze_us.begin(), all.analyze_us.end());
  std::sort(all.ping_us.begin(), all.ping_us.end());
  return all;
}

double quantile_ms(const std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  return sorted_us[static_cast<std::size_t>(
             q * static_cast<double>(sorted_us.size() - 1))] /
         1e3;
}

void BM_ServeReplay(benchmark::State& state, ReplayKind kind) {
  // A private daemon: its store and socket live in a temporary directory.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("rsnsec-bench-serve-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  serve::ServiceOptions service_opt;
  service_opt.store_dir = (dir / "store").string();
  serve::AnalysisService service(service_opt);
  const serve::Request ref = replay_request();
  const serve::ExecResult expected = service.execute(ref);
  if (!expected.ok()) {
    std::filesystem::remove_all(dir);
    state.SkipWithError(
        ("reference analyze failed: " + expected.message).c_str());
    return;
  }
  const std::string analyze_body =
      "\"rsn\": \"" + json_escape(ref.rsn) + "\", \"verilog\": \"" +
      json_escape(ref.verilog) + "\", \"spec\": \"" + json_escape(ref.spec) +
      "\"";
  serve::ServerOptions server_opt;
  server_opt.socket_path = (dir / "daemon.sock").string();
  serve::Server server(service, server_opt);
  server.bind();
  std::thread server_thread([&server] { server.serve(); });

  ReplayStats stats;
  double wall_s = 0.0;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    stats = replay(server_opt.socket_path, analyze_body, expected.result_json);
    wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
  }
  server.request_stop();
  server_thread.join();
  const store::StoreCounters store_counters = service.store()->counters();
  std::filesystem::remove_all(dir);

  state.counters["seed"] = static_cast<double>(kServeSeed);
  state.counters["clients"] = static_cast<double>(kServeClients);
  state.counters["requests"] = static_cast<double>(kServeRequests);
  const std::vector<double>& latencies =
      kind == ReplayKind::Ping ? stats.ping_us : stats.analyze_us;
  switch (kind) {
    case ReplayKind::Analyze:
    case ReplayKind::Ping:
      state.counters["replies"] = static_cast<double>(latencies.size());
      state.counters["p50_ms"] = quantile_ms(latencies, 0.5);
      state.counters["p99_ms"] = quantile_ms(latencies, 0.99);
      break;
    case ReplayKind::Throughput: {
      const auto served =
          static_cast<double>(stats.analyze_us.size() + stats.ping_us.size());
      state.counters["requests_per_second"] =
          wall_s > 0.0 ? served / wall_s : 0.0;
      state.counters["store_hits"] = static_cast<double>(store_counters.hits);
      state.counters["store_misses"] =
          static_cast<double>(store_counters.misses);
      break;
    }
  }
  state.counters["busy_replies"] = static_cast<double>(stats.busy);
  state.counters["result_mismatches"] = static_cast<double>(stats.mismatches);
  if (stats.mismatches > 0)
    state.SkipWithError("analyze replies differ from the one-shot reference");
  else if (stats.errors > 0)
    state.SkipWithError("clients received failed replies");
}

[[maybe_unused]] const bool kRegistered = [] {
  for (const benchgen::BenchmarkProfile& p : benchgen::bastion_profiles())
    for (const char* scenario : {"pure", "hybrid"})
      benchmark::RegisterBenchmark(
          ("Attack_" + p.name + "/" + scenario).c_str(), BM_Attack, p.name,
          std::string(scenario))
          ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("Scale_MBIST", BM_ScaleMbist)
      ->Arg(1000)
      ->Arg(10000)
      ->Arg(100000)
      ->Unit(benchmark::kMillisecond);
  // The replay runs on client threads, so the benchmark thread's CPU time
  // says nothing; real time sets the iteration count (one replay).
  const std::pair<const char*, ReplayKind> kinds[] = {
      {"ServeReplay_Mingle/analyze", ReplayKind::Analyze},
      {"ServeReplay_Mingle/ping", ReplayKind::Ping},
      {"ServeReplay_Mingle/throughput", ReplayKind::Throughput}};
  for (const auto& [name, kind] : kinds)
    benchmark::RegisterBenchmark(name, BM_ServeReplay, kind)
        ->UseRealTime()
        ->Unit(benchmark::kMillisecond);
  return true;
}();

}  // namespace
