// AnalysisService contract: daemon results are byte-identical to the
// one-shot CLI (same emitters, no timings in result bodies), a warm
// repeated-design request makes zero SAT calls (the store acceptance
// criterion, asserted via obs counters), and execute() is re-entrant —
// concurrent requests produce the same bytes as serial ones.

#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "rsn/io.hpp"
#include "tests/serve/test_workload.hpp"
#include "tools/cli.hpp"
#include "util/minijson.hpp"

namespace rsnsec::serve {
namespace {

namespace fs = std::filesystem;

using Workload = TestWorkload;

fs::path test_root() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir = fs::temp_directory_path() / "rsnsec_serve_tests" /
                 (std::string(info->test_suite_name()) + "." + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

JsonParseResult parse_result(const ExecResult& result) {
  return parse_json(result.result_json);
}

TEST(AnalysisService, AnalyzeMatchesCliJsonByteForByte) {
  Workload w;
  // The exact design the daemon sees, written to files for the CLI.
  fs::path dir = test_root();
  {
    std::ofstream(dir / "net.rsn") << w.rsn_text;
    std::ofstream(dir / "ckt.v") << w.verilog_text;
    std::ofstream(dir / "policy.spec") << w.spec_text;
  }
  std::ostringstream cli_out, cli_err;
  cli::run({"analyze", "--rsn", (dir / "net.rsn").string(), "--verilog",
            (dir / "ckt.v").string(), "--spec",
            (dir / "policy.spec").string(), "--json"},
           cli_out, cli_err);
  ASSERT_FALSE(cli_out.str().empty()) << cli_err.str();

  AnalysisService service({});
  ExecResult result = service.execute(w.request(Command::Analyze));
  ASSERT_TRUE(result.ok()) << result.message;
  EXPECT_EQ(result.result_json + "\n", cli_out.str())
      << "daemon analyze must reuse the CLI's emitter byte-for-byte";
  fs::remove_all(dir);
}

// The store acceptance criterion, end to end through the daemon's
// execution path: a warm repeated-design request performs zero SAT
// calls, asserted via the obs `dep.sat_calls` counter.
TEST(AnalysisService, WarmRepeatedDesignMakesZeroSatCalls) {
  obs::TraceSession session;
  obs::TraceSession::set_active(&session);
  fs::path dir = test_root();
  {
    ServiceOptions sopt;
    sopt.store_dir = (dir / "store").string();
    sopt.analysis_threads = 2;
    AnalysisService service(sopt);

    Workload w;
    Request req = w.request(Command::Analyze);

    std::uint64_t before = session.counter("dep.sat_calls").value();
    ExecResult cold = service.execute(req);
    ASSERT_TRUE(cold.ok()) << cold.message;
    std::uint64_t after_cold = session.counter("dep.sat_calls").value();
    EXPECT_GT(after_cold, before) << "cold run must actually hit SAT";
    EXPECT_FALSE(cold.cache_hit);

    ExecResult warm = service.execute(req);
    ASSERT_TRUE(warm.ok()) << warm.message;
    std::uint64_t after_warm = session.counter("dep.sat_calls").value();
    EXPECT_EQ(after_warm, after_cold)
        << "warm repeated-design request must make zero SAT calls";
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(warm.result_json, cold.result_json);

    // Warm-starts are cross-tenant: the store is shared, so a different
    // tenant's identical design is also served without SAT.
    Request other = req;
    other.tenant = "someone-else";
    ExecResult cross = service.execute(other);
    ASSERT_TRUE(cross.ok()) << cross.message;
    EXPECT_EQ(session.counter("dep.sat_calls").value(), after_cold);
    EXPECT_TRUE(cross.cache_hit);
    EXPECT_EQ(cross.result_json, cold.result_json);
  }
  obs::TraceSession::set_active(nullptr);
  fs::remove_all(dir);
}

// Satellite check: SecureFlowTool / DependencyAnalyzer are re-entrant
// when sharing one service (one pool, one store). Concurrent execute()
// calls must produce exactly the serial bytes.
TEST(AnalysisService, ConcurrentExecuteIsBitIdenticalToSerial) {
  Workload w;
  AnalysisService service({.store_dir = "", .analysis_threads = 2});
  ExecResult ref_analyze = service.execute(w.request(Command::Analyze));
  ExecResult ref_secure = service.execute(w.request(Command::Secure));
  ASSERT_TRUE(ref_analyze.ok()) << ref_analyze.message;
  ASSERT_TRUE(ref_secure.ok()) << ref_secure.message;

  constexpr int kThreads = 4;
  std::vector<std::string> analyze_out(kThreads), secure_out(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      analyze_out[t] =
          service.execute(w.request(Command::Analyze)).result_json;
      secure_out[t] =
          service.execute(w.request(Command::Secure)).result_json;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(analyze_out[t], ref_analyze.result_json) << "thread " << t;
    EXPECT_EQ(secure_out[t], ref_secure.result_json) << "thread " << t;
  }
}

TEST(AnalysisService, GarbagePayloadIsBadFieldNotCrash) {
  AnalysisService service({});
  Request req;
  req.command = Command::Analyze;
  req.rsn = "this is not an rsn file";
  req.verilog = "module garbage(; endmodule";
  req.spec = "nor a spec";
  ExecResult result = service.execute(req);
  EXPECT_EQ(result.code, ServeCode::BadField);
  EXPECT_NE(result.message.find("payload"), std::string::npos)
      << result.message;
}

TEST(AnalysisService, SecureReturnsParseableSecuredNetwork) {
  Workload w;
  AnalysisService service({});
  ExecResult result = service.execute(w.request(Command::Secure));
  ASSERT_TRUE(result.ok()) << result.message;
  JsonParseResult parsed = parse_result(result);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_TRUE(parsed.value->find("secured") != nullptr);
  ASSERT_NE(parsed.value->find("changes"), nullptr);
  const JsonValue* rsn = parsed.value->find("rsn");
  ASSERT_NE(rsn, nullptr);
  ASSERT_TRUE(rsn->is_string());
  // The inline secured network must round-trip through the parser.
  std::istringstream is(rsn->string);
  EXPECT_NO_THROW({ rsn::read_rsn(is); });
}

TEST(AnalysisService, CertifyReturnsVerdictCounts) {
  Workload w;
  AnalysisService service({});
  ExecResult result = service.execute(w.request(Command::Certify));
  ASSERT_TRUE(result.ok()) << result.message;
  JsonParseResult parsed = parse_result(result);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_NE(parsed.value->find("certified"), nullptr);
  EXPECT_NE(parsed.value->find("violating_pairs"), nullptr);
  EXPECT_NE(parsed.value->find("nodes"), nullptr);
}

TEST(AnalysisService, AttackRejectsUnknownBenchmarkWithCatalog) {
  AnalysisService service({});
  Request req;
  req.command = Command::Attack;
  req.benchmark = "NoSuchFamily";
  ExecResult result = service.execute(req);
  EXPECT_EQ(result.code, ServeCode::BadField);
  EXPECT_NE(result.message.find("Mingle"), std::string::npos)
      << "error should list the known families: " << result.message;
}

TEST(AnalysisService, StatsReportPerTenantAccounting) {
  AnalysisService service({});
  service.set_queue_probe([] { return std::size_t{3}; });

  ExecResult ok;
  ok.code = ServeCode::Ok;
  ok.cache_hit = true;
  ExecResult err;
  err.code = ServeCode::Internal;
  service.record_queue_wait("acme", 0.002);
  service.record_result("acme", ok, 0.010);
  service.record_result("acme", err, 0.001);
  service.record_busy("acme");
  service.record_result("zeta", ok, 0.005);

  JsonParseResult parsed = parse_json(service.stats_json());
  ASSERT_TRUE(parsed.ok()) << parsed.error << "\n" << service.stats_json();
  EXPECT_EQ(parsed.value->number_field("queue_depth").value_or(-1), 3);
  const JsonValue* tenants = parsed.value->find("tenants");
  ASSERT_NE(tenants, nullptr);
  const JsonValue* acme = tenants->find("acme");
  ASSERT_NE(acme, nullptr);
  // Busy rejections count as requests too: 2 completed + 1 bounced.
  EXPECT_EQ(acme->number_field("requests").value_or(0), 3);
  EXPECT_EQ(acme->number_field("ok").value_or(0), 1);
  EXPECT_EQ(acme->number_field("errors").value_or(0), 1);
  EXPECT_EQ(acme->number_field("busy").value_or(0), 1);
  EXPECT_EQ(acme->number_field("cache_hits").value_or(0), 1);
  const JsonValue* latency = acme->find("latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->number_field("count").value_or(0), 2);
  EXPECT_GT(latency->number_field("p99_us").value_or(0), 0);
  const JsonValue* zeta = tenants->find("zeta");
  ASSERT_NE(zeta, nullptr);
  EXPECT_EQ(zeta->number_field("requests").value_or(0), 1);

  // store-stats without a store is still a valid (empty) report.
  JsonParseResult ss = parse_json(service.store_stats_json());
  ASSERT_TRUE(ss.ok()) << ss.error;
}

}  // namespace
}  // namespace rsnsec::serve
