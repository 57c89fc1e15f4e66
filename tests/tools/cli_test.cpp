// End-to-end tests of the rsnsec command-line tool, driven in-process
// through rsnsec::cli::run with files in a temporary directory.

#include "tools/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/minijson.hpp"

namespace rsnsec::cli {
namespace {

namespace fs = std::filesystem;

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rsnsec_cli_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  int run_cli(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    return run(args, out_, err_);
  }

  fs::path dir_;
  std::ostringstream out_, err_;
};

TEST_F(CliTest, GenerateInfoAnalyzeSecureWorkflow) {
  // generate: network + circuit + spec files.
  int rc = run_cli({"generate", "--benchmark", "Mingle", "--scale", "0.4",
                    "--seed", "5", "--out-rsn", path("net.rsn"),
                    "--out-verilog", path("ckt.v"), "--out-spec",
                    path("policy.spec")});
  ASSERT_EQ(rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("generated"), std::string::npos);
  ASSERT_TRUE(fs::exists(path("net.rsn")));
  ASSERT_TRUE(fs::exists(path("ckt.v")));
  ASSERT_TRUE(fs::exists(path("policy.spec")));

  // info.
  rc = run_cli({"info", "--rsn", path("net.rsn")});
  ASSERT_EQ(rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("valid: yes"), std::string::npos);
  EXPECT_NE(out_.str().find("accessible registers"), std::string::npos);

  // analyze (either clean or violating; both legal outcomes).
  rc = run_cli({"analyze", "--rsn", path("net.rsn"), "--verilog",
                path("ckt.v"), "--spec", path("policy.spec")});
  ASSERT_TRUE(rc == 0 || rc == 2) << err_.str();
  EXPECT_NE(out_.str().find("violating registers"), std::string::npos);

  // secure (may be a no-op if the spec found nothing; rc 0 either way
  // unless the logic is statically insecure, which rc 3 reports).
  rc = run_cli({"secure", "--rsn", path("net.rsn"), "--verilog",
                path("ckt.v"), "--spec", path("policy.spec"), "--out",
                path("net_secure.rsn")});
  if (rc == 0) {
    ASSERT_TRUE(fs::exists(path("net_secure.rsn")));
    // The secured network must analyze clean.
    rc = run_cli({"analyze", "--rsn", path("net_secure.rsn"), "--verilog",
                  path("ckt.v"), "--spec", path("policy.spec")});
    EXPECT_EQ(rc, 0) << out_.str() << err_.str();
  } else {
    EXPECT_EQ(rc, 3);  // statically insecure circuit logic
  }
}

TEST_F(CliTest, SecureFindsAndFixesViolations) {
  // Deterministic hand-written workload: conf register feeding an
  // untrusted register, plus an update/circuit relay.
  std::ofstream(path("net.rsn")) <<
      "rsn demo\n"
      "module 0 conf\n"
      "module 1 relay\n"
      "module 2 untrusted\n"
      "register rc ffs 1 module 0\n"
      "register rr ffs 1 module 1\n"
      "register ru ffs 1 module 2\n"
      "connect scan_in ru 0\n"
      "connect ru rc 0\n"
      "connect rc rr 0\n"
      "connect rr scan_out 0\n"
      "capture rc 0 cf\n"
      "update rr 0 rf\n"
      "capture ru 0 uf\n";
  std::ofstream(path("ckt.v")) <<
      "module demo(input a);\n"
      "  (* instrument = \"conf\" *) dff (cf, cf);\n"
      "  (* instrument = \"relay\" *) dff (rf, rf);\n"
      "  (* instrument = \"untrusted\" *) dff (uf, rf);\n"
      "endmodule\n";
  std::ofstream(path("policy.spec")) <<
      "categories 2\n"
      "module conf trust 1 accepts 1\n"
      "module untrusted trust 0 accepts 0,1\n";

  int rc = run_cli({"analyze", "--rsn", path("net.rsn"), "--verilog",
                    path("ckt.v"), "--spec", path("policy.spec")});
  EXPECT_EQ(rc, 2) << out_.str();  // hybrid violation present

  rc = run_cli({"secure", "--rsn", path("net.rsn"), "--verilog",
                path("ckt.v"), "--spec", path("policy.spec"), "--out",
                path("fixed.rsn"), "--json"});
  ASSERT_EQ(rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("\"secured\": true"), std::string::npos);

  rc = run_cli({"analyze", "--rsn", path("fixed.rsn"), "--verilog",
                path("ckt.v"), "--spec", path("policy.spec")});
  EXPECT_EQ(rc, 0) << out_.str();
}

TEST_F(CliTest, AnalyzeJsonAndFilterBaseline) {
  ASSERT_EQ(run_cli({"generate", "--benchmark", "BasicSCB", "--scale", "1",
                     "--seed", "3", "--out-rsn", path("n.rsn"),
                     "--out-verilog", path("c.v"), "--out-spec",
                     path("s.spec")}),
            0)
      << err_.str();
  int rc = run_cli({"analyze", "--rsn", path("n.rsn"), "--verilog",
                    path("c.v"), "--spec", path("s.spec"), "--json",
                    "--filter-baseline"});
  ASSERT_TRUE(rc == 0 || rc == 2) << err_.str();
  EXPECT_NE(out_.str().find("\"hybrid_violating_pairs\""),
            std::string::npos);
  EXPECT_NE(out_.str().find("filter baseline"), std::string::npos);
}

TEST_F(CliTest, InfoFromIcl) {
  std::ofstream(path("net.icl")) << R"(
Module Top {
  ScanInPort SI;
  ScanOutPort SO { Source R; }
  ScanRegister R[3:0] { ScanInSource SI; }
}
)";
  int rc = run_cli({"info", "--icl", path("net.icl")});
  ASSERT_EQ(rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("1 registers, 4 scan FFs"), std::string::npos);
}

TEST_F(CliTest, GenerateMbistByName) {
  int rc = run_cli({"generate", "--benchmark", "MBIST_1_2_2", "--out-rsn",
                    path("m.rsn")});
  ASSERT_EQ(rc, 0) << err_.str();
  rc = run_cli({"info", "--rsn", path("m.rsn")});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out_.str().find("MBIST_1_2_2"), std::string::npos);
}

TEST_F(CliTest, ErrorsAreReported) {
  // An unknown command is a usage error, whatever arguments follow it.
  EXPECT_EQ(run_cli({"bogus"}), 2);
  EXPECT_NE(err_.str().find("unknown command 'bogus'"), std::string::npos);
  EXPECT_EQ(run_cli({"bench", "ablation", "--json"}), 2);
  EXPECT_NE(err_.str().find("unknown command 'bench'"), std::string::npos);
  EXPECT_EQ(err_.str().find(" bench"), std::string::npos) << err_.str();

  EXPECT_EQ(run_cli({"info", "--rsn", path("missing.rsn")}), 1);
  EXPECT_NE(err_.str().find("cannot open"), std::string::npos);

  EXPECT_EQ(run_cli({"analyze", "--rsn", path("missing.rsn")}), 1);
  EXPECT_EQ(run_cli({"generate", "--benchmark", "NoSuch", "--out-rsn",
                     path("x.rsn")}),
            1);
  // An option no subcommand reads is a usage error, value or not.
  EXPECT_EQ(run_cli({"secure", "--oops"}), 2);
  EXPECT_NE(err_.str().find("unknown option '--oops'"), std::string::npos);
}

TEST_F(CliTest, MalformedNumbersAreUsageErrors) {
  // Exit 2 = "your invocation is wrong", with the offending token named.
  EXPECT_EQ(run_cli({"generate", "--benchmark", "Mingle", "--seed", "abc",
                     "--out-rsn", path("x.rsn")}),
            2);
  EXPECT_NE(err_.str().find("--seed"), std::string::npos);
  EXPECT_NE(err_.str().find("abc"), std::string::npos);

  EXPECT_EQ(run_cli({"generate", "--benchmark", "Mingle", "--seed",
                     "99999999999999999999", "--out-rsn", path("x.rsn")}),
            2);

  EXPECT_EQ(run_cli({"generate", "--benchmark", "Mingle", "--scale", "big",
                     "--out-rsn", path("x.rsn")}),
            2);
  EXPECT_NE(err_.str().find("--scale"), std::string::npos);

  EXPECT_EQ(run_cli({"generate", "--benchmark", "MBIST_1_x_2", "--out-rsn",
                     path("x.rsn")}),
            2);
  EXPECT_NE(err_.str().find("MBIST"), std::string::npos);

  std::ofstream(path("n.rsn")) << "rsn t\n"
                                  "register a ffs 1 module -1\n"
                                  "connect scan_in a 0\n"
                                  "connect a scan_out 0\n";
  EXPECT_EQ(run_cli({"lint", path("n.rsn"), "--jobs", "many"}), 2);
  EXPECT_NE(err_.str().find("--jobs"), std::string::npos);
}

TEST_F(CliTest, MalformedSpecFileExitsTwoWithLineNumber) {
  ASSERT_EQ(run_cli({"generate", "--benchmark", "BasicSCB", "--seed", "3",
                     "--out-rsn", path("n.rsn"), "--out-verilog",
                     path("c.v")}),
            0)
      << err_.str();
  std::ofstream(path("bad.spec")) << "categories 2\n"
                                  << "module 0 trust 99999999999999999999 "
                                     "accepts 0\n";
  int rc = run_cli({"analyze", "--rsn", path("n.rsn"), "--verilog",
                    path("c.v"), "--spec", path("bad.spec")});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("spec parse error at line 2"),
            std::string::npos)
      << err_.str();
}

TEST_F(CliTest, TraceAndMetricsProduceValidOutputs) {
  ASSERT_EQ(run_cli({"generate", "--benchmark", "Mingle", "--scale", "0.4",
                     "--seed", "5", "--out-rsn", path("net.rsn"),
                     "--out-verilog", path("ckt.v"), "--out-spec",
                     path("policy.spec")}),
            0)
      << err_.str();

  int rc = run_cli({"analyze", "--rsn", path("net.rsn"), "--verilog",
                    path("ckt.v"), "--spec", path("policy.spec"), "--json",
                    "--trace", path("trace.json"), "--metrics"});
  ASSERT_TRUE(rc == 0 || rc == 2) << err_.str();
  EXPECT_TRUE(testsupport::is_valid_json(out_.str())) << out_.str();

  // The trace file is strict JSON with spans and counters in it.
  std::ifstream f(path("trace.json"));
  ASSERT_TRUE(f.good());
  std::stringstream trace;
  trace << f.rdbuf();
  EXPECT_TRUE(testsupport::is_valid_json(trace.str()));
  EXPECT_NE(trace.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.str().find("dep.one_cycle"), std::string::npos);
  EXPECT_NE(trace.str().find("dep.closure"), std::string::npos);

  // --metrics prints the text summary to the error stream.
  EXPECT_NE(err_.str().find("== metrics =="), std::string::npos);
  EXPECT_NE(err_.str().find("dep.runs"), std::string::npos);
}

TEST_F(CliTest, SecureTraceAttributesReadingAndWriting) {
  ASSERT_EQ(run_cli({"generate", "--benchmark", "FlexScan", "--scale",
                     "0.02", "--seed", "2", "--out-rsn", path("net.rsn"),
                     "--out-verilog", path("ckt.v"), "--out-spec",
                     path("policy.spec")}),
            0)
      << err_.str();
  ASSERT_EQ(run_cli({"secure", "--rsn", path("net.rsn"), "--verilog",
                     path("ckt.v"), "--spec", path("policy.spec"), "--out",
                     path("out.rsn"), "--trace", path("trace.json"),
                     "--metrics"}),
            0)
      << err_.str();
  std::ifstream f(path("trace.json"));
  ASSERT_TRUE(f.good());
  std::stringstream trace;
  trace << f.rdbuf();
  ASSERT_TRUE(testsupport::is_valid_json(trace.str()));
  for (const char* span :
       {"input.rsn", "input.verilog", "input.spec", "output.rsn"}) {
    EXPECT_NE(trace.str().find(std::string("\"") + span + "\""),
              std::string::npos)
        << span;
    EXPECT_NE(err_.str().find(span), std::string::npos) << span;
  }
}

TEST_F(CliTest, SecureWithTraceEmbedsObservabilityInReport) {
  ASSERT_EQ(run_cli({"generate", "--benchmark", "Mingle", "--scale", "0.4",
                     "--seed", "5", "--out-rsn", path("net.rsn"),
                     "--out-verilog", path("ckt.v"), "--out-spec",
                     path("policy.spec")}),
            0)
      << err_.str();
  int rc = run_cli({"secure", "--rsn", path("net.rsn"), "--verilog",
                    path("ckt.v"), "--spec", path("policy.spec"), "--out",
                    path("out.rsn"), "--json", "--trace",
                    path("trace.json")});
  ASSERT_TRUE(rc == 0 || rc == 3) << err_.str();
  EXPECT_TRUE(testsupport::is_valid_json(out_.str())) << out_.str();
  EXPECT_NE(out_.str().find("\"observability\""), std::string::npos);
  EXPECT_NE(out_.str().find("\"pipeline\""), std::string::npos);
  std::ifstream f(path("trace.json"));
  ASSERT_TRUE(f.good());
  std::stringstream trace;
  trace << f.rdbuf();
  EXPECT_TRUE(testsupport::is_valid_json(trace.str()));
}

TEST_F(CliTest, CertifyWorkflowOnDeterministicWorkload) {
  // Same hand-written workload as SecureFindsAndFixesViolations: a
  // confidential register whose data reaches an untrusted register over
  // the RSN and over an update/circuit relay.
  std::ofstream(path("net.rsn")) <<
      "rsn demo\n"
      "module 0 conf\n"
      "module 1 relay\n"
      "module 2 untrusted\n"
      "register rc ffs 1 module 0\n"
      "register rr ffs 1 module 1\n"
      "register ru ffs 1 module 2\n"
      "connect scan_in ru 0\n"
      "connect ru rc 0\n"
      "connect rc rr 0\n"
      "connect rr scan_out 0\n"
      "capture rc 0 cf\n"
      "update rr 0 rf\n"
      "capture ru 0 uf\n";
  std::ofstream(path("ckt.v")) <<
      "module demo(input a);\n"
      "  (* instrument = \"conf\" *) dff (cf, cf);\n"
      "  (* instrument = \"relay\" *) dff (rf, rf);\n"
      "  (* instrument = \"untrusted\" *) dff (uf, rf);\n"
      "endmodule\n";
  std::ofstream(path("policy.spec")) <<
      "categories 2\n"
      "module conf trust 1 accepts 1\n"
      "module untrusted trust 0 accepts 0,1\n";

  // Unsecured: certification fails with CERT diagnostics, exit 2.
  int rc = run_cli({"certify", "--rsn", path("net.rsn"), "--verilog",
                    path("ckt.v"), "--spec", path("policy.spec")});
  EXPECT_EQ(rc, 2) << out_.str() << err_.str();
  EXPECT_NE(out_.str().find("CERT"), std::string::npos);
  EXPECT_NE(out_.str().find("certified: NO"), std::string::npos);

  ASSERT_EQ(run_cli({"secure", "--rsn", path("net.rsn"), "--verilog",
                     path("ckt.v"), "--spec", path("policy.spec"), "--out",
                     path("fixed.rsn"), "--verify"}),
            0)
      << err_.str();

  // Secured: certification passes, exit 0; --json is machine-readable.
  rc = run_cli({"certify", "--rsn", path("fixed.rsn"), "--verilog",
                path("ckt.v"), "--spec", path("policy.spec")});
  EXPECT_EQ(rc, 0) << out_.str() << err_.str();
  EXPECT_NE(out_.str().find("certified: yes"), std::string::npos);

  rc = run_cli({"certify", "--rsn", path("fixed.rsn"), "--verilog",
                path("ckt.v"), "--spec", path("policy.spec"), "--json"});
  EXPECT_EQ(rc, 0) << err_.str();
  EXPECT_TRUE(testsupport::is_valid_json(out_.str())) << out_.str();
  EXPECT_NE(out_.str().find("\"certified\": true"), std::string::npos);
  EXPECT_NE(out_.str().find("\"violating_pairs\": 0"), std::string::npos);
}

TEST_F(CliTest, AnalyzeJsonEchoesDependencyConfiguration) {
  ASSERT_EQ(run_cli({"generate", "--benchmark", "BasicSCB", "--scale", "1",
                     "--seed", "3", "--out-rsn", path("n.rsn"),
                     "--out-verilog", path("c.v"), "--out-spec",
                     path("s.spec")}),
            0)
      << err_.str();
  int rc = run_cli({"analyze", "--rsn", path("n.rsn"), "--verilog",
                    path("c.v"), "--spec", path("s.spec"), "--json"});
  ASSERT_TRUE(rc == 0 || rc == 2) << err_.str();
  EXPECT_NE(out_.str().find("\"dep_mode\": \"exact\""), std::string::npos);

  rc = run_cli({"analyze", "--rsn", path("n.rsn"), "--verilog",
                path("c.v"), "--spec", path("s.spec"), "--json",
                "--structural"});
  ASSERT_TRUE(rc == 0 || rc == 2) << err_.str();
  EXPECT_NE(out_.str().find("\"dep_mode\": \"structural\""),
            std::string::npos);
  // Structural mode issues no SAT queries, so the ternary prefilter has
  // nothing to discharge.
  EXPECT_NE(out_.str().find("\"dep_ternary_resolved\": 0"),
            std::string::npos);

  // --no-ternary switches certify's refinement only; analyze and secure
  // reject it instead of silently ignoring it.
  for (const char* cmd : {"analyze", "secure"}) {
    rc = run_cli({cmd, "--rsn", path("n.rsn"), "--verilog", path("c.v"),
                  "--spec", path("s.spec"), "--out", path("o.rsn"),
                  "--no-ternary"});
    EXPECT_EQ(rc, 2) << cmd;
    EXPECT_NE(err_.str().find("--no-ternary applies only to certify"),
              std::string::npos)
        << cmd << ": " << err_.str();
  }
}

TEST_F(CliTest, UnknownModeIsUsageError) {
  ASSERT_EQ(run_cli({"generate", "--benchmark", "BasicSCB", "--seed", "3",
                     "--out-rsn", path("n.rsn"), "--out-verilog",
                     path("c.v"), "--out-spec", path("s.spec")}),
            0)
      << err_.str();
  int rc = run_cli({"analyze", "--rsn", path("n.rsn"), "--verilog",
                    path("c.v"), "--spec", path("s.spec"), "--mode",
                    "bogus"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("unknown --mode 'bogus'"), std::string::npos);
  EXPECT_NE(err_.str().find("exact"), std::string::npos);
}

TEST_F(CliTest, JobsZeroIsUsageError) {
  // --jobs 0 used to silently mean "auto" (the internal convention);
  // as explicit user input it is ambiguous and now exits 2.
  int rc = run_cli({"attack", "--benchmark", "BasicSCB", "--jobs", "0"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("--jobs"), std::string::npos);
  EXPECT_NE(err_.str().find("omit the flag for auto"), std::string::npos);
}

TEST_F(CliTest, ServeSocketAndPortAreMutuallyExclusive) {
  int rc = run_cli({"serve", "--socket", path("s.sock"), "--port", "0"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("--socket"), std::string::npos);
  EXPECT_NE(err_.str().find("--port"), std::string::npos);
  EXPECT_NE(err_.str().find("mutually exclusive"), std::string::npos);
}

TEST_F(CliTest, ServeWithoutEndpointIsUsageError) {
  // The env fallback must not leak in from the harness environment.
  ::unsetenv("RSNSEC_SERVE_SOCKET");
  int rc = run_cli({"serve"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("--socket"), std::string::npos);
  EXPECT_NE(err_.str().find("RSNSEC_SERVE_SOCKET"), std::string::npos);
}

TEST_F(CliTest, ServeEnvFallbackReachesEndpointValidation) {
  // With only the env var set, endpoint resolution succeeds and the
  // usage error comes from the *next* validation stage (--workers 0),
  // proving the fallback was honored without actually binding a socket.
  ::setenv("RSNSEC_SERVE_SOCKET", path("env.sock").c_str(), 1);
  int rc = run_cli({"serve", "--workers", "0"});
  ::unsetenv("RSNSEC_SERVE_SOCKET");
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("--workers"), std::string::npos);
  EXPECT_EQ(err_.str().find("RSNSEC_SERVE_SOCKET"), std::string::npos);
}

TEST_F(CliTest, ServeRejectsOutOfRangeTuning) {
  EXPECT_EQ(run_cli({"serve", "--port", "65536"}), 2);
  EXPECT_NE(err_.str().find("--port"), std::string::npos);
  EXPECT_EQ(run_cli({"serve", "--port", "0", "--queue-depth", "0"}), 2);
  EXPECT_NE(err_.str().find("--queue-depth"), std::string::npos);
  EXPECT_EQ(run_cli({"serve", "--port", "0", "--max-request-bytes", "0"}), 2);
  EXPECT_NE(err_.str().find("--max-request-bytes"), std::string::npos);
}

TEST_F(CliTest, DuplicateOptionLastOccurrenceWins) {
  // The first --benchmark value is unknown and would exit 2; success
  // proves the documented last-occurrence-wins rule.
  int rc = run_cli({"attack", "--benchmark", "NoSuchFamily", "--benchmark",
                    "BasicSCB", "--no-secure"});
  EXPECT_EQ(rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("attack: BasicSCB"), std::string::npos);
}

TEST_F(CliTest, AttackRejectsBadArguments) {
  // Missing required option: generic error (rc 1), repo convention.
  EXPECT_EQ(run_cli({"attack"}), 1);
  EXPECT_EQ(run_cli({"attack", "--benchmark", "NoSuchFamily"}), 2);
  EXPECT_NE(err_.str().find("NoSuchFamily"), std::string::npos);
  EXPECT_NE(err_.str().find("BasicSCB"), std::string::npos);  // catalog
  EXPECT_EQ(run_cli({"attack", "--benchmark", "BasicSCB", "--scenario",
                     "bogus"}),
            2);
  EXPECT_EQ(run_cli({"attack", "--benchmark", "BasicSCB", "--seed",
                     "twelve"}),
            2);
}

TEST_F(CliTest, AttackEndToEndJson) {
  int rc = run_cli({"attack", "--benchmark", "BasicSCB", "--seed", "1",
                    "--json"});
  ASSERT_EQ(rc, 0) << err_.str();
  const std::string json = out_.str();
  EXPECT_TRUE(testsupport::JsonValidator(json).validate()) << json;
  EXPECT_NE(json.find("\"recovered_pre\": true"), std::string::npos);
  EXPECT_NE(json.find("\"recovered_post\": false"), std::string::npos);
  EXPECT_NE(json.find("\"soundness_bug\": false"), std::string::npos);
  EXPECT_NE(json.find("\"pre_secure\""), std::string::npos);
  EXPECT_NE(json.find("\"post_secure\""), std::string::npos);
}

TEST_F(CliTest, AnalyzeReportsTiledFootprint) {
  ASSERT_EQ(run_cli({"generate", "--benchmark", "BasicSCB", "--seed", "3",
                     "--out-rsn", path("n.rsn"), "--out-verilog",
                     path("c.v"), "--out-spec", path("s.spec")}),
            0)
      << err_.str();
  // Even a repro-scale workload runs on the tiled matrices: at least one
  // region and one denoted tile, with their resident bytes.
  int rc = run_cli({"analyze", "--rsn", path("n.rsn"), "--verilog",
                    path("c.v"), "--spec", path("s.spec"), "--json"});
  ASSERT_TRUE(rc == 0 || rc == 2) << err_.str();
  const std::string json = out_.str();
  EXPECT_TRUE(testsupport::JsonValidator(json).validate()) << json;
  EXPECT_NE(json.find("\"dep_regions\": "), std::string::npos);
  EXPECT_EQ(json.find("\"dep_regions\": 0"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"dep_tiles_nonzero\": 0"), std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"dep_matrix_bytes\": 0"), std::string::npos)
      << json;

  // The text report states the same footprint.
  rc = run_cli({"analyze", "--rsn", path("n.rsn"), "--verilog", path("c.v"),
                "--spec", path("s.spec")});
  ASSERT_TRUE(rc == 0 || rc == 2) << err_.str();
  EXPECT_NE(out_.str().find("bytes resident ("), std::string::npos)
      << out_.str();
}

TEST_F(CliTest, UnknownOptionsAreUsageErrors) {
  ASSERT_EQ(run_cli({"generate", "--benchmark", "BasicSCB", "--seed", "3",
                     "--out-rsn", path("n.rsn"), "--out-verilog",
                     path("c.v"), "--out-spec", path("s.spec")}),
            0)
      << err_.str();
  const std::vector<std::string> analyze = {
      "analyze", "--rsn", path("n.rsn"), "--verilog", path("c.v"),
      "--spec", path("s.spec")};
  // A retired option and a misspelled one are rejected before any work
  // runs, with the offending name quoted.
  const std::pair<const char*, const char*> rejected[] = {
      {"--tile-spill-budget", "4096"}, {"--jbos", "4"}};
  for (const auto& [bad, value] : rejected) {
    std::vector<std::string> argv = analyze;
    argv.insert(argv.end(), {bad, value});
    EXPECT_EQ(run_cli(argv), 2) << bad;
    EXPECT_NE(err_.str().find(std::string("unknown option '") + bad + "'"),
              std::string::npos)
        << err_.str();
  }
  // The options scripts pass alongside the workload files stay accepted.
  std::vector<std::string> argv = analyze;
  argv.insert(argv.end(), {"--jobs", "2", "--json", "--metrics", "--store",
                           path("store"), "--trace", path("t.json")});
  const int rc = run_cli(argv);
  EXPECT_TRUE(rc == 0 || rc == 2) << err_.str();
  EXPECT_EQ(err_.str().find("unknown option"), std::string::npos)
      << err_.str();
}

TEST_F(CliTest, OverflowingGenerateDimensionsAreUsageErrors) {
  int rc = run_cli({"generate", "--benchmark",
                    "MBIST_9999999999_99999_99999", "--out-rsn",
                    path("n.rsn")});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("too large"), std::string::npos);
  rc = run_cli({"generate", "--benchmark", "MBIST_2_5_5", "--scale", "1e30",
                "--out-rsn", path("n.rsn")});
  EXPECT_EQ(rc, 2);
}

TEST_F(CliTest, SecureRereadsItsOwnOneInputMuxOutput) {
  // Securing this design shrinks a mux to one input port
  // ("mux TreeBalanced_sib1 inputs 1"); the text reader must accept the
  // file `secure` writes, and securing it again must change nothing.
  ASSERT_EQ(run_cli({"generate", "--benchmark", "TreeBalanced", "--scale",
                     "0.1", "--seed", "1", "--out-rsn", path("net.rsn"),
                     "--out-verilog", path("ckt.v"), "--out-spec",
                     path("policy.spec")}),
            0)
      << err_.str();
  ASSERT_EQ(run_cli({"secure", "--rsn", path("net.rsn"), "--verilog",
                     path("ckt.v"), "--spec", path("policy.spec"), "--out",
                     path("once.rsn")}),
            0)
      << err_.str();
  std::ifstream f(path("once.rsn"));
  std::stringstream once;
  once << f.rdbuf();
  ASSERT_NE(once.str().find(" inputs 1\n"), std::string::npos)
      << "workload no longer produces a one-input mux";
  ASSERT_EQ(run_cli({"secure", "--rsn", path("once.rsn"), "--verilog",
                     path("ckt.v"), "--spec", path("policy.spec"), "--out",
                     path("twice.rsn")}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("applied changes: 0 pure + 0 hybrid"),
            std::string::npos)
      << out_.str();
  std::ifstream g(path("twice.rsn"));
  std::stringstream twice;
  twice << g.rdbuf();
  EXPECT_EQ(once.str(), twice.str());
}

TEST_F(CliTest, CertifyAgreesWithAnalyzeOnSecuredFlexScan) {
  // The only remaining witness of seven certify findings on this secured
  // design ran over an absorbed next-state edge (OR(AND(x, a), a)) that
  // the SAT-exact analysis proves dead; certify's refinement now
  // case-splits such small cones, so both models report 0 pairs.
  ASSERT_EQ(run_cli({"generate", "--benchmark", "FlexScan", "--scale",
                     "0.05", "--seed", "104", "--out-rsn", path("net.rsn"),
                     "--out-verilog", path("ckt.v"), "--out-spec",
                     path("policy.spec")}),
            0)
      << err_.str();
  ASSERT_EQ(run_cli({"secure", "--rsn", path("net.rsn"), "--verilog",
                     path("ckt.v"), "--spec", path("policy.spec"), "--out",
                     path("secured.rsn")}),
            0)
      << err_.str();
  EXPECT_EQ(run_cli({"analyze", "--rsn", path("secured.rsn"), "--verilog",
                     path("ckt.v"), "--spec", path("policy.spec")}),
            0)
      << out_.str();
  EXPECT_EQ(run_cli({"certify", "--rsn", path("secured.rsn"), "--verilog",
                     path("ckt.v"), "--spec", path("policy.spec")}),
            0)
      << out_.str();
}

TEST_F(CliTest, SecureIsIdempotentOnItsOwnOutput) {
  // Securing a secured network must find nothing to change and write the
  // same bytes back, across families whose fixes are pure, hybrid or
  // none at all.
  const std::pair<const char*, const char*> families[] = {
      {"Mingle", "0.5"},
      {"FlexScan", "0.02"},
      {"q12710", "0.1"},
      {"TreeFlat", "0.2"}};
  for (const auto& [benchmark, scale] : families) {
    for (const char* seed : {"1", "2", "3", "4"}) {
      SCOPED_TRACE(std::string(benchmark) + " seed " + seed);
      ASSERT_EQ(run_cli({"generate", "--benchmark", benchmark, "--scale",
                         scale, "--seed", seed, "--out-rsn", path("net.rsn"),
                         "--out-verilog", path("ckt.v"), "--out-spec",
                         path("policy.spec")}),
                0)
          << err_.str();
      ASSERT_EQ(run_cli({"secure", "--rsn", path("net.rsn"), "--verilog",
                         path("ckt.v"), "--spec", path("policy.spec"),
                         "--out", path("a.rsn")}),
                0)
          << err_.str();
      ASSERT_EQ(run_cli({"secure", "--rsn", path("a.rsn"), "--verilog",
                         path("ckt.v"), "--spec", path("policy.spec"),
                         "--out", path("b.rsn"), "--json"}),
                0)
          << err_.str();
      EXPECT_NE(out_.str().find("\"changes\": {\n    \"pure\": 0,\n"
                                "    \"hybrid\": 0,"),
                std::string::npos)
          << out_.str();
      std::ifstream a(path("a.rsn"));
      std::ifstream b(path("b.rsn"));
      std::stringstream once, twice;
      once << a.rdbuf();
      twice << b.rdbuf();
      EXPECT_EQ(once.str(), twice.str());
    }
  }
}

/// Value of work counter `name` in a `secure --json --metrics` report, or
/// -1 if the report does not list it.
long long report_counter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  std::size_t at = json.find(key);
  if (at == std::string::npos) return -1;
  return std::stoll(json.substr(at + key.size()));
}

struct CounterGate {
  const char* benchmark;
  const char* scale;
  const char* seed;
  long long trials, delta_queries, pure_iterations, changes_applied;
  long long witness_index_builds;
};

// Work counters of the full pipeline on fixed workloads. Selections are
// deterministic and independent of the thread count, so these are exact:
// a change in the number of rewire trials, delta queries, pure
// iterations or applied changes means the resolver selects or evaluates
// differently — a regression gate that needs no clock.
TEST_F(CliTest, SecureWorkCountersMatchRecordedValues) {
  const CounterGate gates[] = {
      {"FlexScan", "0.02", "2", 3189, 3214, 23, 25, 1},
      {"q12710", "0.35", "3", 17, 19, 1, 2, 1},
  };
  for (const CounterGate& g : gates) {
    SCOPED_TRACE(g.benchmark);
    ASSERT_EQ(run_cli({"generate", "--benchmark", g.benchmark, "--scale",
                       g.scale, "--seed", g.seed, "--out-rsn",
                       path("net.rsn"), "--out-verilog", path("ckt.v"),
                       "--out-spec", path("policy.spec")}),
              0)
        << err_.str();
    ASSERT_EQ(run_cli({"secure", "--rsn", path("net.rsn"), "--verilog",
                       path("ckt.v"), "--spec", path("policy.spec"),
                       "--out", path("out.rsn"), "--json", "--metrics",
                       "--jobs", "2"}),
              0)
        << err_.str();
    const std::string report = out_.str();
    EXPECT_EQ(report_counter(report, "rewire.trials"), g.trials);
    EXPECT_EQ(report_counter(report, "resolve.delta_queries"),
              g.delta_queries);
    EXPECT_EQ(report_counter(report, "resolve.pure_iterations"),
              g.pure_iterations);
    EXPECT_EQ(report_counter(report, "rewire.changes_applied"),
              g.changes_applied);
    // The hybrid stage builds its witness index once, on its first
    // violation, whatever the number of changes.
    EXPECT_EQ(report_counter(report, "hybrid.witness_index_builds"),
              g.witness_index_builds);
  }
}

TEST_F(CliTest, SecureWithoutHybridViolationsBuildsNoWitnessIndex) {
  // FlexScan seed 1 has pure violations only: the hybrid stage finds
  // pairs() == 0 and answers without building the witness index.
  ASSERT_EQ(run_cli({"generate", "--benchmark", "FlexScan", "--scale", "0.02",
                     "--seed", "1", "--out-rsn", path("net.rsn"),
                     "--out-verilog", path("ckt.v"), "--out-spec",
                     path("policy.spec")}),
            0)
      << err_.str();
  ASSERT_EQ(run_cli({"secure", "--rsn", path("net.rsn"), "--verilog",
                     path("ckt.v"), "--spec", path("policy.spec"), "--out",
                     path("out.rsn"), "--json", "--metrics"}),
            0)
      << err_.str();
  const std::string report = out_.str();
  EXPECT_EQ(report_counter(report, "resolve.hybrid_iterations"), -1);
  EXPECT_LE(report_counter(report, "hybrid.witness_index_builds"), 0);
}

}  // namespace
}  // namespace rsnsec::cli
