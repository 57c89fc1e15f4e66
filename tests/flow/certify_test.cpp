// Acceptance properties of the SAT-free certifier and the ternary SAT
// prefilter, swept over every BASTION benchmark family:
//
//  1. soundness ladder: the StructuralOnly closure over-approximates the
//     exact closure, the unrefined taint reachability over-approximates
//     the StructuralOnly closure, and the ternary-refined taint
//     reachability still over-approximates the exact closure's
//     functional (Path) relation — the edges the pipeline's hybrid
//     stage propagates over;
//  2. end-to-end: on workloads the pipeline secures, certify reports
//     zero violating pairs — and on workloads with violations, certify
//     finds them *before* securing (it misses nothing the exact
//     analysis found);
//  3. regression detection: re-introducing a violating RSN connection
//     into a secured network is caught with a CERT error;
//  4. the ternary prefilter changes no analysis result — the dependency
//     matrices equal the reference analysis, which sends every leaf to
//     SAT.

#include "flow/certify.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/running_example.hpp"
#include "benchgen/specgen.hpp"
#include "core/tool.hpp"
#include "dep/analyzer.hpp"
#include "flow/taint.hpp"
#include "reference/reference.hpp"

namespace rsnsec::flow {
namespace {

using security::TokenSet;
using security::TokenTable;

struct Workload {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;
  security::SecuritySpec spec{1, 1};
};

Workload make_workload(const benchgen::BenchmarkProfile& profile,
                       std::uint64_t seed) {
  Workload w;
  Rng rng(seed);
  // Cap both the register count and the flip-flop count so the exact
  // (SAT-backed) analyses of the sweep stay cheap; every property here is
  // scale-independent.
  double reg_cap = 18.0 / static_cast<double>(
                              std::max<std::size_t>(profile.registers, 1));
  double ff_cap = 2000.0 / static_cast<double>(
                               std::max<std::size_t>(profile.scan_ffs, 1));
  double scale = std::min({1.0, reg_cap, ff_cap});
  w.doc = benchgen::generate_bastion(profile, scale, rng);
  benchgen::CircuitOptions copt;
  copt.target_cross_functional = 6;
  copt.target_cross_structural = 6;
  w.circuit = benchgen::attach_random_circuit(w.doc, copt, rng);
  benchgen::SpecOptions sopt;
  sopt.expected_sensitive_modules = 4;
  w.spec = benchgen::random_spec(w.doc.module_names.size(), sopt, rng);
  return w;
}

bool has_code(const CertifyResult& r, const std::string& code,
              lint::Severity severity) {
  return std::any_of(r.diagnostics.begin(), r.diagnostics.end(),
                     [&](const lint::Diagnostic& d) {
                       return d.code == code && d.severity == severity;
                     });
}

TEST(CertifyRunningExample, FindsThreatsThenCertifiesSecuredNetwork) {
  benchgen::RunningExample ex = benchgen::make_running_example();

  // Before securing, both paper threats (pure and hybrid path) need the
  // RSN's inter-register connections: CERT003 findings.
  CertifyResult before = certify(ex.circuit, ex.doc.network, ex.spec);
  EXPECT_FALSE(before.certified());
  EXPECT_GT(before.stats.violating_pairs, 0u);
  EXPECT_TRUE(has_code(before, "CERT003", lint::Severity::Error));
  // The refinement summary note rides along and does not affect the
  // verdict.
  EXPECT_TRUE(has_code(before, "CERT004", lint::Severity::Note));

  SecureFlowTool tool(ex.circuit, ex.doc.network, ex.spec);
  PipelineResult result = tool.run();
  ASSERT_TRUE(result.static_report.clean());
  ASSERT_TRUE(result.secured);

  CertifyResult after = certify(ex.circuit, ex.doc.network, ex.spec);
  EXPECT_TRUE(after.certified()) << after.diagnostics.size()
                                 << " diagnostics";
  EXPECT_EQ(after.stats.violating_pairs, 0u);
  // Without the ternary refinement the XOR(F6, F6) reconvergence cannot
  // be discharged, so the coarser tier may (and here does) still report
  // the residual structural-only flow — the refined tier is the
  // certification verdict.
  CertifyOptions coarse;
  coarse.ternary_refine = false;
  CertifyResult unrefined =
      certify(ex.circuit, ex.doc.network, ex.spec, coarse);
  EXPECT_GE(unrefined.stats.violating_pairs, after.stats.violating_pairs);
  EXPECT_FALSE(has_code(unrefined, "CERT004", lint::Severity::Note));
}

TEST(CertifyRunningExample, FindingCapTruncatesWithNote) {
  benchgen::RunningExample ex = benchgen::make_running_example();
  CertifyOptions opt;
  opt.max_findings_per_code = 1;
  CertifyResult r = certify(ex.circuit, ex.doc.network, ex.spec, opt);
  ASSERT_FALSE(r.certified());
  // All pairs are still counted; only the rendering is capped.
  std::size_t errors = 0;
  for (const lint::Diagnostic& d : r.diagnostics)
    if (d.severity == lint::Severity::Error) ++errors;
  EXPECT_LE(errors, 3u);  // at most one per code
  EXPECT_GT(r.stats.violating_pairs, errors);
  EXPECT_TRUE(has_code(r, "CERT003", lint::Severity::Note));  // suppression
}

TEST(CertifySweep, SoundnessLadderOnAllBastionFamilies) {
  for (const benchgen::BenchmarkProfile& profile :
       benchgen::bastion_profiles()) {
    SCOPED_TRACE(profile.name);
    Workload w = make_workload(profile, 17);
    TokenTable tokens(w.spec, w.spec.num_modules());

    TaintOptions coarse;
    coarse.ternary_refine = false;
    TaintAnalyzer refined(w.circuit, w.doc.network, w.spec, tokens);
    TaintAnalyzer unrefined(w.circuit, w.doc.network, w.spec, tokens,
                            coarse);
    std::vector<std::vector<bool>> r_reach = refined.circuit_reachability();
    std::vector<std::vector<bool>> u_reach =
        unrefined.circuit_reachability();

    dep::DepOptions struct_opt;
    struct_opt.mode = dep::DepMode::StructuralOnly;
    dep::DependencyAnalyzer exact(w.circuit, w.doc.network, {});
    dep::DependencyAnalyzer structural(w.circuit, w.doc.network,
                                       struct_opt);
    exact.run();
    structural.run();

    for (std::size_t i = 0; i < refined.num_circuit_ffs(); ++i) {
      if (refined.is_internal(i)) continue;
      std::size_t ei = exact.circuit_index(refined.circuit_ff(i));
      for (std::size_t j = 0; j < refined.num_circuit_ffs(); ++j) {
        if (refined.is_internal(j) || i == j) continue;
        std::size_t ej = exact.circuit_index(refined.circuit_ff(j));
        DepKind e = exact.circuit_closure().get(ei, ej);
        DepKind s = structural.circuit_closure().get(ei, ej);
        // Structural mode over-approximates the exact relation...
        if (e != DepKind::None) {
          EXPECT_NE(s, DepKind::None);
        }
        // ...the unrefined taint graph over-approximates structural
        // mode (and thereby every exact dependency of either kind)...
        if (s != DepKind::None) {
          EXPECT_TRUE(u_reach[i][j]) << i << " -> " << j;
        }
        // ...and the ternary-refined graph drops only SAT-provably-dead
        // edges, so it still over-approximates the functional (Path)
        // relation — what the pipeline's hybrid stage propagates over.
        if (e == DepKind::Path) {
          EXPECT_TRUE(r_reach[i][j]) << i << " -> " << j;
        }
      }
    }
  }
}

/// Plants one RSN connection from a confidential register `a` to a
/// register `b` whose trust category must not see `a`'s data, through a
/// fresh mux (so the original edge of `b` stays structurally reachable
/// too). Returns false if the workload offers no such pair.
bool plant_violation(rsn::Rsn& net, const security::SecuritySpec& spec,
                     const TokenTable& tokens) {
  for (rsn::ElemId a : net.registers()) {
    const rsn::Element& ea = net.elem(a);
    if (ea.ffs.empty()) continue;
    int tok = tokens.token_of(ea.module);
    if (tok < 0) continue;
    for (rsn::ElemId b : net.registers()) {
      if (a == b) continue;
      const rsn::Element& eb = net.elem(b);
      if (eb.ffs.empty()) continue;
      if (!tokens.bad(spec.policy(eb.module).trust)
               .test(static_cast<std::size_t>(tok)))
        continue;
      if (net.reaches(b, a)) continue;  // keep the graph acyclic
      rsn::ElemId old = eb.inputs[0];
      rsn::ElemId m = net.add_mux("planted_regression", 2);
      if (old != rsn::no_elem) net.connect(old, m, 0);
      net.connect(a, m, 1);
      net.connect(m, b, 0);
      return true;
    }
  }
  return false;
}

TEST(CertifySweep, SecuredFamiliesCertifyCleanAndRegressionsAreCaught) {
  std::size_t secured = 0, with_violations = 0, planted = 0;
  for (const benchgen::BenchmarkProfile& profile :
       benchgen::bastion_profiles()) {
    SCOPED_TRACE(profile.name);
    Workload w = make_workload(profile, 23);

    // The certifier over-approximates the exact analysis: every workload
    // where the pipeline found violations must fail certification before
    // securing.
    CertifyResult before = certify(w.circuit, w.doc.network, w.spec);

    SecureFlowTool tool(w.circuit, w.doc.network, w.spec);
    PipelineResult result = tool.run();
    if (!result.static_report.clean()) {
      // The certifier must agree that something is wrong (the flow is in
      // the circuit or inside a segment: CERT001/CERT002 territory).
      EXPECT_FALSE(before.certified());
      continue;
    }
    ASSERT_TRUE(result.secured);
    ++secured;
    if (result.initial_violating_registers > 0) {
      ++with_violations;
      EXPECT_FALSE(before.certified());
      EXPECT_GT(before.stats.violating_pairs, 0u);
    }

    CertifyResult after = certify(w.circuit, w.doc.network, w.spec);
    EXPECT_TRUE(after.certified());
    EXPECT_EQ(after.stats.violating_pairs, 0u);

    // Re-introduce a violating connection: the certifier must catch it.
    TokenTable tokens(w.spec, w.spec.num_modules());
    if (plant_violation(w.doc.network, w.spec, tokens)) {
      ++planted;
      CertifyResult regressed = certify(w.circuit, w.doc.network, w.spec);
      EXPECT_FALSE(regressed.certified());
      EXPECT_GT(regressed.stats.violating_pairs, 0u);
      EXPECT_TRUE(has_code(regressed, "CERT003", lint::Severity::Error));
    }
  }
  // The sweep must actually exercise the interesting cases.
  EXPECT_GE(secured, 6u);
  EXPECT_GE(with_violations, 1u);
  EXPECT_GE(planted, 3u);
}

TEST(CertifySweep, TernaryPrefilterKeepsMatricesBitIdentical) {
  std::uint64_t total_ternary = 0;
  for (const char* name :
       {"BasicSCB", "Mingle", "TreeFlat", "q12710"}) {
    SCOPED_TRACE(name);
    Workload w = make_workload(benchgen::bastion_profile(name), 29);

    dep::DependencyAnalyzer a(w.circuit, w.doc.network, {});
    a.run();

    // The prefilter only replaces SAT queries whose answer it has proven:
    // the result equals the reference, which sends every leaf to SAT.
    reference::expect_matches(
        a, reference::analyze(w.circuit, w.doc.network), w.doc.network,
        name);
    total_ternary += a.stats().ternary_resolved;
  }
  // The prefilter must fire somewhere in the sweep, or it is dead code.
  EXPECT_GT(total_ternary, 0u);
}

}  // namespace
}  // namespace rsnsec::flow
