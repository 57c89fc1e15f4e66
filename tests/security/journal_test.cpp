// Journaled trial evaluation against the reference rewiring. On a
// generated network of every BASTION family (scale 0.05, as RewireFuzz),
// every connection is cut with both reconnection hints on pooled trial
// workspaces — claimed per chunk of a ThreadPool loop, at 1 and 8
// threads — scored with the pure violation index and rolled back, as the
// resolution loop does. Every trial must
//   - produce the same network bytes and operation count as the frozen
//     copy-based reference cut (tests/reference),
//   - list every element whose inputs it changed among its journal
//     elements, and score the same violating-pair count as a from-scratch
//     count of the reference network,
//   - leave its workspace byte-identical to the committed network after
//     rollback.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "benchgen/families.hpp"
#include "benchgen/specgen.hpp"
#include "reference/reference.hpp"
#include "rsn/io.hpp"
#include "security/pure.hpp"
#include "security/rewire.hpp"
#include "security/violation_index.hpp"
#include "util/thread_pool.hpp"

namespace rsnsec::security {
namespace {

std::vector<std::string> family_names() {
  std::vector<std::string> out;
  for (const benchgen::BenchmarkProfile& p : benchgen::bastion_profiles())
    out.push_back(p.name);
  return out;
}

class JournaledTrials
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(JournaledTrials, ApplyScoreUndoMatchesReferenceCut) {
  auto [bench, threads] = GetParam();
  Rng rng(0x10a7ULL);
  rsn::RsnDocument doc = benchgen::generate_bastion(
      benchgen::bastion_profile(bench), 0.05, rng);
  benchgen::SpecOptions sopt;
  sopt.expected_sensitive_modules = 4;
  SecuritySpec spec =
      benchgen::random_spec(doc.module_names.size(), sopt, rng);
  TokenTable tokens(spec, spec.num_modules());
  PureScanAnalyzer pure(spec, tokens);
  const rsn::Rsn& base = doc.network;
  auto bytes = [&doc](const rsn::Rsn& n) {
    std::ostringstream os;
    rsn::write_rsn(os, n, doc.module_names, nullptr);
    return os.str();
  };
  const std::string base_bytes = bytes(base);

  struct Trial {
    Connection cut;
    rsn::ElemId hint;
    std::string bytes;
    int ops;
    std::size_t pairs;
  };
  std::vector<Trial> trials;
  for (const Connection& c : Rewirer::all_connections(base)) {
    for (rsn::ElemId hint : {rsn::no_elem, base.scan_in()}) {
      rsn::Rsn ref = base;
      int ops = reference::cut_connection(ref, c, hint);
      trials.push_back(
          {c, hint, bytes(ref), ops, pure.count_violating_pairs(ref)});
    }
  }
  ASSERT_FALSE(trials.empty());

  PureViolationIndex index(pure, base);
  ThreadPool pool(static_cast<std::size_t>(threads));
  TrialWorkspaces workspaces(base, pool.num_threads());
  std::vector<PureViolationIndex::Scratch> scratch(workspaces.capacity());
  std::vector<std::string> applied(trials.size()), restored(trials.size());
  std::vector<int> ops(trials.size(), 0);
  std::vector<std::size_t> pairs(trials.size(), 0);
  std::vector<int> unlisted(trials.size(), 0);
  pool.parallel_chunks(
      0, trials.size(),
      [&](std::size_t cb, std::size_t ce, std::size_t) {
        TrialWorkspaces::Claim ws(workspaces);
        rsn::Rsn& net = ws.network();
        for (std::size_t i = cb; i < ce; ++i) {
          net.begin_journal();
          ops[i] = Rewirer::cut_connection(net, index.fanout(), trials[i].cut,
                                           trials[i].hint);
          applied[i] = bytes(net);
          const std::vector<rsn::ElemId>& edited = net.journal_elements();
          std::vector<bool> listed(net.num_elements(), false);
          for (rsn::ElemId id : edited) listed[id] = true;
          for (rsn::ElemId id = 0; id < net.num_elements(); ++id) {
            bool changed = id >= base.num_elements() ||
                           net.elem(id).inputs != base.elem(id).inputs ||
                           net.elem(id).sel != base.elem(id).sel;
            if (changed && !listed[id]) ++unlisted[i];
          }
          pairs[i] = index.eval_trial(net, edited, scratch[ws.slot()]);
          net.rollback_journal();
          restored[i] = bytes(net);
        }
      },
      /*grain=*/0);

  for (std::size_t i = 0; i < trials.size(); ++i) {
    const Trial& t = trials[i];
    const std::string what = base.elem(t.cut.from).name + " -> " +
                             base.elem(t.cut.to).name + " port " +
                             std::to_string(t.cut.port) + " hint " +
                             std::to_string(t.hint);
    EXPECT_EQ(applied[i], t.bytes) << what;
    EXPECT_EQ(ops[i], t.ops) << what;
    EXPECT_EQ(unlisted[i], 0) << what;
    EXPECT_EQ(pairs[i], t.pairs) << what;
    EXPECT_EQ(restored[i], base_bytes) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, JournaledTrials,
    ::testing::Combine(::testing::ValuesIn(family_names()),
                       ::testing::Values(1, 8)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace rsnsec::security
