#include "rsn/rsn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "rsn/io.hpp"

namespace rsnsec::rsn {
namespace {

/// scan_in -> r1 -> mux(bypass: r1, through: r2) -> r3 -> scan_out,
/// with r2 fed from r1.
struct SmallNet {
  Rsn net{"small"};
  ElemId r1, r2, r3, mux;
  SmallNet() {
    r1 = net.add_register("r1", 2, 0);
    r2 = net.add_register("r2", 3, 1);
    r3 = net.add_register("r3", 1, 2);
    mux = net.add_mux("m", 2);
    net.connect(net.scan_in(), r1, 0);
    net.connect(r1, r2, 0);
    net.connect(r1, mux, 0);
    net.connect(r2, mux, 1);
    net.connect(mux, r3, 0);
    net.connect(r3, net.scan_out(), 0);
  }
};

TEST(Rsn, CountsAndAccessors) {
  SmallNet s;
  EXPECT_EQ(s.net.registers().size(), 3u);
  EXPECT_EQ(s.net.muxes().size(), 1u);
  EXPECT_EQ(s.net.num_scan_ffs(), 6u);
  EXPECT_EQ(s.net.elem(s.r1).ffs.size(), 2u);
  EXPECT_EQ(s.net.elem(s.r1).module, 0);
  EXPECT_EQ(s.net.elem(s.mux).inputs.size(), 2u);
}

TEST(Rsn, ValidatesWhenComplete) {
  SmallNet s;
  std::string err;
  EXPECT_TRUE(s.net.validate(&err)) << err;
}

TEST(Rsn, ValidateRejectsDanglingRegister) {
  Rsn net("n");
  ElemId r = net.add_register("r", 1, 0);
  net.connect(r, net.scan_out(), 0);
  std::string err;
  EXPECT_FALSE(net.validate(&err));
  EXPECT_NE(err.find("dangling"), std::string::npos);
}

TEST(Rsn, ValidateRejectsUnreachableRegister) {
  Rsn net("n");
  ElemId a = net.add_register("a", 1, 0);
  ElemId b = net.add_register("b", 1, 0);
  net.connect(net.scan_in(), a, 0);
  net.connect(a, net.scan_out(), 0);
  // b drives nothing and reaches nothing, but has a driver.
  net.connect(net.scan_in(), b, 0);
  std::string err;
  EXPECT_FALSE(net.validate(&err));
  EXPECT_NE(err.find("scan-out"), std::string::npos);
}

TEST(Rsn, AcyclicDetectsCycle) {
  Rsn net("n");
  ElemId a = net.add_register("a", 1, 0);
  ElemId b = net.add_register("b", 1, 0);
  net.connect(a, b, 0);
  net.connect(b, a, 0);
  EXPECT_FALSE(net.is_acyclic());
}

TEST(Rsn, ActivePathFollowsMuxSelect) {
  SmallNet s;
  s.net.set_mux_select(s.mux, 0);  // bypass r2
  std::vector<ElemId> p = s.net.active_path();
  ASSERT_FALSE(p.empty());
  EXPECT_EQ(p.front(), s.net.scan_in());
  EXPECT_EQ(p.back(), s.net.scan_out());
  EXPECT_EQ(std::count(p.begin(), p.end(), s.r2), 0);
  EXPECT_EQ(std::count(p.begin(), p.end(), s.r1), 1);

  s.net.set_mux_select(s.mux, 1);  // through r2
  p = s.net.active_path();
  EXPECT_EQ(std::count(p.begin(), p.end(), s.r2), 1);
}

TEST(Rsn, ActivePathEmptyWhenBroken) {
  Rsn net("n");
  ElemId r = net.add_register("r", 1, 0);
  net.connect(r, net.scan_out(), 0);
  // r's input dangles: no complete path.
  EXPECT_TRUE(net.active_path().empty());
}

TEST(Rsn, ReachabilityQueries) {
  SmallNet s;
  EXPECT_TRUE(s.net.reaches(s.r1, s.r3));
  EXPECT_TRUE(s.net.reaches(s.r2, s.r3));
  EXPECT_FALSE(s.net.reaches(s.r3, s.r1));
  EXPECT_FALSE(s.net.reaches(s.r2, s.r1));
  EXPECT_TRUE(s.net.reaches(s.net.scan_in(), s.net.scan_out()));

  auto from_r1 = s.net.reachable_from(s.r1);
  EXPECT_NE(std::find(from_r1.begin(), from_r1.end(), s.r3), from_r1.end());
  auto to_r3 = s.net.reaching(s.r3);
  EXPECT_NE(std::find(to_r3.begin(), to_r3.end(), s.net.scan_in()),
            to_r3.end());
}

TEST(Rsn, FanoutsEnumerateConsumers) {
  SmallNet s;
  auto fo = s.net.fanouts(s.r1);
  // r1 feeds r2 (port 0) and mux (port 0).
  EXPECT_EQ(fo.size(), 2u);
}

TEST(Rsn, DisconnectAndRemoveMuxInput) {
  SmallNet s;
  s.net.remove_mux_input(s.mux, 1);
  EXPECT_EQ(s.net.elem(s.mux).inputs.size(), 1u);
  // r2 now has no fanout but is still connected upstream.
  EXPECT_TRUE(s.net.fanouts(s.r2).empty());
  // Select was clamped.
  EXPECT_LT(s.net.elem(s.mux).sel, 1u);
}

TEST(Rsn, AttachToScanOutInsertsCollector) {
  SmallNet s;
  // scan_out is already driven by r3: attaching r2 inserts a 2:1 mux.
  ElemId m = s.net.attach_to_scan_out(s.r2);
  EXPECT_NE(m, no_elem);
  const Element& so = s.net.elem(s.net.scan_out());
  EXPECT_EQ(so.inputs[0], m);
  EXPECT_TRUE(s.net.is_acyclic());
  // A second attachment reuses the collector instead of nesting muxes.
  ElemId r4 = s.net.add_register("r4", 1, 0);
  s.net.connect(s.net.scan_in(), r4, 0);
  ElemId m2 = s.net.attach_to_scan_out(r4);
  EXPECT_EQ(m2, no_elem);
  EXPECT_EQ(s.net.elem(m).inputs.size(), 3u);
  std::string err;
  EXPECT_TRUE(s.net.validate(&err)) << err;
}

TEST(Rsn, AttachToScanOutDirectWhenDangling) {
  Rsn net("n");
  ElemId r = net.add_register("r", 1, 0);
  net.connect(net.scan_in(), r, 0);
  EXPECT_EQ(net.attach_to_scan_out(r), no_elem);
  EXPECT_EQ(net.elem(net.scan_out()).inputs[0], r);
}

TEST(Rsn, GuardsInvalidOperations) {
  SmallNet s;
  EXPECT_THROW(s.net.connect(s.r1, s.net.scan_in(), 0),
               std::invalid_argument);
  EXPECT_THROW(s.net.connect(s.r1, s.mux, 7), std::out_of_range);
  EXPECT_THROW(s.net.set_mux_select(s.mux, 9), std::out_of_range);
  EXPECT_THROW(s.net.add_mux("bad", 1), std::invalid_argument);
  EXPECT_THROW(s.net.add_register("bad", 0, 0), std::invalid_argument);
}

TEST(Rsn, CopySemanticsSnapshotTopology) {
  SmallNet s;
  Rsn copy = s.net;
  copy.disconnect(s.r3, 0);
  EXPECT_EQ(s.net.elem(s.r3).inputs[0], s.mux);  // original untouched
  EXPECT_EQ(copy.elem(s.r3).inputs[0], no_elem);
}

/// Structure, selects and the auto-mux counter of `net`, as text: the
/// write_rsn bytes plus every mux select, plus the name the next
/// collector mux would get.
std::string snapshot(const Rsn& net) {
  std::ostringstream os;
  write_rsn(os, net, {}, nullptr);
  for (ElemId m : net.muxes()) os << "sel " << net.mux_select(m) << "\n";
  Rsn probe = net;
  ElemId r = probe.add_register("probe", 1);
  ElemId c = probe.attach_to_scan_out(r);
  if (c != no_elem) os << "next " << probe.elem(c).name << "\n";
  return os.str();
}

TEST(Rsn, JournalRollbackRestoresEveryEdit) {
  SmallNet s;
  s.net.set_mux_select(s.mux, 1);
  const std::string before = snapshot(s.net);
  s.net.begin_journal();
  EXPECT_TRUE(s.net.journal_open());
  s.net.disconnect(s.r3, 0);
  s.net.connect(s.r1, s.r3, 0);
  s.net.remove_mux_input(s.mux, 1);  // clamps the select
  s.net.add_mux_input(s.mux, s.r2);
  ElemId extra = s.net.add_mux("extra", 2);
  s.net.connect(s.r3, extra, 0);
  s.net.attach_to_scan_out(s.r2);  // inserts an auto-named collector
  EXPECT_THROW(s.net.begin_journal(), std::logic_error);
  const std::vector<ElemId>& edited = s.net.journal_elements();
  EXPECT_TRUE(std::is_sorted(edited.begin(), edited.end()));
  EXPECT_EQ(std::adjacent_find(edited.begin(), edited.end()), edited.end());
  for (ElemId id : {s.r3, s.mux, extra, s.net.scan_out()})
    EXPECT_TRUE(std::binary_search(edited.begin(), edited.end(), id)) << id;
  s.net.rollback_journal();
  EXPECT_FALSE(s.net.journal_open());
  EXPECT_EQ(snapshot(s.net), before);
  EXPECT_EQ(s.net.num_elements(), 6u);
  EXPECT_EQ(s.net.muxes().size(), 1u);
}

TEST(Rsn, SyncFromReplaysAJournaledEdit) {
  SmallNet s;
  Rsn copy = s.net;
  s.net.begin_journal();
  s.net.remove_mux_input(s.mux, 0);
  s.net.attach_to_scan_out(s.r1);
  const std::vector<ElemId> edited = s.net.journal_elements();
  s.net.close_journal();
  copy.sync_from(s.net, edited);
  EXPECT_EQ(snapshot(copy), snapshot(s.net));
  EXPECT_EQ(copy.muxes(), s.net.muxes());
}

}  // namespace
}  // namespace rsnsec::rsn
