#include "rsn/io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace rsnsec::rsn {
namespace {

RsnDocument make_doc() {
  RsnDocument doc;
  doc.network = Rsn("demo");
  doc.module_names = {"crypto", "sensor"};
  Rsn& net = doc.network;
  ElemId r1 = net.add_register("r1", 2, 0);
  ElemId r2 = net.add_register("r2", 3, 1);
  ElemId m = net.add_mux("m", 2);
  net.connect(net.scan_in(), r1, 0);
  net.connect(r1, r2, 0);
  net.connect(r1, m, 0);
  net.connect(r2, m, 1);
  net.connect(m, net.scan_out(), 0);
  return doc;
}

TEST(RsnIo, RoundTripPreservesStructure) {
  RsnDocument doc = make_doc();
  std::ostringstream os;
  write_rsn(os, doc.network, doc.module_names);
  std::istringstream is(os.str());
  RsnDocument back = read_rsn(is);

  EXPECT_EQ(back.network.name(), "demo");
  EXPECT_EQ(back.module_names, doc.module_names);
  ASSERT_EQ(back.network.registers().size(), 2u);
  ASSERT_EQ(back.network.muxes().size(), 1u);
  EXPECT_EQ(back.network.num_scan_ffs(), 5u);

  // Same connection structure.
  std::ostringstream os2;
  write_rsn(os2, back.network, back.module_names);
  EXPECT_EQ(os.str(), os2.str());
}

TEST(RsnIo, RoundTripPreservesValidation) {
  RsnDocument doc = make_doc();
  std::ostringstream os;
  write_rsn(os, doc.network, doc.module_names);
  std::istringstream is(os.str());
  RsnDocument back = read_rsn(is);
  std::string err;
  EXPECT_TRUE(back.network.validate(&err)) << err;
}

TEST(RsnIo, RoundTripsOneInputMux) {
  // The resolver shrinks muxes with remove_mux_input, down to a single
  // port; what write_rsn emits for such a network must read back.
  RsnDocument doc = make_doc();
  Rsn& net = doc.network;
  ElemId m = net.muxes().front();
  net.remove_mux_input(m, 1);
  ElemId r2 = net.registers()[1];
  ElemId m2 = net.add_mux("m2", 2);
  net.connect(r2, m2, 0);
  net.connect(m, m2, 1);
  net.connect(m2, net.scan_out(), 0);
  ASSERT_EQ(net.elem(m).inputs.size(), 1u);
  ASSERT_TRUE(net.validate());

  std::ostringstream os;
  write_rsn(os, net, doc.module_names);
  ASSERT_NE(os.str().find("mux m inputs 1\n"), std::string::npos);
  std::istringstream is(os.str());
  RsnDocument back = read_rsn(is);
  EXPECT_EQ(back.network.elem(back.network.muxes().front()).inputs.size(),
            1u);
  std::string err;
  EXPECT_TRUE(back.network.validate(&err)) << err;
  std::ostringstream os2;
  write_rsn(os2, back.network, back.module_names);
  EXPECT_EQ(os.str(), os2.str());
}

TEST(RsnIo, RejectsZeroInputMux) {
  std::istringstream is("rsn x\nmux m inputs 0\n");
  EXPECT_THROW(read_rsn(is), std::runtime_error);
}

TEST(RsnIo, ParsesCommentsAndBlankLines) {
  std::istringstream is(
      "# a comment\n"
      "\n"
      "rsn x\n"
      "register r ffs 1 module -1\n"
      "connect scan_in r 0\n"
      "connect r scan_out 0\n");
  RsnDocument doc = read_rsn(is);
  EXPECT_EQ(doc.network.registers().size(), 1u);
  EXPECT_TRUE(doc.network.validate());
}

TEST(RsnIo, RejectsUnknownElement) {
  std::istringstream is(
      "rsn x\n"
      "connect scan_in nosuch 0\n");
  EXPECT_THROW(read_rsn(is), std::runtime_error);
}

TEST(RsnIo, RejectsUnknownKeyword) {
  std::istringstream is("rsn x\nfrobnicate y\n");
  EXPECT_THROW(read_rsn(is), std::runtime_error);
}

TEST(RsnIo, RejectsDuplicateNames) {
  std::istringstream is(
      "rsn x\n"
      "register r ffs 1 module 0\n"
      "mux r inputs 2\n");
  EXPECT_THROW(read_rsn(is), std::runtime_error);
}

TEST(RsnIo, RejectsMissingHeader) {
  std::istringstream is("register r ffs 1 module 0\n");
  EXPECT_THROW(read_rsn(is), std::runtime_error);
}

TEST(RsnIo, RejectsNonConsecutiveModules) {
  std::istringstream is("rsn x\nmodule 1 foo\n");
  EXPECT_THROW(read_rsn(is), std::runtime_error);
}

std::string read_error(const std::string& text) {
  std::istringstream is(text);
  try {
    read_rsn(is);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(RsnIo, RejectsRegisterOverDocumentBudget) {
  // 348 bytes asking for 42M scan FFs: the first register alone is over
  // the budget, so the reader fails before allocating it.
  std::string text = "rsn x\n";
  for (int i = 0; i < 10; ++i)
    text += "register r" + std::to_string(i) + " ffs 4194304 module 0\n";
  std::string err = read_error(text);
  EXPECT_NE(err.find("line 2:"), std::string::npos) << err;
  EXPECT_NE(err.find("exceeds 4194304"), std::string::npos) << err;
}

TEST(RsnIo, DocumentBudgetSpansLines) {
  // Each register is in range; the fourth pushes the document's scan
  // FFs plus elements past the budget.
  std::string text = "rsn x\n";
  for (int i = 0; i < 4; ++i)
    text += "register r" + std::to_string(i) + " ffs 1048576 module -1\n";
  std::string err = read_error(text);
  EXPECT_NE(err.find("line 5:"), std::string::npos) << err;
  EXPECT_NE(err.find("exceeds"), std::string::npos) << err;
  // Mux ports draw on the same budget.
  err = read_error("rsn x\nregister r ffs 4194000 module -1\n"
                   "mux m inputs 400\n");
  EXPECT_NE(err.find("line 3:"), std::string::npos) << err;
}

TEST(RsnIo, SummarizeMentionsCounts) {
  RsnDocument doc = make_doc();
  std::string s = summarize(doc.network);
  EXPECT_NE(s.find("2 registers"), std::string::npos);
  EXPECT_NE(s.find("5 scan FFs"), std::string::npos);
  EXPECT_NE(s.find("1 muxes"), std::string::npos);
}

}  // namespace
}  // namespace rsnsec::rsn
