#include "rsn/icl.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "rsn/access.hpp"

namespace rsnsec::rsn::icl {
namespace {

/// A SIB-based hierarchical network in the ICL subset: two instrument
/// wrappers behind segment-insertion muxes, plus a WIR-style register.
const char* kSibNetwork = R"(
// A 1687-style network with two SIB-gated instruments.
Module Instrument {
  ScanInPort SI;
  ScanOutPort SO { Source DR; }
  ScanRegister DR[7:0] {
    ScanInSource SI;
    ResetValue 8'b00000000;
  }
}

Module Sib {
  ScanInPort SI;
  ScanOutPort SO { Source mux; }
  ScanRegister S {
    ScanInSource SI;
    Attribute keep = "true";
  }
  Instance inst Of Instrument { InputPort SI = S; }
  ScanMux mux SelectedBy S {
    1'b0 : S;
    1'b1 : inst;
  }
}

Module Top {
  ScanInPort SI;
  ScanOutPort SO { Source wir; }
  Instance sib1 Of Sib { InputPort SI = SI; }
  Instance sib2 Of Sib { InputPort SI = sib1; }
  ScanRegister wir[3:0] { ScanInSource sib2; }
}
)";

TEST(IclParser, ParsesModules) {
  std::istringstream is(kSibNetwork);
  Document doc = parse(is);
  ASSERT_EQ(doc.modules.size(), 3u);
  const ModuleDecl& instr = doc.modules.at("Instrument");
  EXPECT_EQ(instr.registers.size(), 1u);
  EXPECT_EQ(instr.registers[0].width, 8u);
  EXPECT_EQ(instr.registers[0].scan_in_source.name, "SI");
  const ModuleDecl& sib = doc.modules.at("Sib");
  ASSERT_EQ(sib.muxes.size(), 1u);
  EXPECT_EQ(sib.muxes[0].inputs.size(), 2u);
  EXPECT_EQ(sib.muxes[0].select, "S");
  EXPECT_EQ(sib.instances.size(), 1u);
  EXPECT_EQ(doc.top().name, "Top");
}

TEST(IclParser, SkipsUnknownAttributesAndComments) {
  std::istringstream is(R"(
Module M {
  ScanInPort SI;   /* block
                      comment */
  Attribute vendor = "acme corp";
  SelectPort sel;
  ScanOutPort SO { Source R; }
  ScanRegister R { ScanInSource SI; CaptureSource foo; }
}
)");
  Document doc = parse(is);
  EXPECT_EQ(doc.modules.at("M").registers.size(), 1u);
}

TEST(IclParser, ErrorsCarryLineNumbers) {
  std::istringstream is("Module M {\n  Bogus x;\n}");
  try {
    parse(is);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("Bogus"), std::string::npos);
  }
}

TEST(IclParser, RejectsSingleInputMux) {
  std::istringstream is(R"(
Module M {
  ScanInPort SI;
  ScanOutPort SO { Source m; }
  ScanMux m SelectedBy SI { 1'b0 : SI; }
}
)");
  EXPECT_THROW(parse(is), std::runtime_error);
}

TEST(IclElaborate, FlattensHierarchy) {
  std::istringstream is(kSibNetwork);
  RsnDocument doc = load_icl(is);
  // Registers: 2 x (sib S + instrument DR) + wir = 5; muxes: 2.
  EXPECT_EQ(doc.network.registers().size(), 5u);
  EXPECT_EQ(doc.network.muxes().size(), 2u);
  EXPECT_EQ(doc.network.num_scan_ffs(), 2u * (1 + 8) + 4u);
  std::string err;
  EXPECT_TRUE(doc.network.validate(&err)) << err;
  // One instrument per register-owning instance: sib1, sib1.inst, sib2,
  // sib2.inst, Top.
  EXPECT_EQ(doc.module_names.size(), 5u);
  EXPECT_NE(std::find(doc.module_names.begin(), doc.module_names.end(),
                      "sib1.inst"),
            doc.module_names.end());
}

TEST(IclElaborate, EveryRegisterAccessible) {
  std::istringstream is(kSibNetwork);
  RsnDocument doc = load_icl(is);
  AccessPlanner planner(doc.network);
  EXPECT_TRUE(planner.all_registers_accessible());
}

TEST(IclElaborate, SibBypassSemantics) {
  std::istringstream is(kSibNetwork);
  RsnDocument doc = load_icl(is);
  // With all muxes at select 0 (bypass), the active path skips both DRs:
  // chain = sib1.S, sib2.S, wir = 1 + 1 + 4 FFs.
  for (ElemId m : doc.network.muxes()) doc.network.set_mux_select(m, 0);
  std::size_t ffs = 0;
  for (ElemId e : doc.network.active_path())
    if (doc.network.elem(e).kind == ElemKind::Register)
      ffs += doc.network.elem(e).ffs.size();
  EXPECT_EQ(ffs, 6u);
  // Selecting both SIBs includes the 8-bit DRs.
  for (ElemId m : doc.network.muxes()) doc.network.set_mux_select(m, 1);
  ffs = 0;
  for (ElemId e : doc.network.active_path())
    if (doc.network.elem(e).kind == ElemKind::Register)
      ffs += doc.network.elem(e).ffs.size();
  EXPECT_EQ(ffs, 22u);
}

TEST(IclElaborate, ExplicitTopSelection) {
  std::istringstream is(kSibNetwork);
  Document doc = parse(is);
  RsnDocument sib = elaborate(doc, "Sib");
  EXPECT_EQ(sib.network.registers().size(), 2u);
  EXPECT_THROW(elaborate(doc, "NoSuch"), std::runtime_error);
}

TEST(IclElaborate, ForwardInstanceReferences) {
  // sibA is bound to sibB's output although sibB is declared later.
  std::istringstream is(R"(
Module Leaf {
  ScanInPort SI;
  ScanOutPort SO { Source R; }
  ScanRegister R { ScanInSource SI; }
}
Module Top {
  ScanInPort SI;
  ScanOutPort SO { Source a; }
  Instance a Of Leaf { InputPort SI = b; }
  Instance b Of Leaf { InputPort SI = SI; }
}
)");
  RsnDocument doc = load_icl(is);
  EXPECT_EQ(doc.network.registers().size(), 2u);
  std::string err;
  EXPECT_TRUE(doc.network.validate(&err)) << err;
}

TEST(IclElaborate, DetectsUnresolvableBindings) {
  std::istringstream is(R"(
Module Leaf {
  ScanInPort SI;
  ScanOutPort SO { Source R; }
  ScanRegister R { ScanInSource SI; }
}
Module Top {
  ScanInPort SI;
  ScanOutPort SO { Source a; }
  Instance a Of Leaf { InputPort SI = b; }
  Instance b Of Leaf { InputPort SI = a; }
}
)");
  EXPECT_THROW(load_icl(is), std::runtime_error);
}

std::string load_error(const std::string& text) {
  std::istringstream is(text);
  try {
    load_icl(is);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(IclElaborate, RejectsRegisterWidthOverDocumentBudget) {
  std::string err = load_error(R"(
Module M {
  ScanInPort SI;
  ScanOutPort SO { Source R; }
  ScanRegister R[4000000000:0] { ScanInSource SI; }
}
)");
  EXPECT_NE(err.find("icl elaborate: design exceeds 4194304"),
            std::string::npos)
      << err;
}

TEST(IclElaborate, RejectsExponentialInstanceFanOut) {
  // 30 levels, each instantiating the level below twice: 2^30 leaf
  // registers from a few kilobytes of text. The size check runs once per
  // module, before anything is elaborated.
  std::string text =
      "Module L0 { ScanInPort SI; ScanOutPort SO { Source R; }\n"
      "  ScanRegister R[7:0] { ScanInSource SI; } }\n";
  for (int i = 1; i <= 30; ++i) {
    const std::string child = "L" + std::to_string(i - 1);
    text += "Module L" + std::to_string(i) +
            " { ScanInPort SI; ScanOutPort SO { Source b; }\n"
            "  Instance a Of " + child + " { InputPort SI = SI; }\n"
            "  Instance b Of " + child + " { InputPort SI = a; } }\n";
  }
  std::string err = load_error(text);
  EXPECT_NE(err.find("icl elaborate: design exceeds"), std::string::npos)
      << err;
}

TEST(IclElaborate, RejectsInstantiationCycleBelowTop) {
  // Top is well defined (nothing instantiates it), but A and B
  // instantiate each other; elaborating them would never terminate.
  std::string err = load_error(R"(
Module A { ScanInPort SI; ScanOutPort SO { Source x; }
  Instance x Of B { InputPort SI = SI; } }
Module B { ScanInPort SI; ScanOutPort SO { Source x; }
  Instance x Of A { InputPort SI = SI; } }
Module Top { ScanInPort SI; ScanOutPort SO { Source a; }
  Instance a Of A { InputPort SI = SI; } }
)");
  EXPECT_NE(err.find("icl elaborate: instantiation cycle"), std::string::npos)
      << err;
}

TEST(IclElaborate, RejectsNestingDeeperThanTheStackAllows) {
  // A chain of 2000 modules, each instantiating the previous one: within
  // the size budget, but elaborating it would recurse 2000 levels deep.
  std::string text =
      "Module L0 { ScanInPort SI; ScanOutPort SO { Source R; }\n"
      "  ScanRegister R { ScanInSource SI; } }\n";
  for (int i = 1; i <= 2000; ++i)
    text += "Module L" + std::to_string(i) +
            " { ScanInPort SI; ScanOutPort SO { Source a; }\n"
            "  Instance a Of L" + std::to_string(i - 1) +
            " { InputPort SI = SI; } }\n";
  std::string err = load_error(text);
  EXPECT_NE(err.find("icl elaborate: instances nested deeper than 1024"),
            std::string::npos)
      << err;
}

TEST(IclElaborate, MuxPortOrderFollowsSelectValues) {
  std::istringstream is(R"(
Module M {
  ScanInPort SI;
  ScanOutPort SO { Source m; }
  ScanRegister A { ScanInSource SI; }
  ScanRegister B { ScanInSource SI; }
  ScanMux m SelectedBy A {
    1'b1 : B;
    1'b0 : A;
  }
}
)");
  RsnDocument doc = load_icl(is);
  ElemId m = doc.network.muxes()[0];
  // Port 0 = select value 0 = A, port 1 = B, regardless of source order.
  const Element& mux = doc.network.elem(m);
  EXPECT_EQ(doc.network.elem(mux.inputs[0]).name, "A");
  EXPECT_EQ(doc.network.elem(mux.inputs[1]).name, "B");
}

}  // namespace
}  // namespace rsnsec::rsn::icl
