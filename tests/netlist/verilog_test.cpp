#include "netlist/verilog.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "netlist/sim.hpp"

namespace rsnsec::netlist::verilog {
namespace {

const char* kSample = R"(
// Sample structural netlist.
module crypto_core(input clk_gate, key_in, output leak);
  wire round, mixed;
  (* instrument = "aes" *)
  dff key(key_q, key_in);
  xor (round, key_q, clk_gate);
  /* reconvergent cancellation */
  xor dead(cancel, key_q, key_q);
  or  (mixed, cancel, round);
  (* instrument = "aes" *)
  dff state(state_q, mixed);
  buf (leak, state_q);
endmodule
)";

TEST(VerilogParse, BuildsExpectedStructure) {
  std::istringstream is(kSample);
  ParsedCircuit c = parse(is);
  EXPECT_EQ(c.module_name, "crypto_core");
  EXPECT_EQ(c.netlist.ffs().size(), 2u);
  EXPECT_EQ(c.netlist.inputs().size(), 2u);
  EXPECT_EQ(c.outputs, std::vector<std::string>{"leak"});
  ASSERT_TRUE(c.nets.count("state_q"));
  EXPECT_TRUE(c.netlist.is_ff(c.nets.at("state_q")));
  // Instrument attribute applied.
  EXPECT_EQ(c.netlist.num_modules(), 1u);
  EXPECT_EQ(c.netlist.module_name(0), "aes");
  EXPECT_EQ(c.netlist.node(c.nets.at("key_q")).module, 0);
  std::string err;
  EXPECT_TRUE(c.netlist.validate(&err)) << err;
}

TEST(VerilogParse, OutOfOrderDefinitionsResolve) {
  std::istringstream is(R"(
module m(input a);
  and (x, y, a);     // y defined later
  not (y, a);
  dff (q, x);
endmodule
)");
  ParsedCircuit c = parse(is);
  EXPECT_EQ(c.netlist.ffs().size(), 1u);
}

TEST(VerilogParse, ConstantsAllowed) {
  std::istringstream is(R"(
module m(input a);
  and (x, a, 1'b1);
  or (y, x, 1'b0);
  dff (q, y);
endmodule
)");
  ParsedCircuit c = parse(is);
  Simulator sim(c.netlist);
  sim.set_value(c.nets.at("a"), 0b10);
  sim.eval_comb();
  EXPECT_EQ(sim.value(c.nets.at("y")) & 0b11, 0b10u);
}

TEST(VerilogParse, RejectsCombinationalLoop) {
  std::istringstream is(R"(
module m(input a);
  and (x, y, a);
  or (y, x, a);
endmodule
)");
  EXPECT_THROW(parse(is), std::runtime_error);
}

TEST(VerilogParse, RejectsRedefinedNet) {
  std::istringstream is(R"(
module m(input a);
  not (x, a);
  buf (x, a);
endmodule
)");
  EXPECT_THROW(parse(is), std::runtime_error);
}

TEST(VerilogParse, RejectsUnknownPrimitive) {
  std::istringstream is("module m(input a);\n  latch (x, a);\nendmodule\n");
  EXPECT_THROW(parse(is), std::runtime_error);
}

TEST(VerilogParse, ErrorsCarryLineNumbers) {
  std::istringstream is("module m(input a);\n\n  latch (x, a);\nendmodule");
  try {
    parse(is);
    FAIL();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(VerilogParse, SequentialLoopAccepted) {
  std::istringstream is(R"(
module m(input a);
  dff (q, d);
  not (d, q);
endmodule
)");
  ParsedCircuit c = parse(is);
  EXPECT_TRUE(c.netlist.validate());
}

TEST(VerilogParse, HeaderDirections) {
  std::istringstream is(
      "module m(input a, b, output y);\n  and (y, a, b);\nendmodule\n");
  ParsedCircuit c = parse(is);
  EXPECT_EQ(c.netlist.inputs().size(), 2u);
  EXPECT_EQ(c.outputs, std::vector<std::string>{"y"});
}

std::string parse_error(const std::string& text) {
  std::istringstream is(text);
  try {
    parse(is);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(VerilogParse, TruncatedHeaderIsAnEndOfFileError) {
  EXPECT_EQ(parse_error("module m(a, b"),
            "verilog parse error at line 1: unexpected end of file");
}

TEST(VerilogParse, TruncatedGateIsAnEndOfFileError) {
  EXPECT_EQ(parse_error("module m(a);\n input a;\n and g(y, a"),
            "verilog parse error at line 3: unexpected end of file");
}

TEST(VerilogParse, RedefinedInputReportsItsDeclaringLine) {
  EXPECT_EQ(parse_error("module m(input a);\n\n  input b, a;\nendmodule\n"),
            "verilog parse error at line 3: net 'a' redefined");
}

TEST(VerilogParse, UnresolvableGateIsTheFirstInFileOrder) {
  EXPECT_EQ(parse_error("module m(input a);\n  buf (x, a);\n"
                        "  and (y, z, a);\n  or (z, y, a);\nendmodule\n"),
            "verilog parse error at line 3: unresolvable nets (combinational "
            "loop or undriven wire feeding 'y')");
}

TEST(VerilogParse, ConstantNodesAreCreatedWithTheirGate) {
  // The and gate waits for w, which is driven later in the file; its
  // constant becomes a node only as the gate is created.
  std::istringstream is(
      "module m(a);\n  input a;\n  and g(y, 1'b0, w);\n  buf b(w, a);\n"
      "endmodule\n");
  ParsedCircuit c = parse(is);
  ASSERT_EQ(c.netlist.num_nodes(), 4u);  // a, w, 1'b0, y
  EXPECT_EQ(c.netlist.node(1).name, "w");
  EXPECT_EQ(c.netlist.node(2).type, GateType::Const0);
  EXPECT_EQ(c.netlist.node(3).fanins, (std::vector<NodeId>{2, 1}));
}

TEST(VerilogRoundTrip, GeneratedCircuitSimulatesIdentically) {
  // Generate a random circuit, write it as Verilog, parse it back, and
  // co-simulate: both netlists must agree on every FF next-state.
  Rng rng(31);
  benchgen::BenchmarkProfile p = benchgen::bastion_profile("BasicSCB");
  rsn::RsnDocument doc = benchgen::generate_bastion(p, 0.4, rng);
  Netlist original = benchgen::attach_random_circuit(doc, {}, rng);

  std::ostringstream os;
  write(os, original, "roundtrip");
  std::istringstream is(os.str());
  ParsedCircuit back = parse(is);

  ASSERT_EQ(back.netlist.ffs().size(), original.ffs().size());
  ASSERT_EQ(back.netlist.inputs().size(), original.inputs().size());
  EXPECT_EQ(back.netlist.num_modules(), original.num_modules());

  Simulator sim_a(original);
  Simulator sim_b(back.netlist);
  Rng stim(77);
  for (int round = 0; round < 4; ++round) {
    // Identical stimuli by name.
    for (NodeId in : original.inputs()) {
      std::uint64_t v = stim.next_u64();
      sim_a.set_value(in, v);
      sim_b.set_value(back.nets.at(original.node(in).name), v);
    }
    for (NodeId ff : original.ffs()) {
      std::uint64_t v = stim.next_u64();
      sim_a.set_value(ff, v);
      sim_b.set_value(back.nets.at(original.node(ff).name), v);
    }
    sim_a.step();
    sim_b.step();
    for (NodeId ff : original.ffs()) {
      EXPECT_EQ(sim_a.value(ff),
                sim_b.value(back.nets.at(original.node(ff).name)))
          << original.node(ff).name;
    }
  }
}

}  // namespace
}  // namespace rsnsec::netlist::verilog
