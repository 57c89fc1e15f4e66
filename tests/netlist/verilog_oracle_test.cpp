// Differential test of the single-pass Verilog reader against the frozen
// multi-pass reader in tests/reference/: the same nodes in the same order
// (type, fanins, name, module), the same nets, outputs and module names,
// and the same error message, on every BASTION family as written, with
// its statements permuted, and with one defect planted.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "netlist/verilog.hpp"
#include "reference/reference.hpp"
#include "util/rng.hpp"

namespace rsnsec::netlist::verilog {
namespace {

/// A written module split into its declarations and its primitive
/// statements (an instrument attribute stays with its primitive).
struct Module {
  std::vector<std::string> decls;
  std::vector<std::string> stmts;

  std::string text() const {
    std::string s;
    for (const std::string& d : decls) s += d + "\n";
    for (const std::string& st : stmts) s += st + "\n";
    return s + "endmodule\n";
  }
};

Module split(const std::string& text) {
  Module m;
  std::istringstream is(text);
  std::string line, attr;
  while (std::getline(is, line)) {
    if (line == "endmodule") break;
    if (line.find("(*") != std::string::npos) {
      attr = line + "\n";
    } else if (line.rfind("module", 0) == 0 ||
               line.rfind("  input", 0) == 0 ||
               line.rfind("  wire", 0) == 0) {
      m.decls.push_back(line);
    } else {
      m.stmts.push_back(attr + line);
      attr.clear();
    }
  }
  return m;
}

/// The nets of a primitive statement: [out, in...].
std::vector<std::string> stmt_args(const std::string& stmt) {
  std::size_t open = stmt.rfind('(');
  std::size_t close = stmt.rfind(')');
  std::vector<std::string> args;
  std::istringstream is(stmt.substr(open + 1, close - open - 1));
  std::string a;
  while (std::getline(is, a, ',')) {
    a.erase(0, a.find_first_not_of(' '));
    args.push_back(a);
  }
  return args;
}

/// The statement with its primitive's nets replaced by `args`.
std::string with_args(const std::string& stmt,
                      const std::vector<std::string>& args) {
  std::string s = stmt.substr(0, stmt.rfind('(') + 1);
  for (std::size_t i = 0; i < args.size(); ++i)
    s += (i ? ", " : "") + args[i];
  return s + ");";
}

bool is_dff(const std::string& stmt) {
  return stmt.find("dff (") != std::string::npos;
}

/// A BASTION family's circuit as rsnsec writes it, capped at about 500
/// scan flip-flops, with an output declaration for its first few nets.
std::string family_verilog(const benchgen::BenchmarkProfile& profile,
                           std::uint64_t seed) {
  Rng rng(seed);
  double scale = std::min(
      1.0, 500.0 / static_cast<double>(
                        std::max<std::size_t>(profile.scan_ffs, 1)));
  rsn::RsnDocument doc = benchgen::generate_bastion(profile, scale, rng);
  Netlist nl = benchgen::attach_random_circuit(doc, {}, rng);
  std::ostringstream os;
  write(os, nl, doc.network.name());
  Module m = split(os.str());
  std::string outputs = "  output ";
  for (std::size_t i = 0; i < 3 && i < m.stmts.size(); ++i)
    outputs += (i ? ", " : "") + stmt_args(m.stmts[i])[0];
  m.decls.push_back(outputs + ";");
  return m.text();
}

struct Outcome {
  std::optional<ParsedCircuit> circuit;
  std::string error;
};

template <class Parse>
Outcome run(Parse parse_fn, const std::string& text) {
  Outcome o;
  std::istringstream is(text);
  try {
    o.circuit = parse_fn(is);
  } catch (const std::runtime_error& e) {
    o.error = e.what();
  }
  return o;
}

void expect_identical(const ParsedCircuit& got, const ParsedCircuit& want) {
  EXPECT_EQ(got.module_name, want.module_name);
  EXPECT_EQ(got.outputs, want.outputs);
  EXPECT_EQ(got.nets, want.nets);
  const Netlist& a = got.netlist;
  const Netlist& b = want.netlist;
  ASSERT_EQ(a.num_modules(), b.num_modules());
  for (ModuleId m = 0; static_cast<std::size_t>(m) < a.num_modules(); ++m)
    EXPECT_EQ(a.module_name(m), b.module_name(m));
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.inputs(), b.inputs());
  EXPECT_EQ(a.ffs(), b.ffs());
  for (NodeId id = 0; id < a.num_nodes(); ++id) {
    const Node& x = a.node(id);
    const Node& y = b.node(id);
    ASSERT_TRUE(x.type == y.type && x.fanins == y.fanins &&
                x.name == y.name && x.module == y.module)
        << "node " << id << ": " << gate_type_name(x.type) << " '" << x.name
        << "' vs " << gate_type_name(y.type) << " '" << y.name << "'";
  }
}

/// Parses `text` with both readers and expects the same result.
void expect_same(const std::string& text, const std::string& label) {
  SCOPED_TRACE(label);
  Outcome got = run(parse, text);
  Outcome want = run(reference::parse_verilog, text);
  EXPECT_EQ(got.error, want.error);
  ASSERT_EQ(got.circuit.has_value(), want.circuit.has_value());
  if (got.circuit) expect_identical(*got.circuit, *want.circuit);
}

/// One defect planted in `m`, picked by `kind`; each makes both readers
/// fail.
Module plant_defect(Module m, int kind, Rng& rng) {
  std::vector<std::size_t> gate_stmts, dff_stmts;
  for (std::size_t i = 0; i < m.stmts.size(); ++i)
    (is_dff(m.stmts[i]) ? dff_stmts : gate_stmts).push_back(i);
  switch (kind) {
    case 0: {  // a gate reads its own output: a combinational loop
      std::string& s = m.stmts[rng.pick(gate_stmts)];
      std::vector<std::string> args = stmt_args(s);
      args.back() = args[0];
      s = with_args(s, args);
      break;
    }
    case 1: {  // a gate reads a wire nothing drives
      std::string& s = m.stmts[rng.pick(gate_stmts)];
      std::vector<std::string> args = stmt_args(s);
      args[1] = "undriven_wire";
      s = with_args(s, args);
      break;
    }
    case 2: {  // a second driver for a gate output
      std::vector<std::string> args = stmt_args(m.stmts[rng.pick(gate_stmts)]);
      std::vector<std::string> src = stmt_args(m.stmts[rng.pick(gate_stmts)]);
      std::string dup = "  buf (" + args[0] + ", " + src[1] + ");";
      m.stmts.insert(m.stmts.begin() + rng.below(
                         static_cast<std::uint32_t>(m.stmts.size() + 1)),
                     dup);
      break;
    }
    case 3: {  // a flip-flop whose data net nothing drives
      std::string& s = m.stmts[rng.pick(dff_stmts)];
      std::vector<std::string> args = stmt_args(s);
      args[1] = "undriven_data";
      s = with_args(s, args);
      break;
    }
    default: {  // a gate output that redefines a flip-flop output
      std::string& s = m.stmts[rng.pick(gate_stmts)];
      std::vector<std::string> args = stmt_args(s);
      args[0] = stmt_args(m.stmts[rng.pick(dff_stmts)])[0];
      s = with_args(s, args);
      break;
    }
  }
  return m;
}

TEST(VerilogOracle, IdenticalOnAllBastionFamiliesInAnyStatementOrder) {
  std::uint64_t seed = 41;
  for (const benchgen::BenchmarkProfile& profile :
       benchgen::bastion_profiles()) {
    const std::string text = family_verilog(profile, seed++);
    expect_same(text, profile.name + " as written");
    Module m = split(text);
    std::reverse(m.stmts.begin(), m.stmts.end());
    expect_same(m.text(), profile.name + " reversed");
    Rng rng(seed);
    for (int round = 0; round < 3; ++round) {
      rng.shuffle(m.stmts);
      expect_same(m.text(),
                  profile.name + " permutation " + std::to_string(round));
    }
  }
}

TEST(VerilogOracle, SameErrorForOneDefectInAnyStatementOrder) {
  std::uint64_t seed = 7;
  for (const benchgen::BenchmarkProfile& profile :
       benchgen::bastion_profiles()) {
    const Module written = split(family_verilog(profile, seed++));
    Rng rng(seed);
    for (int kind = 0; kind < 5; ++kind) {
      Module m = plant_defect(written, kind, rng);
      std::string label = profile.name + " defect " + std::to_string(kind);
      Outcome got = run(parse, m.text());
      EXPECT_FALSE(got.circuit.has_value()) << label;
      expect_same(m.text(), label);
      rng.shuffle(m.stmts);
      expect_same(m.text(), label + " permuted");
    }
  }
}

/// A chain of `n` buffers from input `a`, written outputs-first, so the
/// multi-pass reader needed one pass per gate.
std::string reverse_chain(std::size_t n) {
  std::string s = "module chain(input a);\n";
  for (std::size_t i = n; i > 0; --i)
    s += "  buf (w" + std::to_string(i) + ", " +
         (i == 1 ? std::string("a") : "w" + std::to_string(i - 1)) + ");\n";
  return s + "  dff (q, w" + std::to_string(n) + ");\nendmodule\n";
}

TEST(VerilogOracle, ReverseTopologicalChainMatches) {
  expect_same(reverse_chain(1500), "reverse chain");
}

TEST(VerilogOracle, ReverseTopologicalChainParsesInLinearTime) {
  // 40k gates in reverse order: one pass per gate would mean 8e8 gate
  // checks (minutes); a linear reader takes milliseconds, even
  // unoptimized under sanitizers.
  const std::string text = reverse_chain(40000);
  std::istringstream is(text);
  auto start = std::chrono::steady_clock::now();
  ParsedCircuit c = parse(is);
  double s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  ASSERT_EQ(c.netlist.num_nodes(), 40002u);
  // Input, flip-flop, then the gates in chain order.
  EXPECT_EQ(c.netlist.node(2).name, "w1");
  EXPECT_EQ(c.netlist.node(40001).name, "w40000");
  EXPECT_LT(s, 5.0);
}

}  // namespace
}  // namespace rsnsec::netlist::verilog
