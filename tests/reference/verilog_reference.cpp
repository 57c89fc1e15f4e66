// The structural Verilog reader as it was before the single-pass rewrite
// of netlist::verilog::parse, kept verbatim as the differential oracle:
// a token vector of std::string, a std::map from net name to node, and
// the multi-pass gate loop that retries every unresolved gate until a
// pass makes no progress. See reference.hpp for what it is checked on.

#include <cctype>
#include <istream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "reference/reference.hpp"

namespace rsnsec::reference {

using netlist::GateType;
using netlist::ModuleId;
using netlist::NodeId;
using netlist::no_module;
using netlist::no_node;

namespace {

struct Token {
  std::string text;
  int line = 0;
  bool is_punct = false;
};

class Lexer {
 public:
  explicit Lexer(std::istream& is) {
    std::string s((std::istreambuf_iterator<char>(is)),
                  std::istreambuf_iterator<char>());
    int line = 1;
    std::size_t i = 0;
    auto fail = [&](const std::string& m) {
      throw std::runtime_error("verilog parse error at line " +
                               std::to_string(line) + ": " + m);
    };
    while (i < s.size()) {
      char c = s[i];
      if (c == '\n') {
        ++line;
        ++i;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
      } else if (c == '/' && i + 1 < s.size() && s[i + 1] == '/') {
        while (i < s.size() && s[i] != '\n') ++i;
      } else if (c == '/' && i + 1 < s.size() && s[i + 1] == '*') {
        i += 2;
        while (i + 1 < s.size() && !(s[i] == '*' && s[i + 1] == '/')) {
          if (s[i] == '\n') ++line;
          ++i;
        }
        i += 2;
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
                 c == '\\') {
        // Identifier; '\' starts an escaped identifier ending at space.
        std::size_t j = i;
        if (c == '\\') {
          ++j;
          while (j < s.size() &&
                 !std::isspace(static_cast<unsigned char>(s[j])))
            ++j;
          tokens_.push_back({s.substr(i + 1, j - i - 1), line, false});
        } else {
          while (j < s.size() &&
                 (std::isalnum(static_cast<unsigned char>(s[j])) ||
                  s[j] == '_' || s[j] == '$' || s[j] == '.'))
            ++j;
          tokens_.push_back({s.substr(i, j - i), line, false});
        }
        i = j;
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        // Number or sized constant like 1'b0.
        std::size_t j = i;
        while (j < s.size() &&
               (std::isalnum(static_cast<unsigned char>(s[j])) ||
                s[j] == '\''))
          ++j;
        tokens_.push_back({s.substr(i, j - i), line, false});
        i = j;
      } else if (c == '(' && i + 1 < s.size() && s[i + 1] == '*') {
        tokens_.push_back({"(*", line, true});
        i += 2;
      } else if (c == '*' && i + 1 < s.size() && s[i + 1] == ')') {
        tokens_.push_back({"*)", line, true});
        i += 2;
      } else if (c == '"') {
        std::size_t j = i + 1;
        while (j < s.size() && s[j] != '"') ++j;
        if (j >= s.size()) fail("unterminated string");
        tokens_.push_back({s.substr(i + 1, j - i - 1), line, false});
        i = j + 1;
      } else if (std::string("(),;=").find(c) != std::string::npos) {
        tokens_.push_back({std::string(1, c), line, true});
        ++i;
      } else {
        fail(std::string("unexpected character '") + c + "'");
      }
    }
    tokens_.push_back({"<eof>", line, true});
  }

  const Token& peek() const { return tokens_[pos_]; }
  Token next() {
    const Token& t = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }

 private:
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

/// A pending gate instantiation awaiting fanin resolution.
struct PendingGate {
  GateType type = GateType::Buf;
  std::string name;
  std::vector<std::string> args;  // [out, in...] net names
  std::string instrument;
  int line = 0;
};

bool prim_type(const std::string& kw, GateType* out) {
  if (kw == "and") *out = GateType::And;
  else if (kw == "or") *out = GateType::Or;
  else if (kw == "nand") *out = GateType::Nand;
  else if (kw == "nor") *out = GateType::Nor;
  else if (kw == "xor") *out = GateType::Xor;
  else if (kw == "xnor") *out = GateType::Xnor;
  else if (kw == "not") *out = GateType::Not;
  else if (kw == "buf") *out = GateType::Buf;
  else if (kw == "mux") *out = GateType::Mux;
  else if (kw == "dff") *out = GateType::FF;
  else return false;
  return true;
}

}  // namespace

netlist::verilog::ParsedCircuit parse_verilog(std::istream& is) {
  Lexer lex(is);
  netlist::verilog::ParsedCircuit out;
  std::map<std::string, ModuleId> instruments;

  auto fail = [&](int line, const std::string& m) -> std::runtime_error {
    return std::runtime_error("verilog parse error at line " +
                              std::to_string(line) + ": " + m);
  };
  auto expect = [&](const std::string& p) {
    Token t = lex.next();
    if (t.text != p)
      throw fail(t.line, "expected '" + p + "', got '" + t.text + "'");
  };

  // --- header ---
  {
    Token t = lex.next();
    if (t.text != "module") throw fail(t.line, "expected 'module'");
  }
  out.module_name = lex.next().text;
  std::vector<std::string> inputs, wires;
  expect("(");
  std::string pending_dir;
  while (lex.peek().text != ")") {
    Token t = lex.next();
    if (t.text == ",") continue;
    if (t.text == "input" || t.text == "output" || t.text == "wire") {
      pending_dir = t.text;
      continue;
    }
    if (pending_dir == "input") inputs.push_back(t.text);
    else if (pending_dir == "output") out.outputs.push_back(t.text);
    // Undirected header ports get their direction from body decls.
  }
  expect(")");
  expect(";");

  // --- body ---
  std::vector<PendingGate> gates;
  std::string next_instrument;
  int anon = 0;
  for (;;) {
    Token t = lex.next();
    if (t.text == "endmodule") break;
    if (t.text == "<eof>") throw fail(t.line, "missing 'endmodule'");
    if (t.text == "(*") {
      // (* instrument = "name" *)
      Token key = lex.next();
      if (key.text != "instrument")
        throw fail(key.line, "unsupported attribute '" + key.text + "'");
      expect("=");
      next_instrument = lex.next().text;
      expect("*)");
      continue;
    }
    if (t.text == "input" || t.text == "output" || t.text == "wire") {
      while (true) {
        Token n = lex.next();
        if (n.is_punct)
          throw fail(n.line, "expected net name");
        if (t.text == "input") inputs.push_back(n.text);
        if (t.text == "output") out.outputs.push_back(n.text);
        Token sep = lex.next();
        if (sep.text == ";") break;
        if (sep.text != ",") throw fail(sep.line, "expected ',' or ';'");
      }
      continue;
    }
    GateType type;
    if (!prim_type(t.text, &type))
      throw fail(t.line, "unknown primitive '" + t.text + "'");
    PendingGate g;
    g.type = type;
    g.line = t.line;
    g.instrument = next_instrument;
    next_instrument.clear();
    if (lex.peek().text != "(") g.name = lex.next().text;
    if (g.name.empty())
      g.name = "g$" + std::to_string(anon++);
    expect("(");
    while (lex.peek().text != ")") {
      Token a = lex.next();
      if (a.text == ",") continue;
      g.args.push_back(a.text);
    }
    expect(")");
    expect(";");
    if (g.args.size() < 2)
      throw fail(g.line, "primitive needs an output and >= 1 input");
    if (g.type == GateType::Mux && g.args.size() != 4)
      throw fail(g.line, "mux needs (out, sel, in0, in1)");
    if (g.type == GateType::FF && g.args.size() != 2)
      throw fail(g.line, "dff needs (q, d)");
    if ((g.type == GateType::Not || g.type == GateType::Buf) &&
        g.args.size() != 2)
      throw fail(g.line, "not/buf need (out, in)");
    gates.push_back(std::move(g));
  }

  auto instrument_id = [&](const std::string& name) {
    if (name.empty()) return no_module;
    auto it = instruments.find(name);
    if (it != instruments.end()) return it->second;
    ModuleId id = out.netlist.add_module(name);
    instruments.emplace(name, id);
    return id;
  };

  // Inputs and flip-flop outputs exist up front; combinational gates are
  // created once all their fanins exist (rejects combinational loops).
  for (const std::string& in : inputs) {
    if (out.nets.count(in)) throw fail(0, "net '" + in + "' redefined");
    out.nets[in] = out.netlist.add_input(in);
  }
  for (const PendingGate& g : gates) {
    if (g.type != GateType::FF) continue;
    if (out.nets.count(g.args[0]))
      throw fail(g.line, "net '" + g.args[0] + "' redefined");
    out.nets[g.args[0]] =
        out.netlist.add_ff(g.args[0], instrument_id(g.instrument));
  }

  auto resolve = [&](const std::string& name) -> NodeId {
    if (name == "1'b0") {
      return out.netlist.add_const(false);
    }
    if (name == "1'b1") {
      return out.netlist.add_const(true);
    }
    auto it = out.nets.find(name);
    return it == out.nets.end() ? no_node : it->second;
  };

  std::vector<const PendingGate*> todo;
  for (const PendingGate& g : gates)
    if (g.type != GateType::FF) todo.push_back(&g);
  while (!todo.empty()) {
    bool progress = false;
    for (auto it = todo.begin(); it != todo.end();) {
      const PendingGate& g = **it;
      std::vector<NodeId> fanins;
      bool ready = true;
      for (std::size_t a = 1; a < g.args.size(); ++a) {
        NodeId n = resolve(g.args[a]);
        if (n == no_node) {
          ready = false;
          break;
        }
        fanins.push_back(n);
      }
      if (!ready) {
        ++it;
        continue;
      }
      if (out.nets.count(g.args[0]))
        throw fail(g.line, "net '" + g.args[0] + "' redefined");
      out.nets[g.args[0]] = out.netlist.add_gate(
          g.type, std::move(fanins), g.args[0],
          instrument_id(g.instrument));
      it = todo.erase(it);
      progress = true;
    }
    if (!progress) {
      throw fail(todo.front()->line,
                 "unresolvable nets (combinational loop or undriven "
                 "wire feeding '" +
                     todo.front()->args[0] + "')");
    }
  }

  // Flip-flop data inputs.
  for (const PendingGate& g : gates) {
    if (g.type != GateType::FF) continue;
    NodeId d = resolve(g.args[1]);
    if (d == no_node)
      throw fail(g.line, "dff '" + g.args[0] + "': undriven data net '" +
                             g.args[1] + "'");
    out.netlist.set_ff_input(out.nets[g.args[0]], d);
  }

  std::string err;
  if (!out.netlist.validate(&err))
    throw std::runtime_error("verilog: parsed netlist invalid: " + err);
  return out;
}

}  // namespace rsnsec::reference
