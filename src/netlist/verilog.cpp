#include "netlist/verilog.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace rsnsec::netlist::verilog {

namespace {

using Line = std::uint32_t;

[[noreturn]] void fail(Line line, const std::string& m) {
  throw std::runtime_error("verilog parse error at line " +
                           std::to_string(line) + ": " + m);
}

/// Character classes of the lexer: ASCII, as <cctype> in the "C" locale.
enum : std::uint8_t {
  kSpace = 1,       // isspace
  kIdentStart = 2,  // isalpha or '_'
  kIdent = 4,       // isalnum or one of "_$."
  kDigit = 8,       // isdigit
  kNumber = 16,     // isalnum or '\''
};

constexpr std::array<std::uint8_t, 256> make_char_classes() {
  std::array<std::uint8_t, 256> t{};
  for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) t[c] = kSpace;
  for (int c = 0; c < 256; ++c) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = c >= '0' && c <= '9';
    if (alpha || c == '_') t[c] |= kIdentStart;
    if (alpha || digit || c == '_' || c == '$' || c == '.') t[c] |= kIdent;
    if (digit) t[c] |= kDigit;
    if (alpha || digit || c == '\'') t[c] |= kNumber;
  }
  return t;
}
constexpr std::array<std::uint8_t, 256> kCharClass = make_char_classes();

bool has_class(char c, std::uint8_t cls) {
  return (kCharClass[static_cast<unsigned char>(c)] & cls) != 0;
}

/// The rest of `is`, read into one buffer (sized up front when the stream
/// can seek).
std::string read_all(std::istream& is) {
  std::string s;
  std::streambuf* sb = is.rdbuf();
  if (sb == nullptr) return s;
  const std::streampos here = sb->pubseekoff(0, std::ios::cur, std::ios::in);
  if (here != std::streampos(-1)) {
    const std::streampos end = sb->pubseekoff(0, std::ios::end, std::ios::in);
    if (sb->pubseekpos(here, std::ios::in) != here)
      throw std::runtime_error("verilog: cannot rewind the input stream");
    if (end != std::streampos(-1) && end > here)
      s.reserve(static_cast<std::size_t>(end - here));
  }
  std::array<char, 1 << 16> chunk;
  for (std::streamsize n; (n = sb->sgetn(chunk.data(), chunk.size())) > 0;)
    s.append(chunk.data(), static_cast<std::size_t>(n));
  return s;
}

enum class TokKind : std::uint8_t { Word, Punct, End };

/// A token: a view into the source buffer (a string literal's contents
/// without the quotes, an escaped identifier without its backslash), or
/// "<eof>" for the end of the input.
struct Token {
  std::string_view text;
  Line line = 0;
  TokKind kind = TokKind::End;

  bool is_punct() const { return kind != TokKind::Word; }
};

/// Single-pass pull lexer with one token of lookahead. It never stores
/// more than the current token; past the end it keeps returning "<eof>".
class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) { advance(); }

  const Token& peek() const { return cur_; }

  Token next() {
    Token t = cur_;
    if (t.kind != TokKind::End) advance();
    return t;
  }

 private:
  void advance();

  std::string_view src_;
  std::size_t pos_ = 0;
  Line line_ = 1;
  Token cur_;
};

void Lexer::advance() {
  const char* s = src_.data();
  const std::size_t n = src_.size();
  std::size_t i = pos_;
  // Whitespace and comments.
  for (;;) {
    if (i >= n) {
      cur_ = {"<eof>", line_, TokKind::End};
      pos_ = i;
      return;
    }
    const char c = s[i];
    if (c == '\n') {
      ++line_;
      ++i;
    } else if (has_class(c, kSpace)) {
      ++i;
    } else if (c == '/' && i + 1 < n && s[i + 1] == '/') {
      while (i < n && s[i] != '\n') ++i;
    } else if (c == '/' && i + 1 < n && s[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(s[i] == '*' && s[i + 1] == '/')) {
        if (s[i] == '\n') ++line_;
        ++i;
      }
      i += 2;
    } else {
      break;
    }
  }

  const char c = s[i];
  std::size_t j = i + 1;
  TokKind kind = TokKind::Word;
  std::string_view text;
  if (c == '\\') {
    // Escaped identifier: everything up to the next whitespace.
    while (j < n && !has_class(s[j], kSpace)) ++j;
    text = src_.substr(i + 1, j - i - 1);
  } else if (has_class(c, kIdentStart)) {
    while (j < n && has_class(s[j], kIdent)) ++j;
    text = src_.substr(i, j - i);
  } else if (has_class(c, kDigit)) {
    // Number or sized constant like 1'b0.
    while (j < n && has_class(s[j], kNumber)) ++j;
    text = src_.substr(i, j - i);
  } else if ((c == '(' && j < n && s[j] == '*') ||
             (c == '*' && j < n && s[j] == ')')) {
    ++j;
    kind = TokKind::Punct;
    text = src_.substr(i, 2);
  } else if (c == '"') {
    while (j < n && s[j] != '"') ++j;
    if (j >= n) fail(line_, "unterminated string");
    text = src_.substr(i + 1, j - i - 1);
    ++j;
  } else if (c == '(' || c == ')' || c == ',' || c == ';' || c == '=') {
    kind = TokKind::Punct;
    text = src_.substr(i, 1);
  } else {
    fail(line_, std::string("unexpected character '") + c + "'");
  }
  cur_ = {text, line_, kind};
  pos_ = j;
}

/// Dense ids for names, in first-seen order. The views point into the
/// source buffer, which outlives the table.
class Interner {
 public:
  explicit Interner(std::size_t expected = 0) { ids_.reserve(expected); }

  std::uint32_t intern(std::string_view name) {
    auto [it, fresh] =
        ids_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
    if (fresh) names_.push_back(name);
    return it->second;
  }

  std::string_view name(std::uint32_t id) const { return names_[id]; }
  std::size_t size() const { return names_.size(); }

  /// Frees the name -> id index once every name is interned; name() and
  /// size() keep working.
  void drop_index() { ids_ = {}; }

 private:
  std::unordered_map<std::string_view, std::uint32_t> ids_;
  std::vector<std::string_view> names_;
};

constexpr std::uint32_t kNoInstrument = 0xffffffffu;

/// A primitive instantiation awaiting creation: its nets are
/// args[first_arg .. first_arg + num_args) = [out, in...].
struct PendingGate {
  GateType type = GateType::Buf;
  Line line = 0;
  std::uint32_t first_arg = 0;
  std::uint32_t num_args = 0;
  std::uint32_t instrument = kNoInstrument;
};

bool prim_type(std::string_view kw, GateType* out) {
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

/// Net ids 0 and 1 are the constant literals; as a gate or flip-flop
/// input they denote a fresh constant node, never the net of that name.
constexpr std::uint32_t kConst0 = 0;
constexpr std::uint32_t kConst1 = 1;

}  // namespace

ParsedCircuit parse(std::istream& is) {
  const std::string src = read_all(is);
  Lexer lex(src);
  ParsedCircuit out;

  Interner nets(src.size() / 32);
  nets.intern("1'b0");
  nets.intern("1'b1");
  Interner instruments;
  auto quoted = [&](std::uint32_t net) {
    return "'" + std::string(nets.name(net)) + "'";
  };
  auto expect = [&](std::string_view p) {
    Token t = lex.next();
    if (t.text != p)
      fail(t.line, "expected '" + std::string(p) + "', got '" +
                       std::string(t.text) + "'");
  };

  // --- header ---
  std::vector<std::pair<std::uint32_t, Line>> inputs;  // net, declaring line
  {
    Token t = lex.next();
    if (t.text != "module") fail(t.line, "expected 'module'");
  }
  out.module_name = std::string(lex.next().text);
  expect("(");
  std::string_view pending_dir;
  while (lex.peek().text != ")") {
    Token t = lex.next();
    if (t.kind == TokKind::End) fail(t.line, "unexpected end of file");
    if (t.text == ",") continue;
    if (t.text == "input" || t.text == "output" || t.text == "wire") {
      pending_dir = t.text;
      continue;
    }
    if (pending_dir == "input")
      inputs.emplace_back(nets.intern(t.text), t.line);
    else if (pending_dir == "output")
      out.outputs.emplace_back(t.text);
    // Undirected header ports get their direction from body decls.
  }
  expect(")");
  expect(";");

  // --- body ---
  std::vector<PendingGate> gates;  // combinational, in file order
  std::vector<PendingGate> ffs;    // flip-flops, in file order
  std::vector<std::uint32_t> args;
  std::uint32_t next_instrument = kNoInstrument;
  for (;;) {
    Token t = lex.next();
    if (t.text == "endmodule") break;
    if (t.text == "<eof>") fail(t.line, "missing 'endmodule'");
    if (t.text == "(*") {
      // (* instrument = "name" *)
      Token key = lex.next();
      if (key.text != "instrument")
        fail(key.line, "unsupported attribute '" + std::string(key.text) + "'");
      expect("=");
      std::string_view name = lex.next().text;
      next_instrument = name.empty() ? kNoInstrument : instruments.intern(name);
      expect("*)");
      continue;
    }
    if (t.text == "input" || t.text == "output" || t.text == "wire") {
      while (true) {
        Token n = lex.next();
        if (n.is_punct()) fail(n.line, "expected net name");
        if (t.text == "input") inputs.emplace_back(nets.intern(n.text), n.line);
        if (t.text == "output") out.outputs.emplace_back(n.text);
        Token sep = lex.next();
        if (sep.text == ";") break;
        if (sep.text != ",") fail(sep.line, "expected ',' or ';'");
      }
      continue;
    }
    PendingGate g;
    if (!prim_type(t.text, &g.type))
      fail(t.line, "unknown primitive '" + std::string(t.text) + "'");
    g.line = t.line;
    g.instrument = next_instrument;
    next_instrument = kNoInstrument;
    g.first_arg = static_cast<std::uint32_t>(args.size());
    if (lex.peek().text != "(") lex.next();  // instance name (optional)
    expect("(");
    while (lex.peek().text != ")") {
      Token a = lex.next();
      if (a.kind == TokKind::End) fail(a.line, "unexpected end of file");
      if (a.text == ",") continue;
      args.push_back(nets.intern(a.text));
    }
    expect(")");
    expect(";");
    g.num_args = static_cast<std::uint32_t>(args.size()) - g.first_arg;
    if (g.num_args < 2)
      fail(g.line, "primitive needs an output and >= 1 input");
    if (g.type == GateType::Mux && g.num_args != 4)
      fail(g.line, "mux needs (out, sel, in0, in1)");
    if (g.type == GateType::FF && g.num_args != 2)
      fail(g.line, "dff needs (q, d)");
    if ((g.type == GateType::Not || g.type == GateType::Buf) &&
        g.num_args != 2)
      fail(g.line, "not/buf need (out, in)");
    (g.type == GateType::FF ? ffs : gates).push_back(g);
  }
  // Lexical errors after endmodule are errors too.
  while (lex.next().kind != TokKind::End) {
  }
  nets.drop_index();

  std::vector<ModuleId> instrument_module(instruments.size(), no_module);
  auto module_of = [&](std::uint32_t instrument) {
    if (instrument == kNoInstrument) return no_module;
    ModuleId& m = instrument_module[instrument];
    if (m == no_module)
      m = out.netlist.add_module(std::string(instruments.name(instrument)));
    return m;
  };

  // Inputs and flip-flop outputs exist up front.
  std::vector<NodeId> node(nets.size(), no_node);
  for (const auto& [net, line] : inputs) {
    if (node[net] != no_node) fail(line, "net " + quoted(net) + " redefined");
    node[net] = out.netlist.add_input(std::string(nets.name(net)));
  }
  for (const PendingGate& f : ffs) {
    const std::uint32_t q = args[f.first_arg];
    if (node[q] != no_node) fail(f.line, "net " + quoted(q) + " redefined");
    node[q] = out.netlist.add_ff(std::string(nets.name(q)),
                                 module_of(f.instrument));
  }

  // Combinational gates are created as if the unresolved gates were
  // retried in file order, pass after pass, until a pass makes no
  // progress: gate g is created in pass
  //   p(g) = max(1, max over gate-driven fanins f of p(f) + [pos(f) > pos(g)])
  // and, within a pass, in file order. One Kahn sweep over the nets no
  // input or flip-flop drives computes p; a stable bucket sort by p
  // yields the creation order. Gates that never become ready feed a
  // combinational loop or an undriven wire.
  const auto num_gates = static_cast<std::uint32_t>(gates.size());
  auto fanins_of = [&](const PendingGate& g) {
    return std::pair(args.data() + g.first_arg + 1,
                     args.data() + g.first_arg + g.num_args);
  };
  auto waits_on = [&](std::uint32_t net) {
    return net != kConst0 && net != kConst1 && node[net] == no_node;
  };
  // readers[reader_begin[n] .. reader_begin[n + 1]) are the gates reading
  // net n, once per occurrence; waiting[g] counts g's unreleased fanins.
  std::vector<std::uint32_t> reader_begin(nets.size() + 1, 0);
  std::vector<std::uint32_t> waiting(num_gates, 0);
  for (std::uint32_t g = 0; g < num_gates; ++g) {
    auto [a, end] = fanins_of(gates[g]);
    for (; a != end; ++a) {
      if (!waits_on(*a)) continue;
      ++reader_begin[*a];
      ++waiting[g];
    }
  }
  for (std::size_t n = 1; n <= nets.size(); ++n)
    reader_begin[n] += reader_begin[n - 1];
  std::vector<std::uint32_t> readers(reader_begin[nets.size()]);
  for (std::uint32_t g = num_gates; g-- > 0;) {
    auto [begin, end] = fanins_of(gates[g]);
    for (const std::uint32_t* a = end; a != begin;)
      if (waits_on(*--a)) readers[--reader_begin[*a]] = g;
  }

  std::vector<std::uint32_t> pass(num_gates, 1);
  std::vector<bool> released(nets.size(), false);
  std::vector<std::uint32_t> ready;
  for (std::uint32_t g = 0; g < num_gates; ++g)
    if (waiting[g] == 0) ready.push_back(g);
  std::uint32_t max_pass = num_gates == 0 ? 0 : 1;
  std::size_t num_ready = 0;
  while (!ready.empty()) {
    const std::uint32_t d = ready.back();
    ready.pop_back();
    ++num_ready;
    max_pass = std::max(max_pass, pass[d]);
    const std::uint32_t y = args[gates[d].first_arg];
    // A net already driven (by an input, a flip-flop or an earlier gate)
    // releases nothing: the second driver is rejected when created.
    if (node[y] != no_node || released[y]) continue;
    released[y] = true;
    for (std::uint32_t i = reader_begin[y]; i < reader_begin[y + 1]; ++i) {
      const std::uint32_t r = readers[i];
      pass[r] = std::max(pass[r], pass[d] + (d > r ? 1u : 0u));
      if (--waiting[r] == 0) ready.push_back(r);
    }
  }

  std::vector<std::uint32_t> order(num_ready);
  {
    std::vector<std::uint32_t> bucket(max_pass + 2, 0);
    for (std::uint32_t g = 0; g < num_gates; ++g)
      if (waiting[g] == 0) ++bucket[pass[g] + 1];
    for (std::size_t p = 1; p < bucket.size(); ++p) bucket[p] += bucket[p - 1];
    for (std::uint32_t g = 0; g < num_gates; ++g)
      if (waiting[g] == 0) order[bucket[pass[g]]++] = g;
  }

  // Constant literals become nodes only as their gate is created.
  auto resolve = [&](std::uint32_t net) -> NodeId {
    if (net == kConst0) return out.netlist.add_const(false);
    if (net == kConst1) return out.netlist.add_const(true);
    return node[net];
  };
  for (const std::uint32_t g : order) {
    const PendingGate& pg = gates[g];
    const std::uint32_t y = args[pg.first_arg];
    if (node[y] != no_node) fail(pg.line, "net " + quoted(y) + " redefined");
    std::vector<NodeId> fanins;
    fanins.reserve(pg.num_args - 1);
    auto [a, end] = fanins_of(pg);
    for (; a != end; ++a) fanins.push_back(resolve(*a));
    node[y] = out.netlist.add_gate(pg.type, std::move(fanins),
                                   std::string(nets.name(y)),
                                   module_of(pg.instrument));
  }
  if (num_ready < num_gates) {
    const auto stuck =
        std::find_if(waiting.begin(), waiting.end(),
                     [](std::uint32_t w) { return w != 0; }) -
        waiting.begin();
    const PendingGate& g = gates[static_cast<std::size_t>(stuck)];
    fail(g.line,
         "unresolvable nets (combinational loop or undriven wire feeding " +
             quoted(args[g.first_arg]) + ")");
  }

  // Flip-flop data inputs.
  for (const PendingGate& f : ffs) {
    const std::uint32_t q = args[f.first_arg];
    const std::uint32_t d = args[f.first_arg + 1];
    const NodeId dn = resolve(d);
    if (dn == no_node)
      fail(f.line, "dff " + quoted(q) + ": undriven data net " + quoted(d));
    out.netlist.set_ff_input(node[q], dn);
  }

  std::string err;
  if (!out.netlist.validate(&err))
    throw std::runtime_error("verilog: parsed netlist invalid: " + err);

  // The name map, built once: sorted, so every insertion lands at the end.
  std::vector<std::pair<std::string_view, NodeId>> named;
  for (std::uint32_t n = 0; n < nets.size(); ++n)
    if (node[n] != no_node) named.emplace_back(nets.name(n), node[n]);
  std::sort(named.begin(), named.end());
  for (const auto& [name, id] : named)
    out.nets.emplace_hint(out.nets.end(), std::string(name), id);
  return out;
}

void write(std::ostream& os, const Netlist& nl, const std::string& name) {
  auto net_name = [&](NodeId id) {
    const Node& n = nl.node(id);
    if (!n.name.empty()) return n.name;
    return "n" + std::to_string(id);
  };

  os << "module " << name << "(";
  bool first = true;
  for (NodeId in : nl.inputs()) {
    os << (first ? "" : ", ") << net_name(in);
    first = false;
  }
  os << ");\n";
  if (!nl.inputs().empty()) {
    os << "  input ";
    first = true;
    for (NodeId in : nl.inputs()) {
      os << (first ? "" : ", ") << net_name(in);
      first = false;
    }
    os << ";\n";
  }

  auto emit_attr = [&](const Node& n) {
    if (n.module != no_module)
      os << "  (* instrument = \"" << nl.module_name(n.module) << "\" *)\n";
  };

  // Declare wires for gate outputs.
  for (NodeId id = 0; id < nl.num_nodes(); ++id) {
    const Node& n = nl.node(id);
    if (n.type == GateType::Input) continue;
    os << "  wire " << net_name(id) << ";\n";
  }
  // Constants.
  for (NodeId id = 0; id < nl.num_nodes(); ++id) {
    const Node& n = nl.node(id);
    if (n.type == GateType::Const0)
      os << "  buf (" << net_name(id) << ", 1'b0);\n";
    if (n.type == GateType::Const1)
      os << "  buf (" << net_name(id) << ", 1'b1);\n";
  }
  // Gates and flip-flops (any order: the parser resolves).
  for (NodeId id = 0; id < nl.num_nodes(); ++id) {
    const Node& n = nl.node(id);
    switch (n.type) {
      case GateType::Input:
      case GateType::Const0:
      case GateType::Const1:
        break;
      case GateType::FF: {
        emit_attr(n);
        os << "  dff (" << net_name(id) << ", " << net_name(n.fanins[0])
           << ");\n";
        break;
      }
      default: {
        emit_attr(n);
        const char* prim = nullptr;
        switch (n.type) {
          case GateType::Buf: prim = "buf"; break;
          case GateType::Not: prim = "not"; break;
          case GateType::And: prim = "and"; break;
          case GateType::Nand: prim = "nand"; break;
          case GateType::Or: prim = "or"; break;
          case GateType::Nor: prim = "nor"; break;
          case GateType::Xor: prim = "xor"; break;
          case GateType::Xnor: prim = "xnor"; break;
          case GateType::Mux: prim = "mux"; break;
          default: break;
        }
        os << "  " << prim << " (" << net_name(id);
        for (NodeId f : n.fanins) os << ", " << net_name(f);
        os << ");\n";
        break;
      }
    }
  }
  os << "endmodule\n";
}

}  // namespace rsnsec::netlist::verilog
