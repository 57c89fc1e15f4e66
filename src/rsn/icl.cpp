#include "rsn/icl.hpp"

#include <algorithm>
#include <cctype>
#include <istream>
#include <optional>
#include <set>
#include <stdexcept>

#include "util/strings.hpp"

namespace rsnsec::rsn::icl {

namespace {

// ---------------------------------------------------------------- lexer

enum class TokKind : std::uint8_t {
  Ident,
  Number,
  SizedConst,  // 2'b01
  String,      // "text" (only inside skipped statements)
  Punct,       // { } [ ] ; : =
  End
};

struct Token {
  TokKind kind = TokKind::End;
  std::string text;
  std::uint32_t value = 0;  // Number / SizedConst
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(std::istream& is) {
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    tokenize(text);
  }

  const Token& peek() const { return tokens_[pos_]; }
  Token next() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }

 private:
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;

  [[noreturn]] static void fail(int line, const std::string& msg) {
    throw std::runtime_error("icl parse error at line " +
                             std::to_string(line) + ": " + msg);
  }

  void tokenize(const std::string& s) {
    int line = 1;
    std::size_t i = 0;
    while (i < s.size()) {
      char c = s[i];
      if (c == '\n') {
        ++line;
        ++i;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '/' && i + 1 < s.size() && s[i + 1] == '/') {
        while (i < s.size() && s[i] != '\n') ++i;
        continue;
      }
      if (c == '/' && i + 1 < s.size() && s[i + 1] == '*') {
        i += 2;
        while (i + 1 < s.size() && !(s[i] == '*' && s[i + 1] == '/')) {
          if (s[i] == '\n') ++line;
          ++i;
        }
        i += 2;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::size_t j = i;
        while (j < s.size() &&
               (std::isalnum(static_cast<unsigned char>(s[j])) ||
                s[j] == '_' || s[j] == '.'))
          ++j;
        tokens_.push_back({TokKind::Ident, s.substr(i, j - i), 0, line});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        std::size_t j = i;
        while (j < s.size() && std::isdigit(static_cast<unsigned char>(s[j])))
          ++j;
        if (j < s.size() && s[j] == '\'') {
          // Sized binary constant: <width>'b<bits> (also accepts 'd/'h).
          std::size_t k = j + 1;
          if (k >= s.size()) fail(line, "truncated sized constant");
          char base = static_cast<char>(
              std::tolower(static_cast<unsigned char>(s[k])));
          ++k;
          std::size_t v = k;
          while (v < s.size() &&
                 std::isxdigit(static_cast<unsigned char>(s[v])))
            ++v;
          std::string digits = s.substr(k, v - k);
          if (digits.empty()) fail(line, "sized constant without digits");
          int radix = base == 'b' ? 2 : base == 'd' ? 10 : base == 'h' ? 16
                                                                       : 0;
          if (radix == 0) fail(line, "unsupported constant base");
          // Strict radix-checked accumulation: std::stoul would silently
          // stop at the first out-of-base digit ("2'b02" -> 0) and throw
          // an uncaught out_of_range on overflow; a hostile file gets a
          // line-numbered diagnostic instead.
          std::uint64_t value = 0;
          for (char d : digits) {
            int dv = d >= '0' && d <= '9'
                         ? d - '0'
                         : 10 + (std::tolower(static_cast<unsigned char>(d)) -
                                 'a');
            if (dv >= radix)
              fail(line, "digit '" + std::string(1, d) +
                             "' invalid for base-" + std::to_string(radix) +
                             " constant");
            value = value * static_cast<std::uint64_t>(radix) +
                    static_cast<std::uint64_t>(dv);
            if (value > 0xffffffffULL)
              fail(line, "sized constant '" + s.substr(i, v - i) +
                             "' overflows 32 bits");
          }
          tokens_.push_back({TokKind::SizedConst, s.substr(i, v - i),
                             static_cast<std::uint32_t>(value), line});
          i = v;
        } else {
          std::string digits = s.substr(i, j - i);
          std::optional<std::uint64_t> parsed = parse_u64(digits);
          if (!parsed || *parsed > 0xffffffffULL)
            fail(line, "number '" + digits + "' out of range");
          tokens_.push_back({TokKind::Number, std::move(digits),
                             static_cast<std::uint32_t>(*parsed), line});
          i = j;
        }
        continue;
      }
      if (c == '"') {
        std::size_t j = i + 1;
        while (j < s.size() && s[j] != '"') {
          if (s[j] == '\n') ++line;
          ++j;
        }
        if (j >= s.size()) fail(line, "unterminated string literal");
        tokens_.push_back(
            {TokKind::String, s.substr(i + 1, j - i - 1), 0, line});
        i = j + 1;
        continue;
      }
      if (std::string("{}[];:=,()").find(c) != std::string::npos) {
        tokens_.push_back({TokKind::Punct, std::string(1, c), 0, line});
        ++i;
        continue;
      }
      fail(line, std::string("unexpected character '") + c + "'");
    }
    tokens_.push_back({TokKind::End, "<eof>", 0, line});
  }
};

// --------------------------------------------------------------- parser

class Parser {
 public:
  explicit Parser(std::istream& is) : lex_(is) {}

  Document parse_document() {
    Document doc;
    while (lex_.peek().kind != TokKind::End) {
      expect_keyword("Module");
      ModuleDecl mod;
      mod.name = expect_ident("module name");
      expect_punct("{");
      while (!accept_punct("}")) parse_statement(mod);
      if (doc.modules.count(mod.name))
        fail("duplicate module '" + mod.name + "'");
      doc.modules.emplace(mod.name, std::move(mod));
    }
    return doc;
  }

 private:
  Lexer lex_;

  [[noreturn]] void fail(const std::string& msg) const {
    throw std::runtime_error("icl parse error at line " +
                             std::to_string(lex_.peek().line) + ": " + msg);
  }
  std::string expect_ident(const std::string& what) {
    Token t = lex_.next();
    if (t.kind != TokKind::Ident) fail("expected " + what);
    return t.text;
  }
  void expect_keyword(const std::string& kw) {
    Token t = lex_.next();
    if (t.kind != TokKind::Ident || t.text != kw)
      fail("expected '" + kw + "', got '" + t.text + "'");
  }
  void expect_punct(const std::string& p) {
    Token t = lex_.next();
    if (t.kind != TokKind::Punct || t.text != p)
      fail("expected '" + p + "', got '" + t.text + "'");
  }
  bool accept_punct(const std::string& p) {
    if (lex_.peek().kind == TokKind::Punct && lex_.peek().text == p) {
      lex_.next();
      return true;
    }
    return false;
  }
  std::uint32_t expect_number(const std::string& what) {
    Token t = lex_.next();
    if (t.kind != TokKind::Number) fail("expected " + what);
    return t.value;
  }

  Ref parse_ref() {
    Ref r;
    r.name = expect_ident("signal reference");
    if (accept_punct("[")) {
      r.bit = static_cast<int>(expect_number("bit index"));
      expect_punct("]");
    }
    return r;
  }

  void skip_statement() {
    // Consume until the matching ';' (skipping balanced braces).
    int depth = 0;
    for (;;) {
      Token t = lex_.next();
      if (t.kind == TokKind::End) fail("unterminated statement");
      if (t.kind == TokKind::Punct) {
        if (t.text == "{") ++depth;
        if (t.text == "}") {
          if (depth == 0) fail("unexpected '}'");
          if (--depth == 0) return;  // brace-form statement
        }
        if (t.text == ";" && depth == 0) return;
      }
    }
  }

  void parse_statement(ModuleDecl& mod) {
    std::string kw = expect_ident("statement keyword");
    if (kw == "ScanInPort") {
      mod.scan_in_ports.push_back(expect_ident("port name"));
      expect_punct(";");
    } else if (kw == "ScanOutPort") {
      std::string name = expect_ident("port name");
      if (accept_punct(";")) {
        mod.scan_out_ports.emplace_back(name, Ref{});
        return;
      }
      expect_punct("{");
      Ref source;
      while (!accept_punct("}")) {
        std::string attr = expect_ident("attribute");
        if (attr == "Source") {
          source = parse_ref();
          expect_punct(";");
        } else {
          skip_statement();
        }
      }
      mod.scan_out_ports.emplace_back(name, source);
    } else if (kw == "ScanRegister") {
      ScanRegisterDecl reg;
      reg.name = expect_ident("register name");
      if (accept_punct("[")) {
        std::uint32_t msb = expect_number("msb");
        expect_punct(":");
        std::uint32_t lsb = expect_number("lsb");
        expect_punct("]");
        reg.width = static_cast<std::size_t>(
                        msb > lsb ? msb - lsb : lsb - msb) + 1;
      }
      if (accept_punct(";")) {
        mod.registers.push_back(std::move(reg));
        return;
      }
      expect_punct("{");
      while (!accept_punct("}")) {
        std::string attr = expect_ident("attribute");
        if (attr == "ScanInSource") {
          reg.scan_in_source = parse_ref();
          expect_punct(";");
        } else {
          skip_statement();  // CaptureSource, ResetValue, ...
        }
      }
      mod.registers.push_back(std::move(reg));
    } else if (kw == "ScanMux") {
      ScanMuxDecl mux;
      mux.name = expect_ident("mux name");
      expect_keyword("SelectedBy");
      mux.select = expect_ident("select signal");
      expect_punct("{");
      while (!accept_punct("}")) {
        Token t = lex_.next();
        if (t.kind != TokKind::SizedConst && t.kind != TokKind::Number)
          fail("expected select constant");
        expect_punct(":");
        Ref src = parse_ref();
        expect_punct(";");
        mux.inputs.emplace_back(t.value, src);
      }
      if (mux.inputs.size() < 2) fail("ScanMux needs >= 2 inputs");
      mod.muxes.push_back(std::move(mux));
    } else if (kw == "Instance") {
      InstanceDecl inst;
      inst.name = expect_ident("instance name");
      expect_keyword("Of");
      inst.of_module = expect_ident("module name");
      if (accept_punct(";")) {
        mod.instances.push_back(std::move(inst));
        return;
      }
      expect_punct("{");
      while (!accept_punct("}")) {
        std::string attr = expect_ident("attribute");
        if (attr == "InputPort") {
          std::string port = expect_ident("port name");
          expect_punct("=");
          inst.bindings[port] = parse_ref();
          expect_punct(";");
        } else {
          skip_statement();
        }
      }
      mod.instances.push_back(std::move(inst));
    } else if (kw == "Attribute" || kw == "Alias" ||
               kw == "LocalParameter" || kw == "Parameter" ||
               kw == "SelectPort" || kw == "ToSelectPort" ||
               kw == "CaptureEnPort" || kw == "ShiftEnPort" ||
               kw == "UpdateEnPort" || kw == "TCKPort" ||
               kw == "ResetPort" || kw == "DataInPort" ||
               kw == "DataOutPort" || kw == "LogicSignal") {
      skip_statement();
    } else {
      fail("unsupported statement '" + kw + "'");
    }
  }
};

// ----------------------------------------------------------- elaborator

/// Sizes a module's elaboration in kDocumentBudget units: scan FFs plus
/// mux ports plus elements, with one element per instance, saturated just
/// above the budget. Each module is sized once, so an exponential
/// instance fan-out costs linear time here and is rejected before the
/// elaborator allocates anything. An instantiation cycle or a nesting
/// deeper than kMaxDepth, either of which would make the elaborator
/// recurse until the stack overflows, is an error. Unknown child modules
/// are left to the elaborator to report.
class SizeEstimator {
 public:
  static constexpr std::size_t kMaxDepth = 1024;

  explicit SizeEstimator(const Document& doc) : doc_(doc) {}

  std::uint64_t size(const ModuleDecl& mod) {
    if (auto it = sizes_.find(&mod); it != sizes_.end()) return it->second;
    if (!active_.insert(&mod).second)
      throw std::runtime_error(
          "icl elaborate: instantiation cycle through module '" + mod.name +
          "'");
    if (active_.size() > kMaxDepth)
      throw std::runtime_error("icl elaborate: instances nested deeper than " +
                               std::to_string(kMaxDepth) + " levels");
    std::uint64_t total = 1;
    auto add = [&](std::uint64_t units) {
      total = std::min(total + units, kDocumentBudget + 1);
    };
    for (const ScanRegisterDecl& r : mod.registers) add(r.width + 1);
    for (const ScanMuxDecl& m : mod.muxes) add(m.inputs.size() + 1);
    for (const InstanceDecl& i : mod.instances) {
      auto child = doc_.modules.find(i.of_module);
      if (child != doc_.modules.end()) add(size(child->second));
    }
    active_.erase(&mod);
    sizes_.emplace(&mod, total);
    return total;
  }

 private:
  const Document& doc_;
  std::map<const ModuleDecl*, std::uint64_t> sizes_;
  std::set<const ModuleDecl*> active_;
};

class Elaborator {
 public:
  Elaborator(const Document& doc, RsnDocument& out)
      : doc_(doc), out_(out) {}

  /// Elaborates `mod` under hierarchical `prefix`; `input` is the element
  /// feeding the module's scan-in port. Returns the element producing the
  /// module's scan-out.
  ElemId run(const ModuleDecl& mod, const std::string& prefix,
             ElemId input) {
    if (mod.scan_in_ports.size() != 1 || mod.scan_out_ports.size() != 1)
      throw std::runtime_error(
          "icl elaborate: module '" + mod.name +
          "' must have exactly one ScanInPort and one ScanOutPort");

    std::map<std::string, ElemId> producer;
    producer[mod.scan_in_ports.front()] = input;

    // Instrument id: one per elaborated instance that owns registers.
    netlist::ModuleId instrument = netlist::no_module;
    if (!mod.registers.empty()) {
      out_.module_names.push_back(prefix.empty() ? mod.name : prefix);
      instrument =
          static_cast<netlist::ModuleId>(out_.module_names.size() - 1);
    }

    // Pass 1: create local elements.
    for (const ScanRegisterDecl& r : mod.registers) {
      producer[r.name] = out_.network.add_register(
          prefix.empty() ? r.name : prefix + "." + r.name, r.width,
          instrument);
    }
    for (const ScanMuxDecl& m : mod.muxes) {
      producer[m.name] = out_.network.add_mux(
          prefix.empty() ? m.name : prefix + "." + m.name,
          m.inputs.size());
    }

    // Pass 2: elaborate instances; bindings may reference other
    // instances, so iterate to a fixed point.
    std::vector<const InstanceDecl*> pending;
    for (const InstanceDecl& i : mod.instances) pending.push_back(&i);
    while (!pending.empty()) {
      bool progress = false;
      for (auto it = pending.begin(); it != pending.end();) {
        const InstanceDecl& inst = **it;
        auto child_it = doc_.modules.find(inst.of_module);
        if (child_it == doc_.modules.end())
          throw std::runtime_error("icl elaborate: unknown module '" +
                                   inst.of_module + "'");
        const ModuleDecl& child = child_it->second;
        if (child.scan_in_ports.size() != 1)
          throw std::runtime_error("icl elaborate: module '" + child.name +
                                   "' must have exactly one ScanInPort");
        const std::string& port = child.scan_in_ports.front();
        auto bind = inst.bindings.find(port);
        if (bind == inst.bindings.end())
          throw std::runtime_error("icl elaborate: instance '" + inst.name +
                                   "' does not bind port '" + port + "'");
        auto src = producer.find(bind->second.name);
        if (src == producer.end()) {
          ++it;  // producer not elaborated yet; retry next round
          continue;
        }
        std::string child_prefix =
            prefix.empty() ? inst.name : prefix + "." + inst.name;
        producer[inst.name] = run(child, child_prefix, src->second);
        it = pending.erase(it);
        progress = true;
      }
      if (!progress)
        throw std::runtime_error(
            "icl elaborate: unresolvable instance bindings in module '" +
            mod.name + "' (cycle or unknown reference)");
    }

    // Pass 3: connect local elements.
    auto resolve = [&](const Ref& ref, const std::string& what) {
      auto it = producer.find(ref.name);
      if (it == producer.end())
        throw std::runtime_error("icl elaborate: unknown reference '" +
                                 ref.name + "' in " + what);
      return it->second;
    };
    for (const ScanRegisterDecl& r : mod.registers) {
      if (r.scan_in_source.name.empty())
        throw std::runtime_error("icl elaborate: register '" + r.name +
                                 "' has no ScanInSource");
      out_.network.connect(resolve(r.scan_in_source, "register " + r.name),
                           producer[r.name], 0);
    }
    for (const ScanMuxDecl& m : mod.muxes) {
      // Port order follows ascending select values.
      auto inputs = m.inputs;
      std::sort(inputs.begin(), inputs.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (std::size_t p = 0; p < inputs.size(); ++p) {
        out_.network.connect(resolve(inputs[p].second, "mux " + m.name),
                             producer[m.name], p);
      }
    }
    return resolve(mod.scan_out_ports.front().second,
                   "scan-out of module " + mod.name);
  }

 private:
  const Document& doc_;
  RsnDocument& out_;
};

}  // namespace

const ModuleDecl& Document::top() const {
  std::set<std::string> instantiated;
  for (const auto& [name, mod] : modules)
    for (const InstanceDecl& i : mod.instances)
      instantiated.insert(i.of_module);
  const ModuleDecl* top = nullptr;
  for (const auto& [name, mod] : modules) {
    if (instantiated.count(name)) continue;
    if (top != nullptr)
      throw std::runtime_error(
          "icl: ambiguous top module ('" + top->name + "' and '" + name +
          "'); pass a top name explicitly");
    top = &mod;
  }
  if (top == nullptr)
    throw std::runtime_error("icl: no top module (instantiation cycle?)");
  return *top;
}

Document parse(std::istream& is) { return Parser(is).parse_document(); }

RsnDocument elaborate(const Document& doc, const std::string& top_name) {
  const ModuleDecl* top = nullptr;
  if (top_name.empty()) {
    top = &doc.top();
  } else {
    auto it = doc.modules.find(top_name);
    if (it == doc.modules.end())
      throw std::runtime_error("icl: unknown top module '" + top_name + "'");
    top = &it->second;
  }
  if (SizeEstimator(doc).size(*top) > kDocumentBudget)
    throw std::runtime_error("icl elaborate: design exceeds " +
                             std::to_string(kDocumentBudget) +
                             " scan FFs, mux ports and elements");
  RsnDocument out;
  out.network = Rsn(top->name);
  Elaborator el(doc, out);
  ElemId result = el.run(*top, "", out.network.scan_in());
  out.network.connect(result, out.network.scan_out(), 0);
  return out;
}

RsnDocument load_icl(std::istream& is, const std::string& top_name) {
  Document doc = parse(is);
  return elaborate(doc, top_name);
}

}  // namespace rsnsec::rsn::icl
