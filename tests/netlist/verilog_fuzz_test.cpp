// Robustness of the Verilog reader on damaged input: every truncation and
// byte flip of a valid netlist either parses or fails with a
// std::runtime_error (never bad_alloc, another exception, a crash or a
// hang), and the reader's peak live heap stays within a constant factor
// of the input size.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <typeinfo>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "netlist/verilog.hpp"
#include "util/rng.hpp"

// Live-byte counter: every global operator new records its size in a
// header in front of the block, so operator delete can subtract it.
// Counting every allocation of the test binary is coarse; the assertions
// only look at the growth across one parse.
namespace {
constexpr std::size_t kHeader = alignof(std::max_align_t);
std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};
}  // namespace

void* operator new(std::size_t n) {
  void* raw = std::malloc(n + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = n;
  std::size_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return static_cast<char*>(raw) + kHeader;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  g_live.fetch_sub(*static_cast<std::size_t*>(raw),
                   std::memory_order_relaxed);
  std::free(raw);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace rsnsec::netlist::verilog {
namespace {

// Peak live heap of one parse, result included, is at most
// kBytesPerInputByte * input bytes + kFixedBytes.
constexpr std::size_t kBytesPerInputByte = 8;
constexpr std::size_t kFixedBytes = 256 * 1024;

enum class Result { Parsed, RuntimeError };

/// Parses `text`, checks the allocation bound, and reports the outcome;
/// any exception other than std::runtime_error fails the test.
Result parse_checked(const std::string& text, const std::string& label) {
  std::istringstream is(text);
  const std::size_t base = g_live.load();
  g_peak.store(base);
  Result r = Result::Parsed;
  try {
    ParsedCircuit c = parse(is);
  } catch (const std::runtime_error&) {
    r = Result::RuntimeError;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": " << typeid(e).name() << ": " << e.what();
  }
  const std::size_t peak = g_peak.load() - base;
  EXPECT_LE(peak, kBytesPerInputByte * text.size() + kFixedBytes)
      << label << ": peak " << peak << " B for " << text.size()
      << " input bytes";
  return r;
}

std::string family_verilog(const std::string& family, double scale,
                           std::uint64_t seed) {
  Rng rng(seed);
  rsn::RsnDocument doc = benchgen::generate_bastion(
      benchgen::bastion_profile(family), scale, rng);
  Netlist nl = benchgen::attach_random_circuit(doc, {}, rng);
  std::ostringstream os;
  write(os, nl, doc.network.name());
  return os.str();
}

/// Exercises every token kind: header directions, comments, attributes,
/// escaped identifiers, strings, constants, out-of-order gates.
const char* kAllTokens = R"(// header
module fuzz(input a, b, output y);
  wire w1, \esc.net ;
  /* block
     comment */
  (* instrument = "core_0" *)
  dff r1(q1, w1);
  and g1(w1, a, \esc.net );
  or (\esc.net , q1, 1'b0);
  mux m1(y, a, b, 1'b1);
  (* instrument = "core_1" *)
  dff (q2, y);
endmodule
)";

TEST(VerilogFuzz, PeakHeapIsLinearInInputSize) {
  for (const char* family : {"p93791", "q12710", "FlexScan", "Mingle"}) {
    std::string text = family_verilog(family, 0.05, 3);
    ASSERT_EQ(parse_checked(text, family), Result::Parsed);
  }
  // Many short nets and long fanin lists.
  std::string wide = "module wide(input a);\n  and (y";
  for (int i = 0; i < 20000; ++i) wide += ", a";
  wide += ");\n  dff (q, y);\nendmodule\n";
  EXPECT_EQ(parse_checked(wide, "wide"), Result::Parsed);
}

TEST(VerilogFuzz, EveryTruncationIsARuntimeError) {
  for (const std::string& text :
       {std::string(kAllTokens), family_verilog("Mingle", 0.02, 5)}) {
    // Everything before the end of "endmodule" is an incomplete module.
    const std::size_t complete = text.rfind("endmodule") + 9;
    const std::size_t step = std::max<std::size_t>(1, complete / 400);
    for (std::size_t cut = 0; cut < complete; cut += step) {
      EXPECT_EQ(parse_checked(text.substr(0, cut),
                              "cut at " + std::to_string(cut)),
                Result::RuntimeError)
          << "cut at " << cut;
    }
    for (std::size_t cut = complete; cut <= text.size(); ++cut)
      EXPECT_EQ(parse_checked(text.substr(0, cut), "complete"),
                Result::Parsed);
  }
}

TEST(VerilogFuzz, ByteFlipsParseOrFailCleanly) {
  const char kInteresting[] = "()*;,=\"\\/ \n\t'0a_$.\x00\xff";
  Rng rng(11);
  for (const std::string& text :
       {std::string(kAllTokens), family_verilog("Mingle", 0.02, 5)}) {
    std::size_t parsed = 0;
    for (int round = 0; round < 600; ++round) {
      std::string damaged = text;
      for (std::uint32_t k = 1 + rng.below(3); k > 0; --k) {
        const std::size_t at =
            rng.below(static_cast<std::uint32_t>(damaged.size()));
        damaged[at] = rng.chance(0.5)
                          ? kInteresting[rng.below(sizeof kInteresting - 1)]
                          : static_cast<char>(rng.below(256));
      }
      parsed += parse_checked(damaged, "round " + std::to_string(round)) ==
                Result::Parsed;
    }
    // Some flips land in names or whitespace and leave a valid module.
    EXPECT_GT(parsed, 0u);
  }
}

}  // namespace
}  // namespace rsnsec::netlist::verilog
