// Codec layer of the artifact store: canonical primitive encodings, the
// checksum/key hashes, and the model-object codecs. The decoders face
// on-disk bytes that may be truncated or hostile, so every malformation
// must surface as CodecError — never as a crash or silent misparse.

#include "store/codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace rsnsec::store {
namespace {

// ------------------------------------------------------------ primitives

TEST(VarintCodec, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,     1,          127,        128,
                                  16383, 16384,      0xffffffff, 1ull << 32,
                                  (1ull << 63) - 1,  1ull << 63, ~0ull};
  for (std::uint64_t v : values) {
    ByteWriter w;
    w.varint(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.varint(), v);
    r.expect_end();
  }
}

TEST(VarintCodec, RejectsNonCanonicalEncoding) {
  // 0 padded to two bytes: the writer never emits a zero continuation.
  std::string padded_zero = {'\x80', '\x00'};
  ByteReader r1(padded_zero);
  EXPECT_THROW(r1.varint(), CodecError);
  // 1 padded to two bytes.
  std::string padded_one = {'\x81', '\x00'};
  ByteReader r2(padded_one);
  EXPECT_THROW(r2.varint(), CodecError);
}

TEST(VarintCodec, RejectsOverflowAndOverlength) {
  // Ten continuation bytes: more than 64 bits of payload.
  std::string overlong(10, '\xff');
  ByteReader r1(overlong);
  EXPECT_THROW(r1.varint(), CodecError);
  // Exactly ten bytes but the top byte claims bits 64+.
  std::string overflow(9, '\xff');
  overflow.push_back('\x02');
  ByteReader r2(overflow);
  EXPECT_THROW(r2.varint(), CodecError);
}

TEST(VarintCodec, RejectsTruncation) {
  ByteWriter w;
  w.varint(300);  // two bytes
  std::string cut = w.bytes().substr(0, 1);
  ByteReader r(cut);
  EXPECT_THROW(r.varint(), CodecError);
}

TEST(ZigzagCodec, RoundTripsSignedExtremes) {
  const std::int64_t values[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (std::int64_t v : values) {
    ByteWriter w;
    w.zigzag(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.zigzag(), v);
  }
  // Small magnitudes stay small on the wire.
  ByteWriter w;
  w.zigzag(-1);
  EXPECT_EQ(w.size(), 1u);
}

TEST(StringCodec, RoundTripsAndRejectsTruncatedBody) {
  const std::string payload("hello\0world", 11);  // embedded NUL survives
  ByteWriter w;
  w.str(payload);
  ByteReader ok(w.bytes());
  EXPECT_EQ(ok.str(), payload);
  std::string cut = w.bytes().substr(0, w.size() - 1);
  ByteReader bad(cut);
  EXPECT_THROW(bad.str(), CodecError);
}

TEST(SectionCodec, BoundsTheReaderExactly) {
  ByteWriter body;
  body.varint(42);
  ByteWriter outer;
  outer.section(body);
  outer.varint(7);

  ByteReader r(outer.bytes());
  ByteReader sec = r.section();
  EXPECT_EQ(sec.varint(), 42u);
  sec.expect_end();
  EXPECT_EQ(r.varint(), 7u);
  r.expect_end();
}

TEST(SectionCodec, ExpectEndCatchesTrailingBytes) {
  ByteWriter body;
  body.varint(1);
  body.varint(2);
  ByteWriter outer;
  outer.section(body);
  ByteReader r(outer.bytes());
  ByteReader sec = r.section();
  sec.varint();
  EXPECT_THROW(sec.expect_end(), CodecError);
}

// ------------------------------------------------------------- checksums

TEST(Checksums, Fnv1a64KnownVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Checksums, Sha256KnownVectors) {
  EXPECT_EQ(
      Sha256::hex(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      Sha256::hex("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // NIST two-block message.
  EXPECT_EQ(
      Sha256::hex(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Checksums, Sha256IncrementalMatchesOneShot) {
  std::string data(1000, 'x');
  Sha256 h;
  for (std::size_t i = 0; i < data.size(); i += 7)
    h.update(data.substr(i, 7));
  std::array<std::uint8_t, 32> a = h.digest();
  Sha256 h2;
  h2.update(data);
  EXPECT_EQ(a, h2.digest());
}

// ---------------------------------------------------------------- netlist

netlist::Netlist example_netlist() {
  using netlist::GateType;
  netlist::Netlist nl;
  netlist::ModuleId core = nl.add_module("core");
  netlist::ModuleId instr = nl.add_module("instrument");
  netlist::NodeId in0 = nl.add_input("in0", core);
  nl.add_const(false);
  netlist::NodeId one = nl.add_const(true);
  netlist::NodeId g =
      nl.add_gate(GateType::And, {in0, one}, "g_and", instr);
  netlist::NodeId f1 = nl.add_ff("ff1", core);
  netlist::NodeId f2 = nl.add_ff("ff2", instr, g);
  netlist::NodeId inv = nl.add_gate(GateType::Not, {f2});
  // Forward reference: ff1's data input has a higher node id, so the
  // decoder must defer FF inputs until all nodes exist.
  nl.set_ff_input(f1, inv);
  return nl;
}

TEST(NetlistCodec, RoundTripIsCanonical) {
  netlist::Netlist nl = example_netlist();
  ByteWriter w;
  encode_netlist(w, nl);
  ByteReader r(w.bytes());
  netlist::Netlist decoded = decode_netlist(r);
  r.expect_end();

  ASSERT_EQ(decoded.num_nodes(), nl.num_nodes());
  ASSERT_EQ(decoded.num_modules(), nl.num_modules());
  EXPECT_EQ(decoded.module_name(1), "instrument");
  EXPECT_EQ(decoded.ffs(), nl.ffs());
  EXPECT_EQ(decoded.node(4).name, "ff1");
  EXPECT_EQ(decoded.node(4).fanins, nl.node(4).fanins);
  std::string err;
  EXPECT_TRUE(decoded.validate(&err)) << err;

  // Canonicality: the decoded netlist re-encodes to identical bytes, so
  // the encoding is usable as a content-hash input.
  ByteWriter w2;
  encode_netlist(w2, decoded);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

TEST(NetlistCodec, EveryTruncationThrowsCodecError) {
  ByteWriter w;
  encode_netlist(w, example_netlist());
  const std::string& full = w.bytes();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::string prefix = full.substr(0, cut);  // keep the view's storage alive
    ByteReader r(prefix);
    EXPECT_THROW(
        {
          decode_netlist(r);
          r.expect_end();
        },
        CodecError)
        << "prefix length " << cut;
  }
}

TEST(NetlistCodec, RejectsHostileStructures) {
  {  // Unknown gate type.
    ByteWriter w;
    w.varint(0);  // modules
    w.varint(1);  // nodes
    w.u8(200);
    ByteReader r(w.bytes());
    EXPECT_THROW(decode_netlist(r), CodecError);
  }
  {  // Fanin id out of range.
    ByteWriter w;
    w.varint(0);
    w.varint(1);
    w.u8(static_cast<std::uint8_t>(netlist::GateType::Buf));
    w.zigzag(netlist::no_module);
    w.str("");
    w.varint(1);
    w.varint(5);  // only node 0 exists
    ByteReader r(w.bytes());
    EXPECT_THROW(decode_netlist(r), CodecError);
  }
  {  // Primary input with fanins.
    ByteWriter w;
    w.varint(0);
    w.varint(1);
    w.u8(static_cast<std::uint8_t>(netlist::GateType::Input));
    w.zigzag(netlist::no_module);
    w.str("i");
    w.varint(1);
    w.varint(0);
    ByteReader r(w.bytes());
    EXPECT_THROW(decode_netlist(r), CodecError);
  }
  {  // Constant carrying a name (not representable via the API).
    ByteWriter w;
    w.varint(0);
    w.varint(1);
    w.u8(static_cast<std::uint8_t>(netlist::GateType::Const0));
    w.zigzag(netlist::no_module);
    w.str("named");
    w.varint(0);
    ByteReader r(w.bytes());
    EXPECT_THROW(decode_netlist(r), CodecError);
  }
  {  // Node module out of range.
    ByteWriter w;
    w.varint(1);
    w.str("m");
    w.varint(1);
    w.u8(static_cast<std::uint8_t>(netlist::GateType::Input));
    w.zigzag(3);
    w.str("i");
    w.varint(0);
    ByteReader r(w.bytes());
    EXPECT_THROW(decode_netlist(r), CodecError);
  }
  {  // Fanin count far beyond the remaining bytes: rejected before it
     // sizes an allocation.
    ByteWriter w;
    w.varint(0);
    w.varint(1);
    w.u8(static_cast<std::uint8_t>(netlist::GateType::And));
    w.zigzag(netlist::no_module);
    w.str("");
    w.varint(1ull << 32);
    ByteReader r(w.bytes());
    EXPECT_THROW(decode_netlist(r), CodecError);
  }
}

// -------------------------------------------------------------------- rsn

rsn::Rsn example_rsn() {
  rsn::Rsn net("example");
  rsn::ElemId r1 = net.add_register("r1", 2, 0);
  rsn::ElemId r2 = net.add_register("r2", 1);
  rsn::ElemId m = net.add_mux("m", 3);
  rsn::ElemId buf = net.add_mux("buf", 2);
  net.remove_mux_input(buf, 1);  // degenerate 1-input mux
  net.connect(net.scan_in(), r1, 0);
  net.connect(r1, m, 0);
  net.connect(net.scan_in(), r2, 0);
  net.connect(r2, m, 1);  // mux port 2 stays dangling
  net.connect(m, buf, 0);
  net.connect(buf, net.scan_out(), 0);
  net.set_mux_select(m, 1);
  net.set_capture(r1, 0, 5);
  net.set_update(r1, 1, 7);
  return net;
}

TEST(RsnCodec, RoundTripIsCanonical) {
  rsn::Rsn net = example_rsn();
  ByteWriter w;
  encode_rsn(w, net);
  ByteReader r(w.bytes());
  rsn::Rsn decoded = decode_rsn(r);
  r.expect_end();

  ASSERT_EQ(decoded.num_elements(), net.num_elements());
  EXPECT_EQ(decoded.name(), "example");
  EXPECT_EQ(decoded.registers(), net.registers());
  EXPECT_EQ(decoded.muxes(), net.muxes());
  rsn::ElemId m = net.muxes()[0];
  EXPECT_EQ(decoded.mux_select(m), 1u);
  EXPECT_EQ(decoded.elem(m).inputs[2], rsn::no_elem);  // dangling port
  EXPECT_EQ(decoded.elem(net.muxes()[1]).inputs.size(), 1u);
  rsn::ElemId r1 = net.registers()[0];
  EXPECT_EQ(decoded.elem(r1).module, 0);
  EXPECT_EQ(decoded.elem(r1).ffs[0].capture_src, 5u);
  EXPECT_EQ(decoded.elem(r1).ffs[1].update_dst, 7u);

  ByteWriter w2;
  encode_rsn(w2, decoded);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

TEST(RsnCodec, EveryTruncationThrowsCodecError) {
  ByteWriter w;
  encode_rsn(w, example_rsn());
  const std::string& full = w.bytes();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::string prefix = full.substr(0, cut);  // keep the view's storage alive
    ByteReader r(prefix);
    EXPECT_THROW(
        {
          decode_rsn(r);
          r.expect_end();
        },
        CodecError)
        << "prefix length " << cut;
  }
}

TEST(RsnCodec, SingleByteCorruptionNeverCrashes) {
  ByteWriter w;
  encode_rsn(w, example_rsn());
  const std::string full = w.bytes();
  for (std::size_t i = 0; i < full.size(); ++i) {
    for (unsigned char delta : {0x01, 0x80, 0xff}) {
      std::string mutated = full;
      mutated[i] = static_cast<char>(
          static_cast<unsigned char>(mutated[i]) ^ delta);
      ByteReader r(mutated);
      try {
        rsn::Rsn decoded = decode_rsn(r);
        r.expect_end();
        // A surviving mutation must still be a structurally coherent
        // network (it was built through the Rsn API).
        EXPECT_GE(decoded.num_elements(), 2u);
      } catch (const CodecError&) {
        // Expected for most mutations.
      }
    }
  }
}

TEST(RsnCodec, RejectsHostileStructures) {
  {  // No scan ports at all.
    ByteWriter w;
    w.str("x");
    w.varint(1);
    ByteReader r(w.bytes());
    EXPECT_THROW(decode_rsn(r), CodecError);
  }
  {  // Element 0 is not the scan-in port.
    ByteWriter w;
    w.str("x");
    w.varint(2);
    w.u8(static_cast<std::uint8_t>(rsn::ElemKind::Register));
    ByteReader r(w.bytes());
    EXPECT_THROW(decode_rsn(r), CodecError);
  }
  {  // Element count far beyond the remaining bytes: rejected before it
     // sizes an allocation.
    ByteWriter w;
    w.str("x");
    w.varint(1ull << 32);
    w.u8(static_cast<std::uint8_t>(rsn::ElemKind::ScanIn));
    ByteReader r(w.bytes());
    EXPECT_THROW(decode_rsn(r), CodecError);
  }
}

}  // namespace
}  // namespace rsnsec::store
