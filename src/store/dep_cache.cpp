#include "store/dep_cache.hpp"

#include "obs/trace.hpp"

namespace rsnsec::store {

namespace {

/// Versioned domain label: any change to the key recipe or the snapshot
/// payload format must bump this, so old blobs become unreachable rather
/// than mis-decoded.
constexpr std::string_view kDepKeyLabel = "rsnsec-dep-v5";

void encode_options_fingerprint(ByteWriter& w,
                                const dep::DepOptions& options) {
  w.u8(static_cast<std::uint8_t>(options.mode));
  w.u8(options.bridge_internal ? 1 : 0);
  w.zigzag(options.sim_rounds);
  w.varint(options.sat_conflict_limit);
  w.varint(options.max_cycles);
  w.varint(options.seed);
  // NOT num_threads: bit-identical at any thread count. NOT
  // tile_spill_budget / spill_backend: pure execution knobs — the
  // snapshot is always fully resident.
}

void encode_bits(ByteWriter& w, const std::vector<bool>& bits) {
  w.varint(bits.size());
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) word |= 1ULL << (i & 63);
    if ((i & 63) == 63) {
      w.fixed64(word);
      word = 0;
    }
  }
  if (bits.size() % 64 != 0) w.fixed64(word);
}

std::vector<bool> decode_bits(ByteReader& r) {
  std::uint64_t n = r.varint();
  // Every started 64-bit word is 8 payload bytes.
  if (n > (1ull << 32) || (n + 63) / 64 > r.remaining() / 8)
    throw CodecError("bit vector length out of range");
  std::vector<bool> bits(static_cast<std::size_t>(n));
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if ((i & 63) == 0) word = r.fixed64();
    bits[i] = (word >> (i & 63)) & 1;
  }
  if (n % 64 != 0 && (word >> (n % 64)) != 0)
    throw CodecError("bit vector tail bits set");
  return bits;
}

void encode_stats(ByteWriter& w, const dep::DepStats& s) {
  // Logical result fields only: the wall-clock fields and threads_used
  // describe the run that produced the snapshot, not the result, and
  // restore() zeroes them regardless.
  w.varint(s.circuit_ffs);
  w.varint(s.internal_ffs);
  w.varint(s.denoted_ffs_before);
  w.varint(s.denoted_ffs_after);
  w.varint(s.deps_before_bridging);
  w.varint(s.deps_after_bridging);
  w.varint(s.closure_deps);
  w.varint(s.closure_path_deps);
  w.varint(s.sim_resolved);
  w.varint(s.ternary_resolved);
  w.varint(s.sat_calls);
  w.varint(s.sat_functional);
  w.varint(s.sat_structural);
  w.varint(s.sat_unknown);
  w.varint(s.cone_cache_hits);
  w.varint(s.solver_solves);
  w.varint(s.solver_conflicts);
  w.varint(s.solver_decisions);
  w.varint(s.solver_propagations);
  w.varint(s.solver_restarts);
  w.varint(s.solver_learned);
  w.varint(s.lbd_protected);
  w.varint(s.inprocessing_rounds);
  w.varint(s.cores_reused);
  w.varint(s.rotation_witnesses);
  w.varint(s.shared_clauses);
  // Partition region count (restore() recomputes it anyway and prefers
  // the live value; encoded for payload self-containedness). The
  // footprint fields (matrix_bytes, tiles_*) are intentionally absent:
  // they describe the producing process, not the result, and restore()
  // refreshes them from the restored matrices.
  w.varint(s.regions);
}

dep::DepStats decode_stats(ByteReader& r) {
  dep::DepStats s;
  s.circuit_ffs = static_cast<std::size_t>(r.varint());
  s.internal_ffs = static_cast<std::size_t>(r.varint());
  s.denoted_ffs_before = static_cast<std::size_t>(r.varint());
  s.denoted_ffs_after = static_cast<std::size_t>(r.varint());
  s.deps_before_bridging = static_cast<std::size_t>(r.varint());
  s.deps_after_bridging = static_cast<std::size_t>(r.varint());
  s.closure_deps = static_cast<std::size_t>(r.varint());
  s.closure_path_deps = static_cast<std::size_t>(r.varint());
  s.sim_resolved = r.varint();
  s.ternary_resolved = r.varint();
  s.sat_calls = r.varint();
  s.sat_functional = r.varint();
  s.sat_structural = r.varint();
  s.sat_unknown = r.varint();
  s.cone_cache_hits = r.varint();
  s.solver_solves = r.varint();
  s.solver_conflicts = r.varint();
  s.solver_decisions = r.varint();
  s.solver_propagations = r.varint();
  s.solver_restarts = r.varint();
  s.solver_learned = r.varint();
  s.lbd_protected = r.varint();
  s.inprocessing_rounds = r.varint();
  s.cores_reused = r.varint();
  s.rotation_witnesses = r.varint();
  s.shared_clauses = r.varint();
  s.regions = static_cast<std::size_t>(r.varint());
  return s;
}

}  // namespace

std::string dep_cache_key(const netlist::Netlist& nl, const rsn::Rsn& network,
                          const dep::DepOptions& options) {
  ByteWriter w;
  w.str(kDepKeyLabel);
  ByteWriter nl_bytes;
  encode_netlist(nl_bytes, nl);
  w.section(nl_bytes);
  ByteWriter rsn_bytes;
  encode_rsn(rsn_bytes, network);
  w.section(rsn_bytes);
  ByteWriter opt_bytes;
  encode_options_fingerprint(opt_bytes, options);
  w.section(opt_bytes);
  return Sha256::hex(w.bytes());
}

void encode_dep_snapshot(ByteWriter& w,
                         const dep::DependencyAnalyzer::AnalysisSnapshot& s) {
  encode_bits(w, s.internal);
  // Only the non-zero tiles are stored — on sparse large-scale matrices
  // the blob shrinks by the same factor as RAM.
  ByteWriter one_cycle;
  encode_tiled_matrix(one_cycle, s.one_cycle);
  w.section(one_cycle);
  ByteWriter closure;
  encode_tiled_matrix(closure, s.closure);
  w.section(closure);
  w.varint(s.capture_deps.size());
  for (const auto& reg : s.capture_deps) {
    w.varint(reg.size());
    for (const auto& deps : reg) {
      w.varint(deps.size());
      for (const dep::CaptureDep& d : deps) {
        w.varint(d.circuit_ff);
        w.u8(static_cast<std::uint8_t>(d.kind));
      }
    }
  }
  encode_stats(w, s.stats);
}

dep::DependencyAnalyzer::AnalysisSnapshot decode_dep_snapshot(ByteReader& r) {
  dep::DependencyAnalyzer::AnalysisSnapshot s;
  s.internal = decode_bits(r);
  ByteReader sec = r.section();
  s.one_cycle = decode_tiled_matrix(sec);
  sec.expect_end();
  ByteReader sec2 = r.section();
  s.closure = decode_tiled_matrix(sec2);
  sec2.expect_end();
  // Every register and scan FF costs at least one payload byte (its
  // count), every capture dependency two (node id and kind), so larger
  // counts are malformed — rejected before they size an allocation.
  std::uint64_t num_regs = r.varint();
  if (num_regs > (1ull << 24) || num_regs > r.remaining())
    throw CodecError("register count out of range");
  s.capture_deps.resize(static_cast<std::size_t>(num_regs));
  for (auto& reg : s.capture_deps) {
    std::uint64_t num_ffs = r.varint();
    if (num_ffs > (1ull << 24) || num_ffs > r.remaining())
      throw CodecError("scan FF count out of range");
    reg.resize(static_cast<std::size_t>(num_ffs));
    for (auto& deps : reg) {
      std::uint64_t n = r.varint();
      if (n > (1ull << 24) || n > r.remaining() / 2)
        throw CodecError("capture dependency count out of range");
      deps.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t ff = r.varint();
        if (ff >= netlist::no_node)
          throw CodecError("capture dependency node id out of range");
        std::uint8_t kind = r.u8();
        if (kind == 0 || kind > static_cast<std::uint8_t>(DepKind::Path))
          throw CodecError("capture dependency kind out of range");
        deps.push_back({static_cast<netlist::NodeId>(ff),
                        static_cast<DepKind>(kind)});
      }
    }
  }
  s.stats = decode_stats(r);
  return s;
}

bool run_with_store(ArtifactStore* store,
                    dep::DependencyAnalyzer& analyzer) {
  if (store == nullptr) {
    analyzer.run();
    return false;
  }
  obs::TraceSession* trace = obs::TraceSession::active();
  std::string key;
  {
    obs::Span span(trace, "store.key");
    key = dep_cache_key(analyzer.circuit(), analyzer.network(),
                        analyzer.options());
  }
  {
    obs::Span span(trace, "store.load");
    if (std::optional<std::string> payload = store->load(key)) {
      bool restored = false;
      try {
        ByteReader r(*payload);
        dep::DependencyAnalyzer::AnalysisSnapshot snap =
            decode_dep_snapshot(r);
        r.expect_end();
        restored = analyzer.restore(std::move(snap), nullptr);
      } catch (const CodecError&) {
        restored = false;
      }
      if (restored) {
        store->note_hit();
        return true;
      }
      // Valid envelope, un-replayable payload (hand-edited blob or a
      // hash collision — practically the former): drop it and recompute.
      store->discard(key);
    }
  }
  analyzer.run();
  store->note_miss();
  {
    obs::Span span(trace, "store.publish");
    ByteWriter w;
    encode_dep_snapshot(w, analyzer.snapshot());
    try {
      store->put(key, w.bytes());
    } catch (const std::exception&) {
      // Publication failure (read-only store, disk full) must not fail
      // the analysis itself; the next process simply recomputes.
    }
  }
  return false;
}

}  // namespace rsnsec::store
