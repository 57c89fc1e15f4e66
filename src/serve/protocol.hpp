#pragma once

// Wire protocol of `rsnsec serve`: line-delimited JSON over a stream
// socket. One request per \n-terminated line, one JSON reply line per
// request (replies carry the request id, so pipelined requests on one
// connection may be answered out of order as the scheduler finishes
// them). Malformed input never crashes the daemon — every failure mode
// maps to a stable SRV code:
//
//   SRV001  malformed frame (not valid JSON / not an object)
//   SRV002  oversize request (line longer than --max-request-bytes)
//   SRV003  unknown command
//   SRV004  bad or missing field / unparsable payload
//   SRV005  server busy (admission queue full) — carries retry_after_ms
//   SRV006  shutting down (drain in progress, no new work accepted)
//   SRV007  internal error while executing the request
//
// Payloads (network, circuit, specification) travel inline as strings
// in the repo's own text formats (.rsn / structural Verilog / .spec),
// so the daemon never touches the client's filesystem.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace rsnsec::serve {

enum class ServeCode : std::uint8_t {
  Ok = 0,
  MalformedFrame = 1,  // SRV001
  Oversize = 2,        // SRV002
  UnknownCommand = 3,  // SRV003
  BadField = 4,        // SRV004
  Busy = 5,            // SRV005
  ShuttingDown = 6,    // SRV006
  Internal = 7,        // SRV007
};

/// Stable wire spelling ("SRV001"...); "OK" for ServeCode::Ok.
const char* serve_code_name(ServeCode code);

/// Commands the daemon executes.
enum class Command : std::uint8_t {
  Ping,
  Analyze,
  Secure,
  Certify,
  Attack,
  StoreStats,
  Stats,
  Shutdown,
};

const char* command_name(Command c);

/// One parsed request.
struct Request {
  Command command = Command::Ping;
  /// Echoed verbatim in the reply ("" = client sent none; echoed as
  /// null). Correlation is the client's job — the server never
  /// interprets ids.
  std::string id;
  /// Fair-share scheduling key; requests without a tenant share the
  /// "default" bucket.
  std::string tenant = "default";

  /// Inline design payloads (analyze / secure / certify).
  std::string rsn;
  std::string verilog;
  std::string spec;

  /// Attack request parameters.
  std::string benchmark;
  std::uint64_t seed = 1;

  /// Analysis options (subset of the CLI's flags). no_ternary is valid
  /// for certify only; analyze / secure requests carrying it are
  /// rejected with BadField.
  bool structural = false;
  bool no_ternary = false;
  bool verify = false;
};

/// Outcome of parsing one frame: a request, or an SRV error to reply
/// with. `code == Ok` iff `request` is set.
struct ParseOutcome {
  std::optional<Request> request;
  ServeCode code = ServeCode::Ok;
  std::string message;

  bool ok() const { return request.has_value(); }
};

/// Parses one frame (the line text, without the terminator). Never
/// throws: hostile bytes come back as MalformedFrame / UnknownCommand /
/// BadField outcomes.
ParseOutcome parse_request(std::string_view line);

/// Reply rendering. Every reply is exactly one line ending in '\n'.
/// `result_json` / `server_json` must be well-formed JSON values (the
/// callers emit them with the same escaped writers the reports use).
std::string ok_reply(const std::string& id, std::string_view result_json,
                     std::string_view server_json = {});
std::string error_reply(const std::string& id, ServeCode code,
                        const std::string& message,
                        std::uint64_t retry_after_ms = 0);

}  // namespace rsnsec::serve
