// Client-facing protocol of the register service.
//
// The server speaks the same length-prefixed frame format as the ABD
// fleet (net/real/wire.h) — one 29-byte payload per message — with the
// client vocabulary types 7..12. A request carries the client's logical
// id in `src` (how the front transport learns which connection to
// answer on) and a per-client op sequence number in `op` (echoed in the
// response, so a client that timed out an op can recognize and discard
// — or mine — a straggler response). Responses:
//
//   kWriteOk          ts = server-assigned write timestamp
//   kReadOk           (ts, val) = the collected register state
//   kUnavailableResp  the fleet-side retry budget was spent; for writes
//                     ts still carries the assigned timestamp, because
//                     the write may yet take effect (the client must
//                     record it pending, exactly like RealAbdClient's
//                     own Unavailable writes)
//   kBusyResp         rejected before any fleet traffic for the op
//                     (admission overflow, or a write before the
//                     timestamp sequence could be seeded); it has no
//                     timestamp and no effect
#pragma once

#include <cstdint>

#include "net/real/wire.h"

namespace compreg::server {

enum class Status : std::uint8_t { kOk, kUnavailable, kBusy };

struct Request {
  bool is_write = false;
  std::uint32_t client = 0;  // client logical id (frame src)
  std::uint64_t op = 0;      // client op sequence number
  std::uint64_t val = 0;     // write payload
};

// Decodes a client request frame; false for non-request types.
bool decode_request(const net::real::WireMsg& msg, Request& out);

// Builds the response frame for `req` (src = the server's node id).
net::real::WireMsg make_response(std::uint32_t self, const Request& req,
                                 Status status, std::uint64_t ts,
                                 std::uint64_t val);

// Builds a request frame (client side).
net::real::WireMsg make_write_req(std::uint32_t client, std::uint64_t op,
                                  std::uint64_t val);
net::real::WireMsg make_read_req(std::uint32_t client, std::uint64_t op);

}  // namespace compreg::server
