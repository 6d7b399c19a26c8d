// The client half of the wire seam (DESIGN.md §5). Every client exchange
// goes through call(): the request crosses the retrying transport, the
// delivery status becomes a typed ProtocolError in one place, and a delivered
// reply is vetted before the caller sees it.
//
// S-server exchanges are bytes end to end: call() encodes the request once,
// SServer::dispatch parses it strictly, runs the handler and returns the
// encoded reply, which call() parses and MAC-checks. The two A-server
// exchanges stay typed and in-process (§IV.E.2 step 3 fans one request out
// to the physician and the P-device) but share the same status mapping.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <type_traits>

#include "src/core/entities.h"
#include "src/sim/onion.h"
#include "src/sim/transport.h"

namespace hcpp::core {

/// Delivery status → typed error. A delivered reply goes through `open`,
/// which returns the caller's value or nullopt (→ permanent kBadResponse).
template <class Resp, class Reply, class Open>
Result<Resp> settle(sim::CallOutcome<Reply>& out, std::string_view what,
                    Open&& open) {
  const std::string w(what);
  switch (out.status) {
    case sim::CallStatus::kOk:
      if constexpr (std::is_void_v<Resp>) {
        return {};
      } else {
        if (std::optional<Resp> v = open(*out.response)) return std::move(*v);
        return permanent_error(ErrorCode::kBadResponse, out.attempts,
                               w + " response failed authentication");
      }
    case sim::CallStatus::kRejected:
      return permanent_error(ErrorCode::kRejected, out.attempts,
                             "server refused the " + w);
    case sim::CallStatus::kExhausted:
    default:
      return transient_error(ErrorCode::kTimeout, out.attempts,
                             w + " undelivered after retries");
  }
}

/// One exchange over the retrying transport: `request_bytes` up under
/// idempotency key `key`, `handler` run server-side at most once, the reply
/// charged `reply_bytes` on the way back. `attempts`, if given, accumulates
/// the transport attempts spent.
template <class Resp, class Reply, class Open>
Result<Resp> call(sim::Network& net, const std::string& from,
                  const std::string& to, size_t request_bytes, BytesView key,
                  std::string_view protocol,
                  const std::function<std::optional<Reply>()>& handler,
                  const std::function<size_t(const Reply&)>& reply_bytes,
                  std::string_view what, Open&& open,
                  uint32_t* attempts = nullptr) {
  sim::CallOutcome<Reply> out = net.transport().request<Reply>(
      from, to, request_bytes, key, std::string(protocol), handler,
      reply_bytes);
  if (attempts != nullptr) *attempts += out.attempts;
  return settle<Resp>(out, what, std::forward<Open>(open));
}

/// The reply to a `Req`, parsed strictly and MAC-checked under `key`.
template <class Resp, class Req>
std::optional<Resp> open_reply(const Bytes& reply, BytesView key) {
  try {
    Resp resp = Resp::from_wire(reply);
    if (protocol_mac_ok(key, Req::kLabel, resp.body(), resp.t, resp.mac)) {
      return resp;
    }
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

/// One S-server exchange: only `req.to_wire()` crosses, to
/// SServer::dispatch. Resp = void for a bare acknowledgement (empty reply,
/// uncharged); otherwise the reply is checked under `key`.
template <class Resp = void, class Req>
Result<Resp> call(sim::Network& net, const std::string& from, SServer& server,
                  const Req& req, std::string_view what, BytesView key = {},
                  uint32_t* attempts = nullptr) {
  const Bytes wire = req.to_wire();
  return call<Resp, Bytes>(
      net, from, server.id(), wire.size(), req.mac, Req::kLabel,
      [&] { return server.dispatch(Req::kLabel, wire); },
      [](const Bytes& reply) { return reply.size(); }, what,
      [key](const auto& reply) { return open_reply<Resp, Req>(reply, key); },
      attempts);
}

/// The same exchange over the §VI.B onion overlay, which carries bytes but
/// no status: the exit side prefixes the reply with 1 (accepted) or sends a
/// lone 0 (refused).
template <class Resp = void, class Req>
Result<Resp> call(sim::OnionNetwork& onion, RandomSource& rng,
                  const std::string& from, SServer& server, const Req& req,
                  std::string_view what, BytesView key = {}) {
  Bytes reply = onion.round_trip(
      from, server.id(), req.to_wire(),
      [&server](BytesView wire) {
        std::optional<Bytes> r = server.dispatch(Req::kLabel, wire);
        if (!r.has_value()) return Bytes{0};
        r->insert(r->begin(), 1);
        return std::move(*r);
      },
      rng);
  sim::CallOutcome<Bytes> out{sim::CallStatus::kRejected, std::nullopt, 1};
  if (!reply.empty() && reply[0] == 1) {
    out = {sim::CallStatus::kOk, Bytes(reply.begin() + 1, reply.end()), 1};
  }
  return settle<Resp>(out, what, [key](const auto& r) {
    return open_reply<Resp, Req>(r, key);
  });
}

}  // namespace hcpp::core
