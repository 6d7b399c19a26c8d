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
//
// Replication (§VI.D) is a property of the Target a protocol addresses, not
// a second API: writes go through mirror() and reads through failover(),
// which walk Target::holders. One holder — a lone server or a sharded
// group's owner shard — returns that call's own typed error.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <type_traits>

#include "src/core/cluster.h"  // Target::holders over either group
#include "src/obs/metrics.h"
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

/// Write mirror: `req` sent to every holder; the value is how many applied
/// it. Several holders fail with kRejected if any refused, otherwise
/// kUnreachable, attempts summed.
template <class Req>
Result<size_t> mirror(sim::Network& net, const std::string& from,
                      const std::vector<SServer*>& holders, const Req& req,
                      std::string_view what) {
  if (holders.size() == 1) {
    Result<void> r = call(net, from, *holders.front(), req, what);
    if (!r.ok()) return r.error();
    return size_t{1};
  }
  size_t applied = 0;
  bool any_rejected = false;
  uint32_t attempts = 0;
  for (SServer* server : holders) {
    Result<void> r = call(net, from, *server, req, what);
    if (r.ok()) {
      ++applied;
      obs::count(obs::kSGroupMirrorWrites);
    } else {
      attempts += r.error().attempts;
      any_rejected |= !r.error().transient();
    }
  }
  if (applied > 0) return applied;
  if (any_rejected) {
    return permanent_error(ErrorCode::kRejected, attempts,
                           "every replica refused the " + std::string(what));
  }
  return transient_error(ErrorCode::kUnreachable, attempts,
                         "no replica reachable for the " + std::string(what));
}

/// Read failover: `attempt` on each holder in turn. A transient failure
/// moves on to the next (counted under `counter`); an answer or a permanent
/// refusal ends the walk. Several holders all failing is kUnreachable with
/// the attempts summed.
template <class Server, class Attempt>
auto failover(const std::vector<Server*>& holders, const char* counter,
              std::string_view what, Attempt&& attempt)
    -> decltype(attempt(*holders.front())) {
  if (holders.size() == 1) return attempt(*holders.front());
  uint32_t attempts = 0;
  for (Server* server : holders) {
    auto r = attempt(*server);
    if (r.ok() || !r.error().transient()) return r;
    attempts += r.error().attempts;
    obs::count(counter);
  }
  return transient_error(ErrorCode::kUnreachable, attempts,
                         "no replica answered the " + std::string(what));
}

}  // namespace hcpp::core
