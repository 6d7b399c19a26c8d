// Tor-style onion routing overlay (§VI.B countermeasure, substituting a
// from-scratch 3-hop circuit for the real Tor network). The client wraps the
// request in one AEAD layer per relay; each relay learns only its adjacent
// hops. Hop keys are delivered in per-relay IBE headers, so relays need no
// prior state. Relay observations are recorded so the anonymity benchmark
// (E6) can measure exactly what each vantage point links.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/ibc/ibe.h"
#include "src/sim/network.h"

namespace hcpp::sim {

/// What one relay could log: the (previous hop, next hop) pairs it forwarded.
struct RelayObservation {
  std::string relay;
  std::vector<std::pair<std::string, std::string>> forwarded;
};

class OnionNetwork {
 public:
  /// Creates `n_relays` relays keyed in the given IBC domain (the A-server's
  /// domain in HCPP deployments).
  OnionNetwork(Network& net, const ibc::Domain& domain, size_t n_relays);

  /// Routes `request` from `src` to the service `dst` through a fresh
  /// `hops`-relay circuit and routes the response back along it. The service
  /// observes only the exit relay as the origin.
  Bytes round_trip(const std::string& src, const std::string& dst,
                   BytesView request,
                   const std::function<Bytes(BytesView)>& service,
                   RandomSource& rng, size_t hops = 3);

  [[nodiscard]] const std::vector<RelayObservation>& observations()
      const noexcept {
    return observations_;
  }
  /// The origin name the destination service saw on the last round trip.
  [[nodiscard]] const std::string& last_origin_seen() const noexcept {
    return last_origin_seen_;
  }
  void clear_observations();

 private:
  struct Relay {
    std::string name;
    curve::Point private_key;  // Γ_relay
  };

  Network* net_;
  const curve::CurveCtx* ctx_;
  ibc::PublicParams pub_;
  std::vector<Relay> relays_;
  std::vector<RelayObservation> observations_;
  std::string last_origin_seen_;
};

}  // namespace hcpp::sim
