// Network simulator: accounting, latency, replay window; onion overlay
// unlinkability; randomized upload scheduler.
#include <gtest/gtest.h>

#include "src/cipher/drbg.h"
#include "src/ibc/domain.h"
#include "src/sim/network.h"
#include "src/sim/onion.h"
#include "study/sim/scheduler.h"

namespace hcpp::sim {
namespace {

TEST(Network, TracksPerProtocolStats) {
  Network net;
  net.transmit("a", "b", 100, "proto-1");
  net.transmit("a", "b", 50, "proto-1");
  net.transmit("b", "a", 10, "proto-2");
  EXPECT_EQ(net.stats("proto-1").messages, 2u);
  EXPECT_EQ(net.stats("proto-1").bytes, 150u);
  EXPECT_EQ(net.stats("proto-2").messages, 1u);
  EXPECT_EQ(net.total().bytes, 160u);
  EXPECT_EQ(net.stats("absent").messages, 0u);
  net.reset_stats();
  EXPECT_EQ(net.total().messages, 0u);
}

TEST(Network, LatencyAdvancesClock) {
  Network net;
  net.set_default_link({.base_latency_ns = 1'000'000, .per_byte_ns = 10.0});
  uint64_t before = net.clock().now();
  net.transmit("a", "b", 1000, "p");
  EXPECT_EQ(net.clock().now(), before + 1'000'000 + 10'000);
}

TEST(Network, PerLinkModelOverridesDefault) {
  Network net;
  net.set_default_link({.base_latency_ns = 1'000'000, .per_byte_ns = 0});
  net.set_link("a", "b", {.base_latency_ns = 5'000'000, .per_byte_ns = 0});
  uint64_t t0 = net.clock().now();
  net.transmit("a", "b", 0, "p");
  EXPECT_EQ(net.clock().now(), t0 + 5'000'000);
  net.transmit("b", "a", 0, "p");  // unconfigured direction: default
  EXPECT_EQ(net.clock().now(), t0 + 6'000'000);
}

TEST(Network, ReplayGuardAcceptsFreshRejectsReplayAndStale) {
  Network net;
  Bytes tag = to_bytes("mac-bytes");
  uint64_t now = net.clock().now();
  EXPECT_TRUE(net.accept_fresh("server", tag, now, 1'000'000'000));
  // Identical tag again: replay.
  EXPECT_FALSE(net.accept_fresh("server", tag, now, 1'000'000'000));
  // Different receiver keeps its own cache.
  EXPECT_TRUE(net.accept_fresh("other", tag, now, 1'000'000'000));
  // Stale timestamp rejected outright.
  EXPECT_FALSE(net.accept_fresh("server", to_bytes("t2"), 0, 1'000));
  // Future beyond the window rejected too.
  EXPECT_FALSE(net.accept_fresh("server", to_bytes("t3"),
                                now + 10'000'000'000ull, 1'000'000'000));
}

TEST(Scheduler, DelaysWithinConfiguredRange) {
  cipher::Drbg rng(to_bytes("sched"));
  UploadScheduler sched(rng, 100, 200);
  for (int i = 0; i < 200; ++i) {
    uint64_t up = sched.schedule(1000);
    EXPECT_GE(up, 1100u);
    EXPECT_LE(up, 1200u);
  }
  EXPECT_THROW(UploadScheduler(rng, 10, 5), std::invalid_argument);
}

TEST(Scheduler, RandomizationBreaksCorrelation) {
  // E6's timing-analysis claim in miniature: with no jitter the upload time
  // is perfectly correlated with the hospital-visit time; with a large
  // random delay the *residual* (upload - event) carries the correlation
  // down.
  cipher::Drbg rng(to_bytes("sched-corr"));
  cipher::Drbg event_rng(to_bytes("events"));
  std::vector<double> events, immediate, jittered;
  UploadScheduler sched(rng, 0, 3'600'000'000'000ull);  // up to 1 h
  for (int i = 0; i < 500; ++i) {
    double t = static_cast<double>(event_rng.u64() % 86'400'000'000'000ull);
    events.push_back(t);
    immediate.push_back(t + 1000);
    jittered.push_back(
        static_cast<double>(sched.schedule(static_cast<uint64_t>(t)) -
                            static_cast<uint64_t>(t)));
  }
  EXPECT_GT(pearson_correlation(events, immediate), 0.999);
  EXPECT_LT(std::abs(pearson_correlation(events, jittered)), 0.2);
}

TEST(Scheduler, PearsonEdgeCases) {
  EXPECT_THROW(pearson_correlation({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(pearson_correlation({1.0, 2.0}, {1.0}),
               std::invalid_argument);
  EXPECT_EQ(pearson_correlation({1.0, 1.0, 1.0}, {1.0, 2.0, 3.0}), 0.0);
}

class OnionTest : public ::testing::Test {
 protected:
  OnionTest()
      : ctx_(curve::params(curve::ParamSet::kTest)),
        rng_(to_bytes("onion-test")),
        domain_(ctx_, rng_),
        onion_(net_, domain_, 6) {}

  const curve::CurveCtx& ctx_;
  cipher::Drbg rng_;
  ibc::Domain domain_;
  Network net_;
  OnionNetwork onion_;
};

TEST_F(OnionTest, RoundTripDeliversRequestAndResponse) {
  Bytes request = to_bytes("store my encrypted PHI");
  Bytes observed_request;
  Bytes response = onion_.round_trip(
      "patient", "s-server", request,
      [&](BytesView req) {
        observed_request.assign(req.begin(), req.end());
        return to_bytes("ack");
      },
      rng_);
  EXPECT_EQ(observed_request, request);
  EXPECT_EQ(response, to_bytes("ack"));
}

TEST_F(OnionTest, DestinationSeesOnlyExitRelay) {
  (void)onion_.round_trip(
      "patient", "s-server", to_bytes("req"),
      [](BytesView) { return to_bytes("ok"); }, rng_);
  EXPECT_NE(onion_.last_origin_seen(), "patient");
  EXPECT_EQ(onion_.last_origin_seen().rfind("relay-", 0), 0u);
}

TEST_F(OnionTest, NoRelaySeesBothEndpoints) {
  (void)onion_.round_trip(
      "patient", "s-server", to_bytes("req"),
      [](BytesView) { return to_bytes("ok"); }, rng_);
  for (const RelayObservation& obs : onion_.observations()) {
    for (const auto& [prev, next] : obs.forwarded) {
      EXPECT_FALSE(prev == "patient" && next == "s-server")
          << "relay " << obs.relay << " linked both endpoints";
    }
  }
  // Exactly the 3 circuit relays forwarded something.
  size_t active = 0;
  for (const RelayObservation& obs : onion_.observations()) {
    if (!obs.forwarded.empty()) ++active;
  }
  EXPECT_EQ(active, 3u);
}

TEST_F(OnionTest, SingleHopStillHidesNothingButWorks) {
  onion_.clear_observations();
  Bytes resp = onion_.round_trip(
      "patient", "s-server", to_bytes("r"),
      [](BytesView) { return to_bytes("ok"); }, rng_, /*hops=*/1);
  EXPECT_EQ(resp, to_bytes("ok"));
  EXPECT_THROW(onion_.round_trip("p", "d", to_bytes("r"),
                                 [](BytesView) { return Bytes{}; }, rng_,
                                 /*hops=*/7),
               std::invalid_argument);
}

TEST_F(OnionTest, ChargesOnionTraffic) {
  net_.reset_stats();
  (void)onion_.round_trip(
      "patient", "s-server", to_bytes("req"),
      [](BytesView) { return to_bytes("ok"); }, rng_);
  // 3 hops: 4 forward legs + 4 return legs.
  EXPECT_EQ(net_.stats("onion").messages, 8u);
  EXPECT_GT(net_.stats("onion").bytes, 0u);
}

}  // namespace
}  // namespace hcpp::sim
