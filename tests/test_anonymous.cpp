// §VI.B integration: the storage/retrieval protocols carried over the
// onion-routing overlay. Functional equivalence, origin hiding, and the
// end-to-end MAC surviving the overlay.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/setup.h"
#include "src/sim/onion.h"

namespace hcpp::core {
namespace {

struct AnonFixture {
  Deployment d;
  sim::OnionNetwork onion;
  explicit AnonFixture(uint64_t seed)
      : d(Deployment::create([seed] {
          DeploymentConfig cfg;
          cfg.n_phi_files = 10;
          cfg.seed = seed;
          cfg.store_phi = false;
          cfg.assign_privileges = false;
          return cfg;
        }())),
        onion(*d.net, d.aserver->domain(), 6) {}
};

TEST(Anonymous, StorageThroughOnionSucceeds) {
  AnonFixture f(70);
  EXPECT_TRUE(f.d.patient->store_phi_anonymous(*f.d.sserver, f.onion));
  EXPECT_EQ(f.d.sserver->account_count(), 1u);
}

TEST(Anonymous, RetrievalThroughOnionMatchesDirect) {
  AnonFixture f(71);
  ASSERT_TRUE(f.d.patient->store_phi_anonymous(*f.d.sserver, f.onion));
  for (const auto& [kw, expected] : f.d.patient->keyword_index().entries) {
    std::vector<std::string> kws = {kw};
    std::vector<sse::PlainFile> via_onion =
        f.d.patient->retrieve_anonymous(*f.d.sserver, f.onion, kws);
    std::vector<sse::PlainFile> direct =
        f.d.patient->try_retrieve(*f.d.sserver, kws).value_or({});
    EXPECT_EQ(via_onion.size(), direct.size()) << kw;
  }
}

TEST(Anonymous, ServerNeverSeesThePatientAsOrigin) {
  AnonFixture f(72);
  ASSERT_TRUE(f.d.patient->store_phi_anonymous(*f.d.sserver, f.onion));
  EXPECT_NE(f.onion.last_origin_seen(), f.d.patient->name());
  std::vector<std::string> kws = {f.d.all_keywords().front()};
  (void)f.d.patient->retrieve_anonymous(*f.d.sserver, f.onion, kws);
  EXPECT_NE(f.onion.last_origin_seen(), f.d.patient->name());
  // And no single relay linked patient to server.
  for (const sim::RelayObservation& obs : f.onion.observations()) {
    for (const auto& [prev, next] : obs.forwarded) {
      EXPECT_FALSE(prev == f.d.patient->name() &&
                   next == f.d.sserver->id());
    }
  }
}

TEST(Anonymous, MacStillEndToEnd) {
  // A malicious exit relay cannot substitute its own response: the HMAC_ν
  // on the response is keyed end-to-end.
  AnonFixture f(73);
  ASSERT_TRUE(f.d.patient->store_phi_anonymous(*f.d.sserver, f.onion));
  std::vector<std::string> kws = {f.d.all_keywords().front()};
  // Simulate the substitution by a wrapper server function: route through a
  // service that mangles the response.
  RetrieveRequest probe;
  probe.tp = f.d.patient->tp_bytes();
  probe.collection = f.d.patient->collection();
  probe.trapdoors.push_back(
      sse::make_trapdoor(f.d.patient->keys(), kws[0]).to_bytes());
  probe.t = f.d.net->clock().now();
  probe.mac = protocol_mac(f.d.patient->shared_key_nu(), "phi-retrieval",
                           probe.body(), probe.t);
  auto resp = f.d.sserver->handle_retrieve(probe);
  ASSERT_TRUE(resp.has_value());
  RetrieveResponse forged = *resp;
  // Exit relay injects a bogus record while keeping the server's MAC.
  forged.files.emplace_back(999, to_bytes("poison"));
  EXPECT_FALSE(protocol_mac_ok(f.d.patient->shared_key_nu(), "phi-retrieval",
                               forged.body(), forged.t, forged.mac));
}

TEST(Anonymous, WireCodecsRoundTrip) {
  AnonFixture f(74);
  RetrieveRequest req;
  req.tp = to_bytes("tp");
  req.collection = "c";
  req.trapdoors = {to_bytes("td1"), to_bytes("td2")};
  req.t = 42;
  req.mac = Bytes(32, 9);
  RetrieveRequest back = RetrieveRequest::from_wire(req.to_wire());
  EXPECT_EQ(back.tp, req.tp);
  EXPECT_EQ(back.collection, req.collection);
  EXPECT_EQ(back.trapdoors, req.trapdoors);
  EXPECT_EQ(back.t, req.t);
  EXPECT_EQ(back.mac, req.mac);
  EXPECT_EQ(back.body(), req.body());

  RetrieveResponse resp;
  resp.files = {{1, to_bytes("a")}, {9, to_bytes("b")}};
  resp.t = 7;
  resp.mac = Bytes(32, 1);
  RetrieveResponse rback = RetrieveResponse::from_wire(resp.to_wire());
  EXPECT_EQ(rback.files, resp.files);
  EXPECT_EQ(rback.body(), resp.body());

  StoreRequest sr;
  sr.tp = to_bytes("tp");
  sr.collection = "c";
  sr.index = to_bytes("idx");
  sr.files = to_bytes("files");
  sr.d = to_bytes("d");
  sr.be_blob = to_bytes("be");
  sr.t = 3;
  sr.mac = Bytes(32, 2);
  StoreRequest sback = StoreRequest::from_wire(sr.to_wire());
  EXPECT_EQ(sback.body(), sr.body());
  EXPECT_EQ(sback.t, sr.t);
  EXPECT_EQ(sback.mac, sr.mac);
}

TEST(Anonymous, OnionTrafficAccounted) {
  AnonFixture f(75);
  f.d.net->reset_stats();
  ASSERT_TRUE(f.d.patient->store_phi_anonymous(*f.d.sserver, f.onion));
  EXPECT_GT(f.d.net->stats("onion").messages, 0u);
  // The direct phi-storage label stays untouched — the overlay carried it.
  EXPECT_EQ(f.d.net->stats("phi-storage").messages, 0u);
}

}  // namespace
}  // namespace hcpp::core
