// Streaming MHI pipeline (DESIGN.md §13): the standing-query hub, the
// per-epoch amortized ingestor, epoch rollover, and the register/stream/
// fetch-hits protocol end to end.
#include <gtest/gtest.h>

#include "src/core/mhi_stream.h"
#include "src/core/setup.h"
#include "src/obs/metrics.h"
#include "src/par/pool.h"

namespace hcpp::core {
namespace {

const curve::CurveCtx& ctx() { return curve::params(curve::ParamSet::kTest); }

constexpr const char* kRole = "2011-04-12|emergency|gainesville";
constexpr const char* kNextRole = "2011-04-13|emergency|gainesville";

struct HubSetup {
  ibc::Domain domain;
  curve::Point role_key;
};

HubSetup make(std::string_view seed, const std::string& role = kRole) {
  cipher::Drbg rng(to_bytes(seed));
  ibc::Domain d(ctx(), rng);
  curve::Point key = d.extract(role);
  return {std::move(d), key};
}

std::vector<peks::PeksCiphertext> tags_for(const HubSetup& s,
                                           std::string_view seed,
                                           const std::string& role,
                                           std::span<const std::string> kws) {
  cipher::Drbg rng(to_bytes(seed));
  std::vector<peks::PeksCiphertext> tags;
  for (const std::string& kw : kws) {
    tags.push_back(peks::peks_encrypt(s.domain.pub(), role, kw, rng));
  }
  return tags;
}

TEST(MhiRoleId, ComposesTheEpochIdentity) {
  EXPECT_EQ(mhi_role_id("2011-04-12", "emergency", "gainesville"), kRole);
}

// Attaches a private obs registry for one test's lifetime: the hub's
// ingest/expire tallies live in the obs counters only.
class ScopedRegistry {
 public:
  ScopedRegistry() : previous_(obs::attached()) { obs::attach(&reg_); }
  ~ScopedRegistry() { obs::attach(previous_); }
  [[nodiscard]] uint64_t counter(std::string_view name) const {
    return reg_.counter(name);
  }

 private:
  obs::Registry reg_;
  obs::Registry* previous_;
};

TEST(MhiStreamHub, RegisterIngestDrain) {
  HubSetup s = make("hub-basic");
  ScopedRegistry reg;
  MhiStreamHub hub(ctx());
  hub.register_trapdoor("dr-a", kRole,
                        peks::peks_trapdoor(ctx(), s.role_key, "anomaly"));
  EXPECT_EQ(hub.registration_count(), 1u);

  std::vector<std::string> hit_kws = {"day:2011-04-12", "anomaly"};
  std::vector<std::string> miss_kws = {"day:2011-04-11"};
  Bytes blob_hit = to_bytes("blob-1");
  EXPECT_EQ(hub.ingest(kRole, tags_for(s, "t1", kRole, hit_kws), blob_hit), 1u);
  EXPECT_EQ(hub.ingest(kRole, tags_for(s, "t2", kRole, miss_kws),
                       to_bytes("blob-2")),
            0u);
  // A window for a role with no registrations is not tested at all.
  EXPECT_EQ(hub.ingest("other-role", tags_for(s, "t3", "other-role", hit_kws),
                       to_bytes("blob-3")),
            0u);

  EXPECT_EQ(hub.pending_hits("dr-a"), 1u);
  std::vector<MhiHit> hits = hub.drain_hits("dr-a");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].role_id, kRole);
  EXPECT_EQ(hits[0].ibe_blob, blob_hit);
  EXPECT_TRUE(hub.drain_hits("dr-a").empty());  // drained

  EXPECT_EQ(reg.counter(obs::kMhiWindowsIngested), 3u);
  // 1 reg × (2 + 1) tags; the third window is skipped.
  EXPECT_EQ(reg.counter(obs::kMhiTagsTested), 3u);
  EXPECT_EQ(reg.counter(obs::kMhiHits), 1u);
  EXPECT_EQ(hub.pending_hits("dr-a"), 0u);
}

TEST(MhiStreamHub, PoolWidthsAgreeWithSerial) {
  HubSetup s = make("hub-pool");
  std::vector<std::string> kws = {"day:2011-04-12", "anomaly", "x", "y"};
  std::vector<peks::PeksCiphertext> tags = tags_for(s, "tp", kRole, kws);
  auto run = [&](par::ThreadPool* pool) {
    MhiStreamHub hub(ctx());
    hub.register_trapdoor("dr-a", kRole,
                          peks::peks_trapdoor(ctx(), s.role_key, "anomaly"));
    hub.register_trapdoor("dr-b", kRole,
                          peks::peks_trapdoor(ctx(), s.role_key, "absent"));
    size_t queued = hub.ingest(kRole, tags, to_bytes("blob"), pool);
    std::vector<MhiHit> a = hub.drain_hits("dr-a");
    std::vector<MhiHit> b = hub.drain_hits("dr-b");
    return std::tuple<size_t, size_t, size_t>(queued, a.size(), b.size());
  };
  auto serial = run(nullptr);
  EXPECT_EQ(std::get<0>(serial), 1u);
  EXPECT_EQ(std::get<1>(serial), 1u);
  EXPECT_EQ(std::get<2>(serial), 0u);
  for (size_t width : {size_t{1}, size_t{2}, size_t{8}}) {
    par::ThreadPool pool(width, "mhi-test");
    EXPECT_EQ(run(&pool), serial) << "pool width " << width;
  }

  // One-shot search over shelved windows agrees with scalar peks_test over
  // every shelved tag, at every pool width, and never returns another
  // role's windows. The windows shelved under kNextRole carry tags made for
  // kRole, so only the role buckets keep them out of a kRole search.
  const std::vector<std::vector<std::string>> windows = {
      {"day:2011-04-12", "anomaly"},
      {"day:2011-04-12"},
      {"x", "anomaly", "y"},
      {},
      {"y"}};
  MhiStreamHub hub(ctx());
  std::vector<std::vector<peks::PeksCiphertext>> shelved;
  for (size_t w = 0; w < windows.size(); ++w) {
    const std::string n = std::to_string(w);
    shelved.push_back(tags_for(s, "shelf-" + n, kRole, windows[w]));
    hub.shelve(kRole, shelved.back(), to_bytes("blob-" + n));
    hub.shelve(kNextRole, tags_for(s, "next-" + n, kRole, windows[w]),
               to_bytes("next-blob-" + n));
  }
  EXPECT_EQ(hub.shelf().windows(), 2 * windows.size());
  EXPECT_EQ(hub.registration_count(), 0u);
  for (const char* kw : {"anomaly", "day:2011-04-12", "y", "absent"}) {
    const peks::Trapdoor td = peks::peks_trapdoor(ctx(), s.role_key, kw);
    std::vector<Bytes> expected;
    for (size_t w = 0; w < shelved.size(); ++w) {
      bool hit = false;
      for (const peks::PeksCiphertext& t : shelved[w]) {
        hit = peks::peks_test(ctx(), t, td) || hit;
      }
      if (hit) expected.push_back(to_bytes("blob-" + std::to_string(w)));
    }
    EXPECT_EQ(hub.search(kRole, td), expected) << kw;
    for (size_t width : {size_t{1}, size_t{2}, size_t{8}}) {
      par::ThreadPool pool(width, "mhi-search");
      EXPECT_EQ(hub.search(kRole, td, &pool), expected)
          << kw << " at pool width " << width;
    }
  }
  const peks::Trapdoor anomaly =
      peks::peks_trapdoor(ctx(), s.role_key, "anomaly");
  EXPECT_EQ(hub.search(kRole, anomaly).size(), 2u);
  EXPECT_EQ(hub.search(kNextRole, anomaly),
            (std::vector<Bytes>{to_bytes("next-blob-0"),
                                to_bytes("next-blob-2")}));
  EXPECT_EQ(hub.registration_count(), 0u);  // a search registers nothing
}

TEST(MhiStreamHub, ReRegistrationReplacesAndExpireDrops) {
  HubSetup s = make("hub-expire");
  ScopedRegistry reg;
  MhiStreamHub hub(ctx());
  hub.register_trapdoor("dr-a", kRole,
                        peks::peks_trapdoor(ctx(), s.role_key, "old-kw"));
  // Same physician + role: the standing query is replaced, not stacked.
  hub.register_trapdoor("dr-a", kRole,
                        peks::peks_trapdoor(ctx(), s.role_key, "anomaly"));
  hub.register_trapdoor("dr-b", kRole,
                        peks::peks_trapdoor(ctx(), s.role_key, "anomaly"));
  EXPECT_EQ(hub.registration_count(), 2u);

  std::vector<std::string> kws = {"anomaly"};
  EXPECT_EQ(hub.ingest(kRole, tags_for(s, "e1", kRole, kws), to_bytes("b1")),
            2u);
  // dr-a's replaced trapdoor no longer matches its old keyword.
  EXPECT_EQ(hub.ingest(kRole,
                       tags_for(s, "e2", kRole,
                                std::vector<std::string>{"old-kw"}),
                       to_bytes("b2")),
            0u);

  // Epoch rollover drops every registration for the role; queued hits stay
  // until drained.
  EXPECT_EQ(hub.expire_role(kRole), 2u);
  EXPECT_EQ(hub.registration_count(), 0u);
  EXPECT_EQ(hub.ingest(kRole, tags_for(s, "e3", kRole, kws), to_bytes("b3")),
            0u);
  EXPECT_EQ(hub.pending_hits("dr-a"), 1u);
  EXPECT_EQ(hub.pending_hits("dr-b"), 1u);
  EXPECT_EQ(reg.counter(obs::kMhiExpiredRegistrations), 2u);
}

TEST(MhiIngestor, BitIdenticalToColdPath) {
  HubSetup s = make("ingestor-oracle");
  cipher::Drbg gen(to_bytes("ingestor-oracle-gen"));
  MhiWindow win = generate_mhi_window("2011-04-12", 20, gen);
  std::vector<std::string> extra = {"patient-risk:cardiac"};

  cipher::Drbg cold_rng(to_bytes("ingestor-oracle-rng"));
  cipher::Drbg warm_rng(to_bytes("ingestor-oracle-rng"));
  Bytes cold_blob =
      ibc::ibe_encrypt(s.domain.pub(), kRole, win.to_bytes(), cold_rng)
          .to_bytes();
  std::vector<Bytes> cold_tags;
  cold_tags.push_back(
      peks::peks_encrypt(s.domain.pub(), kRole, "day:" + win.day, cold_rng)
          .to_bytes());
  for (const std::string& kw : extra) {
    cold_tags.push_back(
        peks::peks_encrypt(s.domain.pub(), kRole, kw, cold_rng).to_bytes());
  }

  MhiIngestor ing(s.domain.pub(), kRole);
  MhiIngestor::EncodedWindow enc = ing.encode(win, extra, warm_rng);
  EXPECT_EQ(enc.ibe_blob, cold_blob);
  EXPECT_EQ(enc.peks_tags, cold_tags);
}

TEST(MhiIngestor, EpochRolloverInvalidatesOldTrapdoors) {
  HubSetup s = make("ingestor-roll");
  curve::Point old_key = s.domain.extract(kRole);
  curve::Point new_key = s.domain.extract(kNextRole);
  cipher::Drbg gen(to_bytes("ingestor-roll-gen"));
  MhiWindow win = generate_mhi_window("2011-04-13", 10, gen);
  cipher::Drbg rng(to_bytes("ingestor-roll-rng"));

  MhiIngestor ing(s.domain.pub(), kRole);
  (void)ing.encode(win, {}, rng);  // warm the first epoch
  ing.roll_epoch(kNextRole);
  EXPECT_EQ(ing.role_id(), kNextRole);
  EXPECT_EQ(ing.cached_roles(), 0u);  // stale g_r dropped; next encode re-pairs

  MhiIngestor::EncodedWindow enc = ing.encode(win, {}, rng);
  EXPECT_EQ(ing.cached_roles(), 1u);
  peks::PeksCiphertext tag =
      peks::PeksCiphertext::from_bytes(ctx(), enc.peks_tags[0]);
  // The old epoch's trapdoor for the SAME keyword no longer matches...
  peks::Trapdoor stale =
      peks::peks_trapdoor(ctx(), old_key, "day:" + win.day);
  EXPECT_FALSE(peks::peks_test(ctx(), tag, stale));
  // ...while the new epoch's does, and the blob opens under the new Γr only.
  peks::Trapdoor fresh =
      peks::peks_trapdoor(ctx(), new_key, "day:" + win.day);
  EXPECT_TRUE(peks::peks_test(ctx(), tag, fresh));
  ibc::IbeCiphertext blob = ibc::IbeCiphertext::from_bytes(ctx(), enc.ibe_blob);
  EXPECT_EQ(ibc::ibe_decrypt(ctx(), new_key, blob), win.to_bytes());
}

// ---- Protocol end to end ---------------------------------------------------

struct StreamFixture {
  Deployment d;
  explicit StreamFixture(uint64_t seed)
      : d(Deployment::create([seed] {
          DeploymentConfig cfg;
          cfg.n_phi_files = 4;
          cfg.seed = seed;
          return cfg;
        }())) {}

  MhiWindow window(const std::string& day, std::string_view seed) {
    cipher::Drbg rng(to_bytes(std::string(seed)));
    return generate_mhi_window(day, 16, rng, 0.1);
  }
};

TEST(MhiStreamProtocol, StandingQueryStreamsHitsInRealTime) {
  StreamFixture f(40);
  auto role_key = f.d.on_duty->try_request_role_key(*f.d.aserver, kRole);
  ASSERT_TRUE(role_key.ok());
  ASSERT_TRUE(f.d.on_duty
                  ->try_register_mhi(*f.d.sserver, kRole, role_key.value(),
                                     "patient-risk:cardiac")
                  .ok());

  std::vector<std::string> cardiac = {"patient-risk:cardiac"};
  std::vector<std::string> none;
  EXPECT_TRUE(f.d.pdevice
                  ->try_stream_mhi(*f.d.aserver, *f.d.sserver, kRole,
                                   f.window("2011-04-12", "w1"), cardiac)
                  .ok());
  EXPECT_TRUE(f.d.pdevice
                  ->try_stream_mhi(*f.d.aserver, *f.d.sserver, kRole,
                                   f.window("2011-04-12", "w2"), none)
                  .ok());
  EXPECT_TRUE(f.d.pdevice
                  ->try_stream_mhi(*f.d.aserver, *f.d.sserver, kRole,
                                   f.window("2011-04-11", "w3"), cardiac)
                  .ok());

  // The hub matched the two cardiac windows the moment they landed.
  EXPECT_EQ(f.d.sserver->mhi_hub().pending_hits(f.d.on_duty->id()), 2u);
  std::vector<MhiWindow> hits =
      f.d.on_duty->try_fetch_mhi_hits(*f.d.sserver, kRole, role_key.value())
          .value_or({});
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].day, "2011-04-12");
  EXPECT_EQ(hits[1].day, "2011-04-11");
  // Drained: a second fetch returns nothing.
  EXPECT_TRUE(
      f.d.on_duty->try_fetch_mhi_hits(*f.d.sserver, kRole, role_key.value())
          .value_or({})
                  .empty());

  // The streamed windows also landed in the role bucket for poll-time
  // retrieval, and the streaming encryptor stayed on one epoch.
  EXPECT_EQ(f.d.sserver->mhi_entry_count(), 3u);
  EXPECT_EQ(f.d.pdevice->mhi_stream_epoch(), kRole);
  std::vector<MhiWindow> polled =
      f.d.on_duty
          ->try_retrieve_mhi(*f.d.sserver, kRole, role_key.value(),
                             "patient-risk:cardiac")
          .value_or({});
  EXPECT_EQ(polled.size(), 2u);
}

TEST(MhiStreamProtocol, EpochRolloverEndToEnd) {
  StreamFixture f(41);
  auto old_key = f.d.on_duty->try_request_role_key(*f.d.aserver, kRole);
  ASSERT_TRUE(old_key.ok());
  ASSERT_TRUE(
      f.d.on_duty->try_register_mhi(
          *f.d.sserver, kRole, old_key.value(), "anomaly").ok());

  std::vector<std::string> anomaly = {"anomaly"};
  EXPECT_TRUE(f.d.pdevice
                  ->try_stream_mhi(*f.d.aserver, *f.d.sserver, kRole,
                                   f.window("2011-04-12", "r1"), anomaly)
                  .ok());
  EXPECT_EQ(f.d.sserver->mhi_hub().pending_hits(f.d.on_duty->id()), 1u);

  // Day rolls over: the server expires the stale registrations and the
  // P-device re-targets its stream — one call, no new API on the caller.
  EXPECT_EQ(f.d.sserver->mhi_hub().expire_role(kRole), 1u);
  EXPECT_TRUE(f.d.pdevice
                  ->try_stream_mhi(*f.d.aserver, *f.d.sserver, kNextRole,
                                   f.window("2011-04-13", "r2"), anomaly)
                  .ok());
  EXPECT_EQ(f.d.pdevice->mhi_stream_epoch(), kNextRole);
  // No standing query for the new epoch yet → nothing new queued.
  EXPECT_EQ(f.d.sserver->mhi_hub().pending_hits(f.d.on_duty->id()), 1u);

  // The new epoch needs a fresh role key; the old one cannot register a
  // matching query for it (its trapdoors target another identity).
  auto new_key = f.d.on_duty->try_request_role_key(*f.d.aserver, kNextRole);
  ASSERT_TRUE(new_key.ok());
  ASSERT_TRUE(f.d.on_duty
                  ->try_register_mhi(*f.d.sserver, kNextRole, new_key.value(),
                                     "anomaly")
                  .ok());
  EXPECT_TRUE(f.d.pdevice
                  ->try_stream_mhi(*f.d.aserver, *f.d.sserver, kNextRole,
                                   f.window("2011-04-13", "r3"), anomaly)
                  .ok());
  std::vector<MhiWindow> hits =
      f.d.on_duty->try_fetch_mhi_hits(*f.d.sserver, kNextRole, new_key.value())
          .value_or({});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].day, "2011-04-13");
}

TEST(MhiStreamProtocol, RegistrationRequiresTheRoleKey) {
  StreamFixture f(42);
  // A bogus role key derives the wrong ρ, so the MAC check rejects both the
  // registration and the hit drain.
  curve::Point bogus = curve::generator(f.d.aserver->ctx());
  EXPECT_FALSE(
      f.d.on_duty->try_register_mhi(*f.d.sserver, kRole, bogus, "anomaly")
          .ok());
  EXPECT_FALSE(f.d.on_duty->try_fetch_mhi_hits(*f.d.sserver, kRole, bogus)
                   .ok());
  EXPECT_EQ(f.d.sserver->mhi_hub().registration_count(), 0u);
}

TEST(MhiStreamProtocol, StreamRequiresBundle) {
  Deployment d = Deployment::create([] {
    DeploymentConfig cfg;
    cfg.n_phi_files = 4;
    cfg.seed = 43;
    cfg.assign_privileges = false;
    return cfg;
  }());
  cipher::Drbg rng(to_bytes("stream-nobundle"));
  MhiWindow win = generate_mhi_window("2011-04-12", 8, rng);
  std::vector<std::string> none;
  EXPECT_FALSE(
      d.pdevice->try_stream_mhi(*d.aserver, *d.sserver, kRole, win, none).ok());
}

TEST(MhiStreamProtocol, FetchDrainsOnlyThePresentedRolesHits) {
  StreamFixture f(45);
  auto old_key = f.d.on_duty->try_request_role_key(*f.d.aserver, kRole);
  auto new_key = f.d.on_duty->try_request_role_key(*f.d.aserver, kNextRole);
  ASSERT_TRUE(old_key.ok());
  ASSERT_TRUE(new_key.ok());
  ASSERT_TRUE(
      f.d.on_duty->try_register_mhi(
          *f.d.sserver, kRole, old_key.value(), "anomaly").ok());
  ASSERT_TRUE(f.d.on_duty
                  ->try_register_mhi(*f.d.sserver, kNextRole, new_key.value(),
                                     "anomaly")
                  .ok());

  // One hit queued per epoch for the same physician.
  std::vector<std::string> anomaly = {"anomaly"};
  EXPECT_TRUE(f.d.pdevice
                  ->try_stream_mhi(*f.d.aserver, *f.d.sserver, kRole,
                                   f.window("2011-04-12", "d1"), anomaly)
                  .ok());
  EXPECT_TRUE(f.d.pdevice
                  ->try_stream_mhi(*f.d.aserver, *f.d.sserver, kNextRole,
                                   f.window("2011-04-13", "d2"), anomaly)
                  .ok());
  EXPECT_EQ(f.d.sserver->mhi_hub().pending_hits(f.d.on_duty->id()), 2u);

  // A fetch authenticated under the old epoch's key hands over only that
  // epoch's window and must NOT destroy the other epoch's hit (its blob
  // could never be opened with the presented key anyway).
  std::vector<MhiWindow> old_hits =
      f.d.on_duty->try_fetch_mhi_hits(*f.d.sserver, kRole, old_key.value())
          .value_or({});
  ASSERT_EQ(old_hits.size(), 1u);
  EXPECT_EQ(old_hits[0].day, "2011-04-12");
  EXPECT_EQ(f.d.sserver->mhi_hub().pending_hits(f.d.on_duty->id()), 1u);

  std::vector<MhiWindow> new_hits =
      f.d.on_duty->try_fetch_mhi_hits(*f.d.sserver, kNextRole, new_key.value())
          .value_or({});
  ASSERT_EQ(new_hits.size(), 1u);
  EXPECT_EQ(new_hits[0].day, "2011-04-13");
  EXPECT_EQ(f.d.sserver->mhi_hub().pending_hits(f.d.on_duty->id()), 0u);
}

TEST(MhiStreamProtocol, PersistedStateKeepsRoleBuckets) {
  StreamFixture f(44);
  std::vector<std::string> none;
  EXPECT_TRUE(f.d.pdevice
                  ->try_stream_mhi(*f.d.aserver, *f.d.sserver, kRole,
                                   f.window("2011-04-12", "p1"), none)
                  .ok());
  EXPECT_TRUE(f.d.pdevice
                  ->try_stream_mhi(*f.d.aserver, *f.d.sserver, kNextRole,
                                   f.window("2011-04-13", "p2"), none)
                  .ok());
  Bytes state = f.d.sserver->export_state();
  ASSERT_TRUE(f.d.sserver->import_state(state));
  EXPECT_EQ(f.d.sserver->mhi_entry_count(), 2u);
  // Round-trip is byte-stable (buckets re-serialize in the same order).
  EXPECT_EQ(f.d.sserver->export_state(), state);

  auto role_key = f.d.on_duty->try_request_role_key(*f.d.aserver, kRole);
  ASSERT_TRUE(role_key.ok());
  EXPECT_EQ(f.d.on_duty
                ->try_retrieve_mhi(*f.d.sserver, kRole, role_key.value(),
                                   "day:2011-04-12")
                .value_or({})
                .size(),
            1u);
}

}  // namespace
}  // namespace hcpp::core
