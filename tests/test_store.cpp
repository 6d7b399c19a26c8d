// Log-structured account store (src/store): segment frames, recovery with
// torn-tail truncation, crash points mid-append and mid-compaction, shard
// routing through SServerGroup (each retrieval answered by its owner shard
// alone), and the SServer write-through + hydration path with its
// differential oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>

#include "src/common/serialize.h"
#include "src/core/cluster.h"
#include "src/core/record.h"
#include "src/core/setup.h"
#include "src/hash/sha256.h"
#include "src/store/shard.h"
#include "src/store/store.h"
#include "tests/temp_path.h"

namespace hcpp::store {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  return fresh_temp_path("store-" + name);
}

Bytes value_for(uint64_t i, size_t len = 48) {
  io::Writer w;
  w.str("store-test-value");
  w.u64(i);
  Bytes out;
  while (out.size() < len) append(out, hash::sha256_bytes(concat(w.data(), out)));
  out.resize(len);
  return out;
}

/// The in-memory differential oracle the store must match.
using Oracle = std::map<std::string, Bytes>;

void expect_matches(const AccountStore& st, const Oracle& oracle) {
  ASSERT_EQ(st.size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    auto got = st.get(k);
    ASSERT_TRUE(got.has_value()) << k;
    EXPECT_EQ(*got, v) << k;
  }
}

// ---- segment ---------------------------------------------------------------

TEST(Segment, FileNameRoundTrip) {
  EXPECT_EQ(Segment::file_name(42), "seg-000042.hcps");
  EXPECT_EQ(Segment::id_from_name("seg-000042.hcps"), 42u);
  EXPECT_EQ(Segment::id_from_name("seg-00004.hcps"), std::nullopt);
  EXPECT_EQ(Segment::id_from_name("seg-0000xx.hcps"), std::nullopt);
  EXPECT_EQ(Segment::id_from_name("wal-000042.hcps"), std::nullopt);
  EXPECT_EQ(Segment::id_from_name("anything-else"), std::nullopt);
}

TEST(Segment, AppendScanReadRoundTrip) {
  fs::path dir = fresh_dir("segment-roundtrip");
  fs::create_directories(dir);
  auto seg = Segment::create(dir.string(), 0);
  ASSERT_NE(seg, nullptr);
  auto off1 = seg->append(kFrameRecord, 1, "alpha", value_for(1), false);
  auto off2 = seg->append(kFrameTombstone, 2, "alpha", {}, false);
  ASSERT_TRUE(off1.has_value());
  ASSERT_TRUE(off2.has_value());

  std::vector<Frame> frames;
  uint64_t valid = seg->scan([&](const Frame& f) { frames.push_back(f); });
  EXPECT_EQ(valid, seg->size_bytes());
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, kFrameRecord);
  EXPECT_EQ(frames[0].version, 1u);
  EXPECT_EQ(frames[0].key, "alpha");
  EXPECT_EQ(frames[0].value, value_for(1));
  EXPECT_EQ(frames[1].type, kFrameTombstone);
  EXPECT_TRUE(frames[1].value.empty());
  EXPECT_EQ(seg->read_value(frames[0].offset, frames[0].length), value_for(1));
  fs::remove_all(dir);
}

TEST(Segment, SealedReadsMatchActiveReads) {
  fs::path dir = fresh_dir("segment-seal");
  fs::create_directories(dir);
  auto seg = Segment::create(dir.string(), 0);
  auto off = seg->append(kFrameRecord, 7, "k", value_for(7), false);
  ASSERT_TRUE(off.has_value());
  std::vector<Frame> before;
  seg->scan([&](const Frame& f) { before.push_back(f); });
  seg->seal();
  EXPECT_TRUE(seg->sealed());
  EXPECT_EQ(seg->read_value(before[0].offset, before[0].length), value_for(7));
  EXPECT_THROW(seg->append(kFrameRecord, 8, "k", {}, false), std::logic_error);
  fs::remove_all(dir);
}

// ---- store basics ----------------------------------------------------------

TEST(Store, PutGetOverwriteErase) {
  fs::path dir = fresh_dir("basics");
  AccountStore st = AccountStore::open(dir.string());
  EXPECT_TRUE(st.is_open());
  EXPECT_EQ(st.size(), 0u);
  EXPECT_EQ(st.get("missing"), std::nullopt);

  EXPECT_TRUE(st.put("a", value_for(1)));
  EXPECT_TRUE(st.put("b", value_for(2)));
  EXPECT_EQ(st.size(), 2u);
  EXPECT_EQ(*st.get("a"), value_for(1));

  EXPECT_TRUE(st.put("a", value_for(3)));  // overwrite
  EXPECT_EQ(*st.get("a"), value_for(3));
  EXPECT_EQ(st.size(), 2u);

  EXPECT_TRUE(st.erase("a"));
  EXPECT_EQ(st.get("a"), std::nullopt);
  EXPECT_FALSE(st.contains("a"));
  EXPECT_FALSE(st.erase("a"));        // already gone
  EXPECT_FALSE(st.erase("missing"));  // never existed
  EXPECT_EQ(st.size(), 1u);
  EXPECT_EQ(st.keys(), std::vector<std::string>{"b"});

  StoreStats s = st.stats();
  EXPECT_EQ(s.live_records, 1u);
  EXPECT_EQ(s.tombstones, 1u);
  EXPECT_EQ(s.last_version, 4u);  // three puts + one effective erase
  EXPECT_GT(s.dead_bytes, 0u);
  EXPECT_TRUE(st.self_check());
  fs::remove_all(dir);
}

TEST(Store, ReopenRecoversByteIdentical) {
  fs::path dir = fresh_dir("reopen");
  Oracle oracle;
  {
    AccountStore st = AccountStore::open(dir.string());
    for (uint64_t i = 0; i < 40; ++i) {
      std::string key = "acct-" + std::to_string(i % 13);
      oracle[key] = value_for(i);
      ASSERT_TRUE(st.put(key, oracle[key]));
    }
    oracle.erase("acct-3");
    ASSERT_TRUE(st.erase("acct-3"));
  }  // crash: destructor only closes fds, nothing is flushed specially

  StoreRecoveryReport rec;
  AccountStore st = AccountStore::open(dir.string(), {}, &rec);
  EXPECT_FALSE(rec.tail_discarded);
  EXPECT_EQ(rec.records, oracle.size());
  EXPECT_EQ(rec.tombstones, 1u);
  EXPECT_EQ(rec.last_version, 41u);
  expect_matches(st, oracle);
  EXPECT_TRUE(st.self_check());

  // Versions keep increasing across the reopen: a new put wins replay.
  ASSERT_TRUE(st.put("acct-0", value_for(999)));
  EXPECT_EQ(st.stats().last_version, 42u);
  fs::remove_all(dir);
}

TEST(Store, TornTailAndGarbageDiscarded) {
  fs::path dir = fresh_dir("torn");
  Oracle oracle;
  uint64_t clean_size = 0;
  {
    AccountStore st = AccountStore::open(dir.string());
    for (uint64_t i = 0; i < 8; ++i) {
      oracle["k" + std::to_string(i)] = value_for(i);
      ASSERT_TRUE(st.put("k" + std::to_string(i), oracle["k" + std::to_string(i)]));
    }
    clean_size = st.stats().total_bytes;
  }
  // Garbage after the last full frame: a torn append interrupted mid-write.
  {
    std::ofstream f(dir / Segment::file_name(0),
                    std::ios::binary | std::ios::app);
    f << "R\x00\x00\x01garbage-that-is-not-a-frame";
  }
  StoreRecoveryReport rec;
  AccountStore st = AccountStore::open(dir.string(), {}, &rec);
  EXPECT_TRUE(rec.tail_discarded);
  EXPECT_GT(rec.torn_bytes, 0u);
  expect_matches(st, oracle);
  EXPECT_EQ(st.stats().total_bytes, clean_size);  // tail physically gone
  // And appends continue cleanly after the truncation.
  ASSERT_TRUE(st.put("k0", value_for(100)));
  oracle["k0"] = value_for(100);
  AccountStore again = AccountStore::open(dir.string());
  expect_matches(again, oracle);
  fs::remove_all(dir);
}

// Crash mid-append: cut the (single) segment file at every byte boundary in
// the last few frames; recovery must land exactly on the oracle state after
// the last fully-persisted op, never anything else.
TEST(Store, CrashMidAppendEveryByteBoundary) {
  fs::path dir = fresh_dir("crash-append");
  std::vector<uint64_t> size_after_op;  // file size once op i is durable
  std::vector<Oracle> oracle_after_op;
  Oracle oracle;
  {
    AccountStore st = AccountStore::open(dir.string());
    for (uint64_t i = 0; i < 10; ++i) {
      std::string key = "acct-" + std::to_string(i % 4);
      oracle[key] = value_for(i);
      ASSERT_TRUE(st.put(key, oracle[key]));
      size_after_op.push_back(st.stats().total_bytes);
      oracle_after_op.push_back(oracle);
    }
  }
  fs::path seg = dir / Segment::file_name(0);
  const uint64_t full = fs::file_size(seg);
  ASSERT_EQ(full, size_after_op.back());

  // Every cut from "just before the 7th op completed" to the end.
  for (uint64_t cut = size_after_op[6] - 1; cut <= full; ++cut) {
    fs::path work = fresh_dir("crash-append-work");
    fs::create_directories(work);
    fs::copy_file(seg, work / Segment::file_name(0));
    fs::resize_file(work / Segment::file_name(0), cut);

    // The op whose frame still fits entirely in `cut` bytes.
    size_t last_op = 0;
    for (size_t i = 0; i < size_after_op.size(); ++i) {
      if (size_after_op[i] <= cut) last_op = i;
    }
    StoreRecoveryReport rec;
    AccountStore st = AccountStore::open(work.string(), {}, &rec);
    expect_matches(st, oracle_after_op[last_op]);
    EXPECT_EQ(rec.last_version, last_op + 1);
    EXPECT_EQ(rec.tail_discarded, cut != size_after_op[last_op]);
    fs::remove_all(work);
  }
  fs::remove_all(dir);
}

TEST(Store, SegmentRolloverAndSealedReads) {
  fs::path dir = fresh_dir("rollover");
  StoreOptions opt;
  opt.segment_bytes = 512;  // tiny: force frequent rolls
  AccountStore st = AccountStore::open(dir.string(), opt);
  Oracle oracle;
  for (uint64_t i = 0; i < 60; ++i) {
    std::string key = "acct-" + std::to_string(i % 17);
    oracle[key] = value_for(i);
    ASSERT_TRUE(st.put(key, oracle[key]));
  }
  StoreStats s = st.stats();
  EXPECT_GT(s.segments, 3u);  // actually rolled
  expect_matches(st, oracle);  // reads across sealed + active segments
  EXPECT_TRUE(st.self_check());

  AccountStore reopened = AccountStore::open(dir.string(), opt);
  expect_matches(reopened, oracle);
  EXPECT_EQ(reopened.stats().segments, s.segments);
  fs::remove_all(dir);
}

// ---- compaction ------------------------------------------------------------

TEST(Store, CompactionReclaimsAndPreservesState) {
  fs::path dir = fresh_dir("compact");
  StoreOptions opt;
  opt.segment_bytes = 512;
  AccountStore st = AccountStore::open(dir.string(), opt);
  Oracle oracle;
  for (uint64_t i = 0; i < 80; ++i) {
    std::string key = "acct-" + std::to_string(i % 9);
    oracle[key] = value_for(i);
    ASSERT_TRUE(st.put(key, oracle[key]));
  }
  oracle.erase("acct-2");
  ASSERT_TRUE(st.erase("acct-2"));
  StoreStats before = st.stats();
  EXPECT_GT(before.dead_bytes, 0u);

  CompactionReport rep = st.compact();
  EXPECT_EQ(rep.live_records, oracle.size());
  EXPECT_EQ(rep.tombstones_dropped, 1u);
  EXPECT_GT(rep.reclaimed_bytes, 0u);
  EXPECT_LT(rep.segments_after, rep.segments_before);

  StoreStats after = st.stats();
  EXPECT_EQ(after.dead_bytes, 0u);
  EXPECT_EQ(after.tombstones, 0u);
  EXPECT_EQ(after.last_version, before.last_version);  // versions preserved
  expect_matches(st, oracle);
  EXPECT_TRUE(st.self_check());

  // Mutations continue after compaction, and a reopen replays cleanly.
  oracle["acct-2"] = value_for(500);
  ASSERT_TRUE(st.put("acct-2", oracle["acct-2"]));
  AccountStore reopened = AccountStore::open(dir.string(), opt);
  expect_matches(reopened, oracle);
  EXPECT_TRUE(reopened.self_check());
  fs::remove_all(dir);
}

// Crash mid-compaction, phase 1: old segments plus a torn prefix of the new
// output. Version-max replay of the union must reproduce the logical state.
TEST(Store, CrashMidCompactionPartialOutput) {
  fs::path dir = fresh_dir("crash-compact-1");
  StoreOptions opt;
  opt.segment_bytes = 512;
  Oracle oracle;
  {
    AccountStore st = AccountStore::open(dir.string(), opt);
    for (uint64_t i = 0; i < 60; ++i) {
      std::string key = "acct-" + std::to_string(i % 7);
      oracle[key] = value_for(i);
      ASSERT_TRUE(st.put(key, oracle[key]));
    }
    oracle.erase("acct-5");
    ASSERT_TRUE(st.erase("acct-5"));
  }
  // Snapshot the pre-compaction directory, compact a copy, then overlay the
  // compacted output onto the snapshot — the filesystem state of a crash
  // after phase 1 wrote everything but before phase 2 deleted anything.
  fs::path compacted = fresh_dir("crash-compact-1-run");
  fs::copy(dir, compacted, fs::copy_options::recursive);
  {
    AccountStore st = AccountStore::open(compacted.string(), opt);
    st.compact();
  }
  for (const auto& e : fs::directory_iterator(compacted)) {
    fs::path dst = dir / e.path().filename();
    if (!fs::exists(dst)) fs::copy_file(e.path(), dst);
  }
  {
    AccountStore st = AccountStore::open(dir.string(), opt);
    expect_matches(st, oracle);
    EXPECT_TRUE(st.self_check());
  }

  // Torn new output: additionally cut the newest (compactor-written) segment
  // mid-frame. The old segments still hold every record.
  uint32_t newest = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (auto id = Segment::id_from_name(e.path().filename().string())) {
      newest = std::max(newest, *id);
    }
  }
  fs::path newest_path = dir / Segment::file_name(newest);
  fs::resize_file(newest_path, fs::file_size(newest_path) - 11);
  {
    AccountStore st = AccountStore::open(dir.string(), opt);
    expect_matches(st, oracle);
  }
  fs::remove_all(dir);
  fs::remove_all(compacted);
}

// Crash mid-compaction, phase 2: complete new output plus a suffix of the
// old segments (deletion is oldest-first). Replay must still converge.
TEST(Store, CrashMidCompactionPartialDeletion) {
  fs::path dir = fresh_dir("crash-compact-2");
  StoreOptions opt;
  opt.segment_bytes = 512;
  Oracle oracle;
  {
    AccountStore st = AccountStore::open(dir.string(), opt);
    for (uint64_t i = 0; i < 60; ++i) {
      std::string key = "acct-" + std::to_string(i % 7);
      oracle[key] = value_for(i);
      ASSERT_TRUE(st.put(key, oracle[key]));
    }
    oracle.erase("acct-1");
    ASSERT_TRUE(st.erase("acct-1"));
  }
  std::vector<uint32_t> old_ids;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (auto id = Segment::id_from_name(e.path().filename().string())) {
      old_ids.push_back(*id);
    }
  }
  std::sort(old_ids.begin(), old_ids.end());
  ASSERT_GT(old_ids.size(), 2u);

  fs::path compacted = fresh_dir("crash-compact-2-run");
  fs::copy(dir, compacted, fs::copy_options::recursive);
  {
    AccountStore st = AccountStore::open(compacted.string(), opt);
    st.compact();
  }
  // Crash states after deleting 1, 2, ... of the old segments (oldest
  // first). Every one must recover to the same logical state.
  for (size_t deleted = 1; deleted <= old_ids.size(); ++deleted) {
    fs::path work = fresh_dir("crash-compact-2-work");
    fs::copy(compacted, work, fs::copy_options::recursive);
    // The compacted dir has only new segments; re-add the old ones that
    // phase 2 had not yet deleted at crash time.
    for (size_t i = deleted; i < old_ids.size(); ++i) {
      fs::copy_file(dir / Segment::file_name(old_ids[i]),
                    work / Segment::file_name(old_ids[i]));
    }
    AccountStore st = AccountStore::open(work.string(), opt);
    expect_matches(st, oracle);
    EXPECT_TRUE(st.self_check());
    fs::remove_all(work);
  }
  fs::remove_all(dir);
  fs::remove_all(compacted);
}

// ---- shard mapping ---------------------------------------------------------

TEST(Shard, KeyAndPseudonymAgree) {
  cipher::Drbg rng(to_bytes("shard-map"));
  for (int i = 0; i < 50; ++i) {
    Bytes tp = rng.bytes(48);
    for (size_t shards : {1u, 2u, 3u, 7u}) {
      size_t by_tp = shard_for_pseudonym(tp, shards);
      EXPECT_LT(by_tp, shards);
      // Every collection of one pseudonym lands on the same shard, and the
      // account-key route agrees with the raw-pseudonym route.
      EXPECT_EQ(shard_for_key(hex_encode(tp) + "/phi-main", shards), by_tp);
      EXPECT_EQ(shard_for_key(hex_encode(tp) + "/other", shards), by_tp);
      EXPECT_EQ(shard_for_key(hex_encode(tp), shards), by_tp);
    }
  }
}

TEST(Shard, SpreadsAccounts) {
  cipher::Drbg rng(to_bytes("shard-spread"));
  std::vector<size_t> hits(4, 0);
  for (int i = 0; i < 400; ++i) ++hits[shard_for_pseudonym(rng.bytes(48), 4)];
  for (size_t h : hits) {
    EXPECT_GT(h, 40u);  // far from the 100-average, but no empty/overfull shard
    EXPECT_LT(h, 200u);
  }
}

// ---- SServer write-through + hydration -------------------------------------

TEST(StoreIntegration, WriteThroughAndHydration) {
  fs::path dir = fresh_dir("sserver");
  core::Deployment d = core::Deployment::create({.n_phi_files = 6});

  // Attaching after the fact writes the existing account through.
  ASSERT_TRUE(d.sserver->attach_store(dir.string()));
  EXPECT_TRUE(d.sserver->has_store());
  // Granular layout: one base record plus one record per file blob (and per
  // update-log entry — none yet).
  EXPECT_EQ(d.sserver->account_store().size(), 1u + 6u);
  EXPECT_TRUE(d.sserver->store_consistent());

  // Protocol mutations write through: REVOKE re-keys d and BE_U(d).
  ASSERT_TRUE(d.patient->try_revoke_member(*d.sserver, 1).ok());
  EXPECT_TRUE(d.sserver->store_consistent());
  ASSERT_TRUE(d.patient->try_store_phi(*d.sserver).ok());
  EXPECT_TRUE(d.sserver->store_consistent());

  Bytes live_state = d.sserver->export_state();

  // A fresh server process hydrates the accounts from the same directory.
  core::SServer restored(*d.net, *d.aserver, d.sserver->id());
  ASSERT_TRUE(restored.attach_store(dir.string()));
  EXPECT_EQ(restored.account_count(), d.sserver->account_count());
  EXPECT_TRUE(restored.store_consistent());

  // Retrieval works against the hydrated server (MHI is not persisted, so
  // compare the account halves of the exports rather than the full blobs).
  std::vector<std::string> kws = {d.all_keywords().front()};
  EXPECT_EQ(d.patient->try_retrieve(restored, kws).value_or({}).size(),
            d.patient->keyword_index().entries.at(kws.front()).size());
  EXPECT_FALSE(
      d.family->try_emergency_retrieve(restored, kws).value_or({}).empty());
  fs::remove_all(dir);
}

TEST(StoreIntegration, ImportStateRewritesStore) {
  fs::path dir = fresh_dir("import");
  core::Deployment a = core::Deployment::create({.n_phi_files = 4, .seed = 7});
  core::Deployment b = core::Deployment::create({.n_phi_files = 4, .seed = 8});
  ASSERT_TRUE(a.sserver->attach_store(dir.string()));
  EXPECT_TRUE(a.sserver->store_consistent());
  // Replacing the whole state (the replicated-mode sync path) keeps the
  // store in lockstep: new accounts written, stale ones tombstoned.
  ASSERT_TRUE(a.sserver->import_state(b.sserver->export_state()));
  EXPECT_TRUE(a.sserver->store_consistent());
  fs::remove_all(dir);
}

// ---- sharded group ---------------------------------------------------------

TEST(StoreIntegration, ShardedGroupRoutesToOwners) {
  core::Deployment d = core::Deployment::create({.n_phi_files = 4});
  core::SServerGroup group(*d.net, *d.aserver, d.sserver->service_id(), 3,
                           core::SServerGroup::Placement::kSharded);
  EXPECT_TRUE(group.sharded());
  EXPECT_FALSE(group.sync_replicas());  // nothing to mirror between shards

  fs::path root = fresh_dir("sharded-group");
  ASSERT_TRUE(group.attach_stores(root.string()));

  // Several patients; each lands on exactly its owner shard.
  std::vector<std::unique_ptr<core::Patient>> patients;
  for (int i = 0; i < 6; ++i) {
    auto p = std::make_unique<core::Patient>(
        *d.net, "shard-patient-" + std::to_string(i), *d.rng);
    p->setup(*d.aserver, group.service_id());
    p->add_files({{static_cast<sse::FileId>(i + 1),
                   "file-" + std::to_string(i),
                   to_bytes("phi body " + std::to_string(i)),
                   {"kw-common", "kw-" + std::to_string(i)}}});
    auto r = p->try_store_phi(group);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 1u);  // exactly one replica accepted
    patients.push_back(std::move(p));
  }
  size_t total = 0;
  for (size_t i = 0; i < group.size(); ++i) {
    total += group.replica(i).account_count();
    EXPECT_TRUE(group.replica(i).store_consistent());
  }
  EXPECT_EQ(total, patients.size());  // disjoint placement, no mirroring

  for (auto& p : patients) {
    size_t owner = group.shard_of(p->tp_bytes());
    std::string key =
        core::SServer::account_key(p->tp_bytes(), p->collection());
    for (size_t i = 0; i < group.size(); ++i) {
      const auto ids = group.replica(i).visible_account_ids();
      bool holds = std::find(ids.begin(), ids.end(), key) != ids.end();
      EXPECT_EQ(holds, i == owner);
    }
    // The owner (and only the owner) answers the retrieval.
    std::vector<std::string> kws = {"kw-common"};
    auto got = p->try_retrieve(group, kws);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().size(), 1u);
    // Revocation routes to the same owner.
    auto rev = p->try_revoke_member(group, 1);
    ASSERT_TRUE(rev.ok());
    EXPECT_EQ(rev.value(), 1u);
    EXPECT_TRUE(group.replica(owner).store_consistent());
  }
  fs::remove_all(root);
}

TEST(StoreIntegration, ShardedOwnerDownGivesReadsAndWritesItsOwnError) {
  core::Deployment d = core::Deployment::create({.n_phi_files = 4});
  core::SServerGroup group(*d.net, *d.aserver, d.sserver->service_id(), 3,
                           core::SServerGroup::Placement::kSharded);
  core::Patient p(*d.net, "owner-down-patient", *d.rng);
  p.setup(*d.aserver, group.service_id());
  p.add_files(core::generate_phi_collection(4, p.rng()));
  ASSERT_TRUE(p.try_store_phi(group).ok());
  core::Family family(*d.net, "owner-down-family");
  ASSERT_TRUE(core::assign_privilege(p, family, d.rng->bytes(32)));
  std::vector<std::string> kws = {p.keyword_index().dictionary().front()};

  // The owner shard is the only holder: with it down, every protocol
  // reports the owner's own transport error — never a group-level one.
  group.set_up(group.shard_of(p.tp_bytes()), false);
  const uint32_t budget = d.net->transport().policy().max_attempts;
  auto expect_owner_timeout = [&](const core::ProtocolError& e) {
    EXPECT_TRUE(e.transient());
    EXPECT_EQ(e.code, core::ErrorCode::kTimeout);
    EXPECT_EQ(e.attempts, budget);
  };
  auto stored = p.try_store_phi(group);
  ASSERT_FALSE(stored.ok());
  expect_owner_timeout(stored.error());
  auto updated = p.try_update_phi(
      group, {{77, "late", to_bytes("late note"), {kws.front()}}});
  ASSERT_FALSE(updated.ok());
  expect_owner_timeout(updated.error());
  auto got = p.try_retrieve(group, kws);
  ASSERT_FALSE(got.ok());
  expect_owner_timeout(got.error());
  auto emergency = family.try_emergency_retrieve(group, kws);
  ASSERT_FALSE(emergency.ok());
  expect_owner_timeout(emergency.error());
  auto revoked = p.try_revoke_member(group, core::kFamilySlot);
  ASSERT_FALSE(revoked.ok());
  expect_owner_timeout(revoked.error());
}

TEST(StoreIntegration, ShardedRetrievalsStayOnTheirOwnerShard) {
  core::Deployment d = core::Deployment::create({.n_phi_files = 4});
  constexpr size_t kShards = 3;
  core::SServerGroup group(*d.net, *d.aserver, d.sserver->service_id(),
                           kShards, core::SServerGroup::Placement::kSharded);

  std::vector<std::unique_ptr<core::Patient>> patients;
  for (int i = 0; i < 6; ++i) {
    auto p = std::make_unique<core::Patient>(
        *d.net, "shard-read-patient-" + std::to_string(i), *d.rng);
    p->setup(*d.aserver, group.service_id());
    p->add_files({{static_cast<sse::FileId>(i + 1),
                   "shard-read-file-" + std::to_string(i),
                   to_bytes("shard read body " + std::to_string(i)),
                   {"kw-shard-read"}}});
    ASSERT_TRUE(p->try_store_phi(group).ok());
    patients.push_back(std::move(p));
  }

  // Every patient's keyword, shared by all six, reaches only its own file.
  const std::vector<std::string> kws = {"kw-shard-read"};
  for (size_t i = 0; i < patients.size(); ++i) {
    auto got = patients[i]->try_retrieve(group, kws);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.value().size(), 1u);
    EXPECT_EQ(got.value()[0].name, "shard-read-file-" + std::to_string(i));
  }

  // One shard down fails exactly the retrievals it owns.
  const size_t victim = group.shard_of(patients[0]->tp_bytes());
  group.set_up(victim, false);
  size_t failed = 0;
  for (auto& p : patients) {
    bool owned = group.shard_of(p->tp_bytes()) == victim;
    auto got = p->try_retrieve(group, kws);
    EXPECT_EQ(got.ok(), !owned);
    failed += owned;
  }
  EXPECT_EQ(failed, group.replica(victim).account_count());
}

}  // namespace
}  // namespace hcpp::store
