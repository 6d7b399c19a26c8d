// Dynamic forward-private update layer (DESIGN.md §12, ROADMAP item 1):
//   * differential oracle — bulk-build(A ∪ B) must answer every keyword
//     identically to build(A) followed by add(B), at pool widths 1/2/8;
//   * tombstone semantics — delete suppresses static postings, re-add
//     resurrects, newest-op-wins inside one batch;
//   * compaction — post-fold SEARCH identical to pre-fold, stale dynamic
//     trapdoors degrade to the rebuilt static index;
//   * forward privacy, structurally — no label of a post-trapdoor update is
//     derivable from (i.e. collides with) anything a pre-update trapdoor
//     reveals;
//   * the end-to-end UPDATE/COMPACT protocol, store write-through +
//     hydration, export/import, ASSIGN-bundle staleness and the log walk
//     behind both read protocols (owner and θ_d-wrapped privileged).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "src/cipher/chacha20.h"
#include "src/core/setup.h"
#include "src/hash/sha256.h"
#include "src/par/pool.h"
#include "src/sse/dynamic.h"
#include "tests/temp_path.h"

namespace hcpp::core {
namespace {

namespace fs = std::filesystem;

std::vector<sse::FileId> sorted_static(const sse::SecureIndex& si,
                                       const sse::Trapdoor& td) {
  std::vector<sse::FileId> out = sse::search(si, td);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::set<std::string> keywords_of(const std::vector<sse::PlainFile>& files) {
  std::set<std::string> kws;
  for (const auto& f : files) kws.insert(f.keywords.begin(), f.keywords.end());
  return kws;
}

// ---- Differential oracle ----------------------------------------------------

TEST(SseDynamic, DifferentialOracleMatchesBulkBuild) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    par::ThreadPool pool(threads, "dyn-oracle");
    cipher::Drbg rng(to_bytes("dyn-oracle-" + std::to_string(threads)));
    std::vector<sse::PlainFile> all = generate_phi_collection(18, rng);
    std::vector<sse::PlainFile> a(all.begin(), all.begin() + 12);
    std::vector<sse::PlainFile> b(all.begin() + 12, all.end());
    sse::Keys keys = sse::Keys::generate(rng);

    // Oracle: everything bulk-loaded into one packed index.
    sse::SecureIndex oracle = sse::build_index(all, keys, rng, 1.25, &pool);
    // Candidate: A bulk-loaded, B arriving through the update layer.
    sse::SecureIndex si = sse::build_index(a, keys, rng, 1.25, &pool);
    sse::Updater up(keys);
    sse::UpdateLog log;
    for (const auto& f : b) {
      for (const std::string& kw : f.keywords) {
        sse::LogInsert ins = up.add(kw, f.id);
        log.entries[ins.label] = ins.entry;
      }
    }

    for (const std::string& kw : keywords_of(all)) {
      std::vector<sse::FileId> expect =
          sorted_static(oracle, sse::make_trapdoor(keys, kw));
      std::vector<sse::FileId> got =
          sse::search_dynamic(si, log, up.trapdoor(kw));
      EXPECT_EQ(got, expect) << "kw=" << kw << " threads=" << threads;
    }
  }
}

TEST(SseDynamic, DeleteSuppressesAndReaddResurrects) {
  cipher::Drbg rng(to_bytes("dyn-tombstone"));
  std::vector<sse::PlainFile> files = generate_phi_collection(8, rng);
  sse::Keys keys = sse::Keys::generate(rng);
  sse::SecureIndex si = sse::build_index(files, keys, rng);
  sse::Updater up(keys);
  sse::UpdateLog log;

  const std::string kw = files[0].keywords[0];
  sse::FileId victim = files[0].id;
  std::vector<sse::FileId> before =
      sse::search_dynamic(si, log, up.trapdoor(kw));
  ASSERT_TRUE(std::count(before.begin(), before.end(), victim) == 1);

  // DELETE tombstones even a posting that lives in the packed static index.
  sse::LogInsert del = up.del(kw, victim);
  log.entries[del.label] = del.entry;
  std::vector<sse::FileId> gone = sse::search_dynamic(si, log, up.trapdoor(kw));
  EXPECT_EQ(std::count(gone.begin(), gone.end(), victim), 0);
  EXPECT_EQ(gone.size(), before.size() - 1);

  // Newest-op-wins: a later ADD resurrects the file.
  sse::LogInsert re = up.add(kw, victim);
  log.entries[re.label] = re.entry;
  EXPECT_EQ(sse::search_dynamic(si, log, up.trapdoor(kw)), before);
}

TEST(SseDynamic, CompactionFoldsLogAndStrandsStaleTrapdoors) {
  cipher::Drbg rng(to_bytes("dyn-compact"));
  std::vector<sse::PlainFile> files = generate_phi_collection(10, rng);
  sse::Keys keys = sse::Keys::generate(rng);
  std::vector<sse::PlainFile> initial(files.begin(), files.begin() + 7);
  sse::SecureIndex si = sse::build_index(initial, keys, rng);
  sse::Updater up(keys);
  sse::UpdateLog log;
  for (size_t i = 7; i < files.size(); ++i) {
    for (const std::string& kw : files[i].keywords) {
      sse::LogInsert ins = up.add(kw, files[i].id);
      log.entries[ins.label] = ins.entry;
    }
  }
  std::map<std::string, std::vector<sse::FileId>> before;
  for (const std::string& kw : keywords_of(files)) {
    before[kw] = sse::search_dynamic(si, log, up.trapdoor(kw));
  }
  sse::DynTrapdoor stale = up.trapdoor(files[9].keywords[0]);

  // Compaction: fold the live set into a fresh packed index, drop the log,
  // restart the counters under a bumped epoch.
  sse::SecureIndex folded = sse::build_index(files, keys, rng);
  log.entries.clear();
  uint64_t old_epoch = up.state().epoch;
  up.reset_for_compaction();
  EXPECT_EQ(up.state().epoch, old_epoch + 1);
  EXPECT_TRUE(up.state().counters.empty());

  // Post-compaction SEARCH identical to pre-compaction, for every keyword.
  for (const auto& [kw, expect] : before) {
    EXPECT_EQ(sse::search_dynamic(folded, log, up.trapdoor(kw)), expect)
        << "kw=" << kw;
  }
  // A stale pre-compaction dynamic trapdoor still answers correctly: its
  // chain walk breaks on the first folded-away label and degrades to the
  // rebuilt static index, which already holds every live file.
  EXPECT_EQ(sse::search_dynamic(folded, log, stale),
            before[files[9].keywords[0]]);
}

// ---- Forward privacy, structurally -----------------------------------------

// What the server learns from a dynamic trapdoor: the chain labels it can
// walk. Replicated here with the public primitives — the test plays the
// curious server.
std::string label_of(BytesView st) {
  Bytes in(st.begin(), st.end());
  in.push_back('L');
  Bytes digest = hash::sha256_bytes(in);
  digest.resize(16);
  return hex_encode(digest);
}

std::set<std::string> labels_reachable_from(const sse::DynTrapdoor& td,
                                            const sse::UpdateLog& log) {
  std::set<std::string> seen;
  Bytes st = td.state;
  for (uint64_t c = td.count; c >= 1; --c) {
    std::string label = label_of(st);
    seen.insert(label);
    auto it = log.entries.find(label);
    if (it == log.entries.end()) break;
    Bytes in(st.begin(), st.end());
    in.push_back('V');
    Bytes key = hash::sha256_bytes(in);
    Bytes nonce(cipher::kChaChaNonceSize, 0);
    Bytes plain = cipher::chacha20(key, nonce, 0, it->second);
    st.assign(plain.begin() + 9, plain.end());
  }
  return seen;
}

TEST(SseDynamic, ForwardPrivacyNewLabelsUnreachableFromOldTrapdoors) {
  cipher::Drbg rng(to_bytes("dyn-fp"));
  sse::Keys keys = sse::Keys::generate(rng);
  sse::Updater up(keys);
  sse::UpdateLog log;
  const std::string kw = "category:cardiology";
  for (uint64_t i = 1; i <= 6; ++i) {
    sse::LogInsert ins = up.add(kw, i);
    log.entries[ins.label] = ins.entry;
  }
  // The server's total knowledge after serving a search at count 6.
  std::set<std::string> derivable = labels_reachable_from(up.trapdoor(kw), log);
  EXPECT_EQ(derivable.size(), 6u);  // the walk reveals exactly the history

  // Every label of a post-trapdoor update — same keyword, other keywords,
  // and the recycled counter values of a post-compaction epoch — must be
  // fresh to the server.
  std::vector<sse::LogInsert> fresh;
  for (uint64_t i = 7; i <= 12; ++i) fresh.push_back(up.add(kw, i));
  fresh.push_back(up.add("category:other", 99));
  up.reset_for_compaction();
  for (uint64_t i = 1; i <= 6; ++i) fresh.push_back(up.add(kw, i));
  std::set<std::string> fresh_labels;
  for (const auto& ins : fresh) {
    EXPECT_FALSE(derivable.contains(ins.label)) << ins.label;
    fresh_labels.insert(ins.label);
  }
  EXPECT_EQ(fresh_labels.size(), fresh.size());  // no internal collisions
}

// ---- DynTrapdoor encoding ---------------------------------------------------

TEST(SseDynamic, DynTrapdoorEncodingRoundTripsAndRejectsTampering) {
  cipher::Drbg rng(to_bytes("dyn-td"));
  sse::Keys keys = sse::Keys::generate(rng);
  sse::Updater up(keys);
  (void)up.add("kw", 7);
  sse::DynTrapdoor td = up.trapdoor("kw");
  Bytes enc = td.to_bytes();
  ASSERT_EQ(enc.size(), sse::kDynTrapdoorSize);
  auto back = sse::DynTrapdoor::from_bytes(enc);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->count, 1u);
  EXPECT_EQ(back->state, td.state);
  EXPECT_EQ(back->base.address, td.base.address);

  EXPECT_FALSE(sse::DynTrapdoor::from_bytes(Bytes(60, 0)).has_value());
  for (size_t pos : {size_t{0}, size_t{20}, size_t{60}, size_t{90}, size_t{99}}) {
    Bytes bad = enc;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(sse::DynTrapdoor::from_bytes(bad).has_value()) << pos;
  }

  // θ_d wrap round-trips; a stale (re-keyed) d fails the tag check.
  Bytes wrapped = sse::wrap_dyn_trapdoor(keys.d, td);
  ASSERT_EQ(wrapped.size(), sse::kDynTrapdoorSize);
  auto unwrapped = sse::unwrap_dyn_trapdoor(keys.d, wrapped);
  ASSERT_TRUE(unwrapped.has_value());
  EXPECT_EQ(unwrapped->state, td.state);
  EXPECT_FALSE(sse::unwrap_dyn_trapdoor(rng.bytes(32), wrapped).has_value());
}

// ---- End-to-end protocol ----------------------------------------------------

TEST(SseDynamicProtocol, UpdateAddDeleteReaddRoundTrip) {
  Deployment d = Deployment::create({.n_phi_files = 4});
  sse::FileId nid = d.patient->files().back().id + 1;
  sse::PlainFile nf{nid, "new-scan", to_bytes("fresh imaging body"),
                    {"category:new-scan"}};
  std::vector<std::string> kws = {"category:new-scan"};

  EXPECT_TRUE(d.patient->try_retrieve(*d.sserver, kws).value_or({}).empty());
  ASSERT_TRUE(d.patient->try_update_phi(*d.sserver, {nf}).ok());
  auto got = d.patient->try_retrieve(*d.sserver, kws).value_or({});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].name, "new-scan");
  EXPECT_EQ(got[0].content, nf.content);

  // Old keywords still answer through the untouched packed index.
  std::vector<std::string> old_kws = {d.all_keywords().front()};
  EXPECT_EQ(d.patient->try_retrieve(*d.sserver, old_kws).value_or({}).size(),
            d.patient->keyword_index().entries.at(old_kws.front()).size());

  std::vector<sse::FileId> rm = {nid};
  ASSERT_TRUE(d.patient->try_update_phi(*d.sserver, {}, rm).ok());
  EXPECT_TRUE(d.patient->try_retrieve(*d.sserver, kws).value_or({}).empty());

  ASSERT_TRUE(d.patient->try_update_phi(*d.sserver, {nf}).ok());
  EXPECT_EQ(d.patient->try_retrieve(*d.sserver, kws).value_or({}).size(), 1u);
}

TEST(SseDynamicProtocol, CompactionPreservesEverySearchResult) {
  Deployment d = Deployment::create({.n_phi_files = 6});
  sse::FileId base = d.patient->files().back().id + 1;
  std::vector<sse::PlainFile> added = {
      {base, "extra-1", to_bytes("body one"), {"category:extra", "shared"}},
      {base + 1, "extra-2", to_bytes("body two"), {"category:extra"}}};
  std::vector<sse::FileId> rm = {d.patient->files().front().id};
  ASSERT_TRUE(d.patient->try_update_phi(*d.sserver, added, rm).ok());
  ASSERT_FALSE(d.patient->update_state().counters.empty());

  std::vector<std::string> all_kws = d.all_keywords();
  std::map<std::string, std::set<std::string>> before;
  for (const std::string& kw : all_kws) {
    std::vector<std::string> one = {kw};
    for (const auto& f :
         d.patient->try_retrieve(*d.sserver, one).value_or({})) {
      before[kw].insert(f.name);
    }
  }

  ASSERT_TRUE(d.patient->try_compact_phi(*d.sserver).ok());
  EXPECT_TRUE(d.patient->update_state().counters.empty());
  for (const std::string& kw : all_kws) {
    std::vector<std::string> one = {kw};
    std::set<std::string> after;
    for (const auto& f :
         d.patient->try_retrieve(*d.sserver, one).value_or({})) {
      after.insert(f.name);
    }
    EXPECT_EQ(after, before[kw]) << "kw=" << kw;
  }
  // Post-compaction updates keep working (fresh epoch, fresh labels).
  sse::PlainFile late{base + 2, "late", to_bytes("late body"), {"shared"}};
  ASSERT_TRUE(d.patient->try_update_phi(*d.sserver, {late}).ok());
  std::vector<std::string> shared = {"shared"};
  std::set<std::string> names;
  for (const auto& f :
       d.patient->try_retrieve(*d.sserver, shared).value_or({})) {
    names.insert(f.name);
  }
  EXPECT_TRUE(names.contains("late"));
  EXPECT_TRUE(names.contains("extra-1"));
}

TEST(SseDynamicProtocol, StaleBundleSeesPreUpdateViewUntilReassigned) {
  Deployment d = Deployment::create({.n_phi_files = 4});
  // The bundle sealed at create() predates the update: forward privacy means
  // the family cannot derive the new chain states, so it searches the
  // collection as of the assignment.
  sse::FileId nid = d.patient->files().back().id + 1;
  sse::PlainFile nf{nid, "post-assign", to_bytes("newer"), {"category:fresh"}};
  ASSERT_TRUE(d.patient->try_update_phi(*d.sserver, {nf}).ok());

  std::vector<std::string> kws = {"category:fresh"};
  EXPECT_TRUE(
      d.family->try_emergency_retrieve(*d.sserver, kws).value_or({}).empty());
  EXPECT_EQ(d.patient->try_retrieve(*d.sserver, kws).value_or({}).size(), 1u);

  // Re-ASSIGN ships the current counters; the family catches up.
  ASSERT_TRUE(assign_privilege(*d.patient, *d.family, d.mu_family));
  EXPECT_EQ(
      d.family->try_emergency_retrieve(*d.sserver, kws).value_or({}).size(),
      1u);
}

TEST(SseDynamicProtocol, AliasedAccountsFanUpdatesAcrossAliases) {
  DeploymentConfig cfg;
  cfg.n_phi_files = 4;
  cfg.store_phi = false;
  cfg.assign_privileges = false;
  Deployment d = Deployment::create(cfg);
  d.patient->set_keyword_aliases(3);
  ASSERT_TRUE(d.patient->try_store_phi(*d.sserver).ok());
  ASSERT_TRUE(assign_privilege(*d.patient, *d.family, d.mu_family));

  sse::FileId nid = d.patient->files().back().id + 1;
  ASSERT_TRUE(d.patient
                  ->try_update_phi(*d.sserver, {{nid, "aliased", to_bytes("x"),
                                                 {"category:alias-new"}}})
                  .ok());
  std::vector<std::string> kws = {"category:alias-new"};
  // Rotation: more retrievals than aliases, every alias slot must answer.
  for (int round = 0; round < 7; ++round) {
    EXPECT_EQ(d.patient->try_retrieve(*d.sserver, kws).value_or({}).size(), 1u)
        << round;
  }
  std::vector<sse::FileId> rm = {nid};
  ASSERT_TRUE(d.patient->try_update_phi(*d.sserver, {}, rm).ok());
  for (int round = 0; round < 7; ++round) {
    EXPECT_TRUE(d.patient->try_retrieve(*d.sserver, kws).value_or({}).empty())
        << round;
  }
}

// ---- Store write-through + hydration ----------------------------------------

TEST(SseDynamicProtocol, UpdatesWriteThroughAndHydrate) {
  fs::path dir = fresh_temp_path("dyn-store");
  Deployment d = Deployment::create({.n_phi_files = 3});
  ASSERT_TRUE(d.sserver->attach_store(dir.string()));

  sse::FileId f1 = d.patient->files().back().id + 1;
  std::vector<sse::PlainFile> added = {
      {f1, "dyn-a", to_bytes("aa"), {"kw-a"}},
      {f1 + 1, "dyn-b", to_bytes("bb"), {"kw-a", "kw-b"}}};
  ASSERT_TRUE(d.patient->try_update_phi(*d.sserver, added).ok());
  EXPECT_TRUE(d.sserver->store_consistent());
  // Granular layout: base + one record per file + one per log entry.
  EXPECT_EQ(d.sserver->account_store().size(), 1u + 5u + 3u);

  std::vector<sse::FileId> rm = {f1};
  ASSERT_TRUE(d.patient->try_update_phi(*d.sserver, {}, rm).ok());
  EXPECT_TRUE(d.sserver->store_consistent());

  // A fresh process hydrates the log and serves the updated view.
  SServer restored(*d.net, *d.aserver, d.sserver->id());
  ASSERT_TRUE(restored.attach_store(dir.string()));
  EXPECT_TRUE(restored.store_consistent());
  std::vector<std::string> kw_a = {"kw-a"}, kw_b = {"kw-b"};
  auto got_a = d.patient->try_retrieve(restored, kw_a).value_or({});
  ASSERT_EQ(got_a.size(), 1u);
  EXPECT_EQ(got_a[0].name, "dyn-b");
  EXPECT_EQ(d.patient->try_retrieve(restored, kw_b).value_or({}).size(), 1u);

  // Compaction folds the log records out of the store as well.
  ASSERT_TRUE(d.patient->try_compact_phi(*d.sserver).ok());
  EXPECT_TRUE(d.sserver->store_consistent());
  EXPECT_EQ(d.sserver->account_store().stats().live_records, 1u + 4u);
  fs::remove_all(dir);
}

// Removing a file and re-adding the same id in one UPDATE (the retagging
// recipe) must leave the new blob, both in memory and in the store.
TEST(SseDynamicProtocol, RemoveThenReaddInOneUpdateKeepsNewBlob) {
  fs::path dir = fresh_temp_path("dyn-readd");
  Deployment d = Deployment::create({.n_phi_files = 3});
  ASSERT_TRUE(d.sserver->attach_store(dir.string()));
  const sse::FileId id = d.patient->files().front().id;
  sse::PlainFile retagged{id, "retagged", to_bytes("new body"),
                          {"kw-retagged"}};
  std::vector<sse::FileId> rm = {id};
  ASSERT_TRUE(d.patient->try_update_phi(*d.sserver, {retagged}, rm).ok());
  EXPECT_TRUE(d.sserver->store_consistent());

  std::vector<std::string> kws = {"kw-retagged"};
  auto got = d.patient->try_retrieve(*d.sserver, kws).value_or({});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].content, retagged.content);

  SServer restored(*d.net, *d.aserver, d.sserver->id());
  ASSERT_TRUE(restored.attach_store(dir.string()));
  auto again = d.patient->try_retrieve(restored, kws).value_or({});
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].content, retagged.content);
  fs::remove_all(dir);
}

TEST(SseDynamicProtocol, ExportImportCarriesUpdateLog) {
  Deployment d = Deployment::create({.n_phi_files = 3});
  sse::FileId nid = d.patient->files().back().id + 1;
  ASSERT_TRUE(d.patient->try_update_phi(
      *d.sserver, {{nid, "exported", to_bytes("x"), {"kw-export"}}}).ok());

  SServer restored(*d.net, *d.aserver, d.sserver->id());
  ASSERT_TRUE(restored.import_state(d.sserver->export_state()));
  std::vector<std::string> kws = {"kw-export"};
  auto got = d.patient->try_retrieve(restored, kws).value_or({});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].name, "exported");
}

// ---- Log walk behind both read protocols -----------------------------------

TEST(SseDynamicProtocol, OwnerAndPrivilegedReadsWalkTheLog) {
  Deployment d = Deployment::create({.n_phi_files = 3});
  sse::FileId nid = d.patient->files().back().id + 1;
  ASSERT_TRUE(d.patient->try_update_phi(
      *d.sserver, {{nid, "log-new", to_bytes("x"), {"kw-log"}}}).ok());
  ASSERT_TRUE(assign_privilege(*d.patient, *d.family, d.mu_family));

  // The owner sends the raw 100-byte dynamic trapdoor, the family its
  // θ_d-wrapped form; both reach the file only the update log holds.
  std::vector<std::string> kws = {"kw-log"};
  for (Result<std::vector<sse::PlainFile>> got :
       {d.patient->try_retrieve(*d.sserver, kws),
        d.family->try_emergency_retrieve(*d.sserver, kws)}) {
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.value().size(), 1u);
    EXPECT_EQ(got.value()[0].id, nid);
  }
}

}  // namespace
}  // namespace hcpp::core
