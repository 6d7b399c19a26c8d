// Store crash chaos: seeded random workloads with aggressive segment rolling
// and periodic compaction, checked against an in-memory differential oracle
// at filesystem-snapshot crash points, plus a real fork+SIGKILL process kill
// whose survivor state must be a consistent prefix of the issued operations.
#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>

#include <sys/wait.h>
#include <unistd.h>

#include "src/cipher/drbg.h"
#include "src/common/serialize.h"
#include "src/hash/sha256.h"
#include "src/store/store.h"
#include "tests/temp_path.h"

namespace hcpp::store {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  return fresh_temp_path("store-chaos-" + name);
}

using Oracle = std::map<std::string, Bytes>;

void expect_matches(const AccountStore& st, const Oracle& oracle) {
  ASSERT_EQ(st.size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    auto got = st.get(k);
    ASSERT_TRUE(got.has_value()) << k;
    EXPECT_EQ(*got, v) << k;
  }
}

/// Deterministic value for sequenced op `i` — both the workload and the
/// post-crash verifier derive it independently.
Bytes crash_value(uint64_t i) {
  io::Writer w;
  w.str("store-chaos-value");
  w.u64(i);
  return hash::sha256_bytes(w.data());
}

std::string crash_key(uint64_t i) {
  return "acct-" + std::to_string(i % 37);
}

// Seeded random workload against small segments with periodic compactions;
// the oracle must match the store continuously, after a reopen, and at
// snapshot-restore "crash points" taken mid-workload.
TEST(StoreChaos, RandomWorkloadWithSnapshotsMatchesOracle) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    fs::path dir = fresh_dir("workload-" + std::to_string(seed));
    StoreOptions opt;
    opt.segment_bytes = 700;  // roll every few frames
    cipher::Drbg rng(to_bytes("store-chaos-" + std::to_string(seed)));
    Oracle oracle;
    std::vector<std::pair<fs::path, Oracle>> snapshots;
    {
      AccountStore st = AccountStore::open(dir.string(), opt);
      for (int op = 0; op < 400; ++op) {
        uint8_t dice = rng.bytes(1)[0];
        std::string key =
            "acct-" + std::to_string(rng.bytes(1)[0] % 23);
        if (dice < 170) {
          Bytes value = rng.bytes(16 + (dice % 48));
          ASSERT_TRUE(st.put(key, value));
          oracle[key] = value;
        } else if (dice < 220) {
          bool there = oracle.contains(key);
          EXPECT_EQ(st.erase(key), there);
          oracle.erase(key);
        } else if (dice < 240) {
          auto got = st.get(key);
          auto want = oracle.find(key);
          ASSERT_EQ(got.has_value(), want != oracle.end());
          if (got.has_value()) {
            EXPECT_EQ(*got, want->second);
          }
        } else if (dice < 250) {
          CompactionReport rep = st.compact();
          EXPECT_EQ(rep.live_records, oracle.size());
          expect_matches(st, oracle);
        } else {
          // Crash point: snapshot the directory exactly as it is on disk.
          fs::path snap = fresh_dir("snap-" + std::to_string(seed) + "-" +
                                    std::to_string(op));
          fs::copy(dir, snap, fs::copy_options::recursive);
          snapshots.emplace_back(std::move(snap), oracle);
        }
      }
      expect_matches(st, oracle);
      EXPECT_TRUE(st.self_check());
    }
    // Reopen the final state...
    {
      AccountStore st = AccountStore::open(dir.string(), opt);
      expect_matches(st, oracle);
      EXPECT_TRUE(st.self_check());
    }
    // ...and every crash point, including garbage-tail variants.
    ASSERT_FALSE(snapshots.empty());
    for (auto& [snap, snap_oracle] : snapshots) {
      {
        AccountStore st = AccountStore::open(snap.string(), opt);
        expect_matches(st, snap_oracle);
      }
      // A torn append on top of the crash point must change nothing.
      uint32_t newest = 0;
      for (const auto& e : fs::directory_iterator(snap)) {
        if (auto id = Segment::id_from_name(e.path().filename().string())) {
          newest = std::max(newest, *id);
        }
      }
      {
        std::ofstream f(snap / Segment::file_name(newest),
                        std::ios::binary | std::ios::app);
        f << "R\x00\x00\x00\x40partial-frame-the-crash-cut-short";
      }
      StoreRecoveryReport rec;
      AccountStore st = AccountStore::open(snap.string(), opt, &rec);
      EXPECT_TRUE(rec.tail_discarded);
      expect_matches(st, snap_oracle);
      fs::remove_all(snap);
    }
    fs::remove_all(dir);
  }
}

// Corrupting bytes inside an already-acked frame is detected, not silently
// served: recovery drops the frame (and everything after it in that
// segment), never returns wrong bytes.
TEST(StoreChaos, CorruptedFrameNeverServed) {
  fs::path dir = fresh_dir("corrupt");
  Oracle oracle;
  {
    AccountStore st = AccountStore::open(dir.string());
    for (uint64_t i = 0; i < 20; ++i) {
      oracle[crash_key(i)] = crash_value(i);
      ASSERT_TRUE(st.put(crash_key(i), crash_value(i)));
    }
  }
  fs::path seg = dir / Segment::file_name(0);
  auto size = fs::file_size(seg);
  // Flip one byte two-thirds in (inside some frame's body).
  {
    std::fstream f(seg, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(size * 2 / 3));
    char c{};
    f.get(c);
    f.seekp(static_cast<std::streamoff>(size * 2 / 3));
    f.put(static_cast<char>(c ^ 0x5a));
  }
  StoreRecoveryReport rec;
  AccountStore st = AccountStore::open(dir.string(), {}, &rec);
  EXPECT_TRUE(rec.tail_discarded);
  EXPECT_GT(rec.torn_bytes, 0u);
  // Whatever survived is a strict prefix of the oracle's history: every
  // surviving key maps to a value some prefix op wrote.
  for (const std::string& key : st.keys()) {
    auto got = st.get(key);
    ASSERT_TRUE(got.has_value());
    bool matches_some_op = false;
    for (uint64_t i = 0; i < 20 && !matches_some_op; ++i) {
      matches_some_op = (crash_key(i) == key && crash_value(i) == *got);
    }
    EXPECT_TRUE(matches_some_op) << key;
  }
  EXPECT_TRUE(st.self_check());
  fs::remove_all(dir);
}

// Real process kill: the child appends the deterministic sequence as fast as
// it can; SIGKILL lands at an arbitrary moment. The survivor's last_version
// says how many ops became durable — replaying exactly that many into a map
// must reproduce the store byte for byte (prefix consistency: no holes, no
// reordering, no partial frames).
TEST(StoreChaos, ForkKillRecoversConsistentPrefix) {
  for (int round = 0; round < 3; ++round) {
    fs::path dir = fresh_dir("kill-" + std::to_string(round));
    fs::create_directories(dir);
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: append until killed. _exit on any failure so gtest state in
      // the forked copy never reports.
      try {
        StoreOptions opt;
        opt.segment_bytes = 4096;
        AccountStore st = AccountStore::open(dir.string(), opt);
        for (uint64_t i = 1; i <= 200000; ++i) {
          if (!st.put(crash_key(i), crash_value(i))) _exit(2);
        }
      } catch (...) {
        _exit(3);
      }
      _exit(0);
    }
    ::usleep(10000 + 17000 * round);  // let a varying amount of work happen
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));

    StoreRecoveryReport rec;
    AccountStore st = AccountStore::open(dir.string(), {}, &rec);
    uint64_t m = rec.last_version;
    ASSERT_GT(m, 0u) << "child was killed before any op landed";
    Oracle oracle;
    for (uint64_t i = 1; i <= m; ++i) oracle[crash_key(i)] = crash_value(i);
    expect_matches(st, oracle);
    EXPECT_TRUE(st.self_check());
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace hcpp::store
