// Parallel-vs-serial equivalence oracles for the SSE hot paths (DESIGN.md
// §9): index build and collection AEAD must be *reproducible* for a fixed
// seed + thread count, and must answer searches identically across thread
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "src/cipher/drbg.h"
#include "src/core/record.h"
#include "src/par/pool.h"
#include "src/sse/sse.h"

namespace hcpp::sse {
namespace {

std::vector<PlainFile> sample_files(size_t n, std::string_view seed) {
  cipher::Drbg rng(to_bytes(seed));
  return core::generate_phi_collection(n, rng);
}

std::map<std::string, std::vector<FileId>> postings(
    std::span<const PlainFile> files) {
  std::map<std::string, std::vector<FileId>> out;
  for (const PlainFile& f : files) {
    for (const std::string& kw : f.keywords) out[kw].push_back(f.id);
  }
  for (auto& [kw, ids] : out) std::sort(ids.begin(), ids.end());
  return out;
}

SecureIndex build_with(std::span<const PlainFile> files, const Keys& keys,
                       std::string_view seed, par::ThreadPool* pool) {
  cipher::Drbg rng(to_bytes(seed));
  return build_index(files, keys, rng, 1.25, pool);
}

TEST(SseParallel, PoolOfOneIsByteIdenticalToSerial) {
  auto files = sample_files(20, "par-eq");
  cipher::Drbg krng(to_bytes("par-eq-keys"));
  Keys keys = Keys::generate(krng);
  par::ThreadPool one(1, "sse");
  SecureIndex serial = build_with(files, keys, "par-eq-rng", nullptr);
  SecureIndex pooled = build_with(files, keys, "par-eq-rng", &one);
  EXPECT_EQ(serial.to_bytes(), pooled.to_bytes());
}

TEST(SseParallel, SameSeedSameThreadCountReproducesBytes) {
  auto files = sample_files(20, "par-repro");
  cipher::Drbg krng(to_bytes("par-repro-keys"));
  Keys keys = Keys::generate(krng);
  par::ThreadPool pool(4, "sse");
  SecureIndex a = build_with(files, keys, "par-repro-rng", &pool);
  SecureIndex b = build_with(files, keys, "par-repro-rng", &pool);
  EXPECT_EQ(a.to_bytes(), b.to_bytes());
}

TEST(SseParallel, SearchResultsIdenticalAcrossThreadCounts) {
  auto files = sample_files(40, "par-search");
  cipher::Drbg krng(to_bytes("par-search-keys"));
  Keys keys = Keys::generate(krng);
  auto truth = postings(files);

  par::ThreadPool two(2, "sse2");
  par::ThreadPool eight(8, "sse8");
  SecureIndex serial = build_with(files, keys, "par-search-rng", nullptr);
  SecureIndex si2 = build_with(files, keys, "par-search-rng", &two);
  SecureIndex si8 = build_with(files, keys, "par-search-rng", &eight);

  // The index *structure* is thread-count-invariant: same array size, same
  // table addresses (only per-node keys and padding randomness move).
  EXPECT_EQ(serial.array_a.size(), si2.array_a.size());
  EXPECT_EQ(serial.array_a.size(), si8.array_a.size());
  auto keys_of = [](const SecureIndex& si) {
    std::set<std::string> out;
    for (const auto& [k, v] : si.table_t) out.insert(k);
    return out;
  };
  EXPECT_EQ(keys_of(serial), keys_of(si2));
  EXPECT_EQ(keys_of(serial), keys_of(si8));

  TrapdoorGen gen(keys);
  for (const auto& [kw, expected] : truth) {
    for (const SecureIndex* si : {&serial, &si2, &si8}) {
      std::vector<FileId> got = search(*si, gen.make(kw));
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << "keyword " << kw;
    }
  }
  for (const SecureIndex* si : {&serial, &si2, &si8}) {
    EXPECT_TRUE(search(*si, gen.make("no-such-keyword")).empty());
  }
}

TEST(SseParallel, CollectionDecryptsIdenticallyAcrossThreadCounts) {
  auto files = sample_files(30, "par-aead");
  cipher::Drbg krng(to_bytes("par-aead-keys"));
  Keys keys = Keys::generate(krng);

  par::ThreadPool two(2, "aead2");
  par::ThreadPool eight(8, "aead8");
  auto encrypt_with = [&](par::ThreadPool* pool) {
    cipher::Drbg rng(to_bytes("par-aead-rng"));
    return encrypt_collection(files, keys, rng, pool);
  };
  EncryptedCollection serial = encrypt_with(nullptr);
  EncryptedCollection ec2 = encrypt_with(&two);
  EncryptedCollection ec8 = encrypt_with(&eight);

  auto contents = [&](const EncryptedCollection& ec, par::ThreadPool* pool) {
    std::vector<PlainFile> out = decrypt_collection(keys, ec, pool);
    std::vector<std::pair<FileId, Bytes>> pairs;
    for (const PlainFile& f : out) pairs.emplace_back(f.id, f.content);
    return pairs;
  };
  auto want = contents(serial, nullptr);
  EXPECT_EQ(want.size(), files.size());
  EXPECT_EQ(contents(ec2, nullptr), want);
  EXPECT_EQ(contents(ec8, nullptr), want);
  // Parallel decryption of a serially-encrypted collection and vice versa.
  EXPECT_EQ(contents(serial, &eight), want);
  EXPECT_EQ(contents(ec8, &two), want);
}

}  // namespace
}  // namespace hcpp::sse
