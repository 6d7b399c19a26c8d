// SSE (Fig. 2): index construction, search correctness against a brute-force
// model, ASSIGN/REVOKE trapdoor wrapping, serialization, leakage shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "src/cipher/drbg.h"
#include "src/core/record.h"
#include "src/hash/sha256.h"
#include "src/par/pool.h"
#include "src/sse/sse.h"

namespace hcpp::sse {
namespace {

std::vector<PlainFile> sample_files(size_t n, std::string_view seed) {
  cipher::Drbg rng(to_bytes(seed));
  return core::generate_phi_collection(n, rng);
}

// Ground truth: keyword -> sorted file ids.
std::map<std::string, std::vector<FileId>> postings(
    std::span<const PlainFile> files) {
  std::map<std::string, std::vector<FileId>> out;
  for (const PlainFile& f : files) {
    for (const std::string& kw : f.keywords) out[kw].push_back(f.id);
  }
  for (auto& [kw, ids] : out) std::sort(ids.begin(), ids.end());
  return out;
}

class SseCollectionSize : public ::testing::TestWithParam<size_t> {};

TEST_P(SseCollectionSize, SearchMatchesBruteForce) {
  auto files = sample_files(GetParam(), "sse-bf");
  cipher::Drbg rng(to_bytes("sse-bf-rng"));
  Keys keys = Keys::generate(rng);
  SecureIndex si = build_index(files, keys, rng);
  auto truth = postings(files);
  for (const auto& [kw, expected] : truth) {
    std::vector<FileId> got = search(si, make_trapdoor(keys, kw));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "keyword " << kw;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SseCollectionSize,
                         ::testing::Values(1, 2, 8, 32, 100));

TEST(Sse, AbsentKeywordReturnsNothing) {
  auto files = sample_files(10, "sse-absent");
  cipher::Drbg rng(to_bytes("sse-absent-rng"));
  Keys keys = Keys::generate(rng);
  SecureIndex si = build_index(files, keys, rng);
  EXPECT_TRUE(search(si, make_trapdoor(keys, "no-such-keyword")).empty());
}

TEST(Sse, WrongKeysFindNothing) {
  auto files = sample_files(10, "sse-wrongkey");
  cipher::Drbg rng(to_bytes("sse-wrongkey-rng"));
  Keys keys = Keys::generate(rng);
  Keys other = Keys::generate(rng);
  SecureIndex si = build_index(files, keys, rng);
  auto truth = postings(files);
  for (const auto& [kw, expected] : truth) {
    // With high probability the wrong trapdoor misses the table entirely.
    EXPECT_TRUE(search(si, make_trapdoor(other, kw)).empty());
  }
}

TEST(Sse, FileEncryptionRoundTripAndTamper) {
  auto files = sample_files(3, "sse-files");
  cipher::Drbg rng(to_bytes("sse-files-rng"));
  Keys keys = Keys::generate(rng);
  EncryptedCollection ec = encrypt_collection(files, keys, rng);
  ASSERT_EQ(ec.files.size(), files.size());
  for (const PlainFile& f : files) {
    PlainFile back = decrypt_file(keys, ec.files.at(f.id));
    EXPECT_EQ(back.id, f.id);
    EXPECT_EQ(back.name, f.name);
    EXPECT_EQ(back.content, f.content);
    EXPECT_EQ(back.keywords, f.keywords);
  }
  Bytes tampered = ec.files.at(files[0].id);
  tampered[tampered.size() / 2] ^= 1;
  EXPECT_THROW(decrypt_file(keys, tampered), std::exception);
}

TEST(Sse, IndexSerializationRoundTrip) {
  auto files = sample_files(12, "sse-ser");
  cipher::Drbg rng(to_bytes("sse-ser-rng"));
  Keys keys = Keys::generate(rng);
  SecureIndex si = build_index(files, keys, rng);
  SecureIndex back = SecureIndex::from_bytes(si.to_bytes());
  auto truth = postings(files);
  for (const auto& [kw, expected] : truth) {
    std::vector<FileId> got = search(back, make_trapdoor(keys, kw));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
}

TEST(Sse, CollectionSerializationRoundTrip) {
  auto files = sample_files(5, "sse-cser");
  cipher::Drbg rng(to_bytes("sse-cser-rng"));
  Keys keys = Keys::generate(rng);
  EncryptedCollection ec = encrypt_collection(files, keys, rng);
  EncryptedCollection back = EncryptedCollection::from_bytes(ec.to_bytes());
  EXPECT_EQ(back.files.size(), ec.files.size());
  for (const auto& [id, blob] : ec.files) EXPECT_EQ(back.files.at(id), blob);
}

TEST(Sse, KeysSerializationRoundTrip) {
  cipher::Drbg rng(to_bytes("sse-keys"));
  Keys keys = Keys::generate(rng);
  Keys back = Keys::from_bytes(keys.to_bytes());
  EXPECT_EQ(back.a, keys.a);
  EXPECT_EQ(back.b, keys.b);
  EXPECT_EQ(back.c, keys.c);
  EXPECT_EQ(back.d, keys.d);
  EXPECT_EQ(back.s, keys.s);
}

TEST(Sse, TrapdoorEncodingHasIntegrityTag) {
  cipher::Drbg rng(to_bytes("sse-td"));
  Keys keys = Keys::generate(rng);
  Trapdoor td = make_trapdoor(keys, "kw");
  Bytes enc = td.to_bytes();
  EXPECT_EQ(enc.size(), kTrapdoorSize);
  EXPECT_TRUE(Trapdoor::from_bytes(enc).has_value());
  enc[3] ^= 1;
  EXPECT_FALSE(Trapdoor::from_bytes(enc).has_value());
  EXPECT_FALSE(Trapdoor::from_bytes(Bytes(10, 0)).has_value());
}

TEST(Sse, WrapUnwrapTrapdoor) {
  cipher::Drbg rng(to_bytes("sse-wrap"));
  Keys keys = Keys::generate(rng);
  Trapdoor td = make_trapdoor(keys, "category:allergy");
  Bytes wrapped = wrap_trapdoor(keys.d, td);
  EXPECT_EQ(wrapped.size(), kTrapdoorSize);
  EXPECT_NE(wrapped, td.to_bytes());
  auto unwrapped = unwrap_trapdoor(keys.d, wrapped);
  ASSERT_TRUE(unwrapped.has_value());
  EXPECT_EQ(unwrapped->to_bytes(), td.to_bytes());
}

TEST(Sse, StaleDFailsUnwrap) {
  // The REVOKE property: after re-keying d, trapdoors wrapped under the old
  // d fail the server-side validity check.
  cipher::Drbg rng(to_bytes("sse-stale"));
  Keys keys = Keys::generate(rng);
  Trapdoor td = make_trapdoor(keys, "kw");
  Bytes wrapped_old = wrap_trapdoor(keys.d, td);
  Bytes d_new = rng.bytes(32);
  EXPECT_FALSE(unwrap_trapdoor(d_new, wrapped_old).has_value());
}

TEST(Sse, IndexHidesPostingsStructure) {
  // Every slot of A has the same size and the table keys are PRP outputs:
  // two collections with identical sizes but different contents produce
  // indexes of identical shape.
  auto files_a = sample_files(16, "shape-a");
  auto files_b = sample_files(16, "shape-b");
  cipher::Drbg rng(to_bytes("sse-shape-rng"));
  Keys keys = Keys::generate(rng);
  SecureIndex ia = build_index(files_a, keys, rng, 1.0);
  SecureIndex ib = build_index(files_b, keys, rng, 1.0);
  for (const Bytes& slot : ia.array_a) EXPECT_EQ(slot.size(), kNodeSize);
  // Same total node count (same generator parameters) => same array size.
  size_t nodes_a = 0, nodes_b = 0;
  for (const auto& [kw, ids] : postings(files_a)) nodes_a += ids.size();
  for (const auto& [kw, ids] : postings(files_b)) nodes_b += ids.size();
  if (nodes_a == nodes_b) {
    EXPECT_EQ(ia.array_a.size(), ib.array_a.size());
  }
}

TEST(Sse, PaddingFactorGrowsArray) {
  auto files = sample_files(20, "sse-pad");
  cipher::Drbg rng(to_bytes("sse-pad-rng"));
  Keys keys = Keys::generate(rng);
  SecureIndex tight = build_index(files, keys, rng, 1.0);
  SecureIndex padded = build_index(files, keys, rng, 2.0);
  EXPECT_GE(padded.array_a.size(), tight.array_a.size() * 2 - 1);
  // Search still works on the padded index.
  auto truth = postings(files);
  const auto& [kw, expected] = *truth.begin();
  std::vector<FileId> got = search(padded, make_trapdoor(keys, kw));
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  EXPECT_THROW(build_index(files, keys, rng, 0.5), std::invalid_argument);
}

TEST(Sse, ServerStorageIsLinearInN) {
  cipher::Drbg rng(to_bytes("sse-linear-rng"));
  Keys keys = Keys::generate(rng);
  auto small = sample_files(10, "lin");
  auto large = sample_files(40, "lin");
  size_t s_small = build_index(small, keys, rng, 1.0).size_bytes();
  size_t s_large = build_index(large, keys, rng, 1.0).size_bytes();
  // 4x files => roughly 4x index (within a factor of 2 slack for keyword
  // distribution noise).
  EXPECT_GT(s_large, s_small * 2);
  EXPECT_LT(s_large, s_small * 8);
}

TEST(Sse, MultiKeywordFilesAppearInEachList) {
  PlainFile f;
  f.id = 7;
  f.name = "multi";
  f.content = to_bytes("x");
  f.keywords = {"kw-a", "kw-b", "kw-c"};
  cipher::Drbg rng(to_bytes("sse-multi-rng"));
  Keys keys = Keys::generate(rng);
  std::vector<PlainFile> files = {f};
  SecureIndex si = build_index(files, keys, rng);
  for (const std::string& kw : f.keywords) {
    EXPECT_EQ(search(si, make_trapdoor(keys, kw)), std::vector<FileId>{7});
  }
}

// SHA-256 over every array slot in order, then every table entry (key, value)
// in sorted key order: a digest of the complete index bytes.
std::string index_digest(const SecureIndex& si) {
  hash::Sha256 h;
  for (const Bytes& slot : si.array_a) h.update(slot);
  std::map<std::string, Bytes> table(si.table_t.begin(), si.table_t.end());
  for (const auto& [key, value] : table) {
    h.update(to_bytes(key));
    h.update(value);
  }
  hash::Digest d = h.finish();
  return hex_encode(BytesView(d.data(), d.size()));
}

// The serial and the 4-worker index for fixed files and a fixed Drbg seed,
// pinned at commit 71dd79c, where φ was evaluated twice for every node but
// the head and SHA-256 ran only on the portable kernel. Reusing each node's
// next address and the SHA-NI kernel must not change a byte.
TEST(Sse, IndexBytesPinnedAcrossBuildSchedules) {
  auto files = sample_files(64, "sse-pin");
  const std::pair<size_t, const char*> kPinned[] = {
      {1,
       "64add12000d91b1a78c903d250cab01b11e94428932fa14e1449e89b4f26eac9"},
      {4,
       "39c308cbaa5f18be41eac81925ed17fde1d23e31e4f0c9b95523b8caa7f7c2eb"},
  };
  for (const auto& [workers, expected] : kPinned) {
    cipher::Drbg rng(to_bytes("sse-pin-rng"));
    Keys keys = Keys::generate(rng);
    par::ThreadPool pool(workers, "pin");
    SecureIndex si = build_index(files, keys, rng, 1.25, &pool);
    EXPECT_EQ(index_digest(si), expected) << workers << " workers";
  }
}

}  // namespace
}  // namespace hcpp::sse
