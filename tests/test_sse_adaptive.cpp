// The adaptive SSE-2-style construction (§II.B's "more robust security
// notion" drop-in): correctness vs brute force, bound/padding behaviour,
// the trapdoor-size trade versus SSE-1, serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/cipher/drbg.h"
#include "src/core/record.h"
#include "study/sse/adaptive.h"

namespace hcpp::sse::adaptive {
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
  return out;
}

class AdaptiveSize : public ::testing::TestWithParam<size_t> {};

TEST_P(AdaptiveSize, SearchMatchesBruteForce) {
  auto files = sample_files(GetParam(), "adp-bf");
  cipher::Drbg rng(to_bytes("adp-bf-rng"));
  Bytes key = rng.bytes(32);
  AdaptiveIndex index = build_index(files, key, rng);
  for (const auto& [kw, expected] : postings(files)) {
    std::vector<FileId> got =
        search(index, make_trapdoor(key, kw, index.bound));
    EXPECT_EQ(got, expected) << "keyword " << kw;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AdaptiveSize,
                         ::testing::Values(1, 4, 16, 64, 200));

TEST(Adaptive, AbsentKeywordReturnsNothing) {
  auto files = sample_files(10, "adp-absent");
  cipher::Drbg rng(to_bytes("adp-absent-rng"));
  Bytes key = rng.bytes(32);
  AdaptiveIndex index = build_index(files, key, rng);
  EXPECT_TRUE(
      search(index, make_trapdoor(key, "no-such", index.bound)).empty());
}

TEST(Adaptive, WrongKeyFindsNothing) {
  auto files = sample_files(10, "adp-key");
  cipher::Drbg rng(to_bytes("adp-key-rng"));
  Bytes key = rng.bytes(32);
  Bytes other = rng.bytes(32);
  AdaptiveIndex index = build_index(files, key, rng);
  for (const auto& [kw, expected] : postings(files)) {
    EXPECT_TRUE(search(index, make_trapdoor(other, kw, index.bound)).empty());
  }
}

TEST(Adaptive, BoundIsPowerOfTwoCoveringLongestList) {
  auto files = sample_files(50, "adp-bound");
  cipher::Drbg rng(to_bytes("adp-bound-rng"));
  Bytes key = rng.bytes(32);
  AdaptiveIndex index = build_index(files, key, rng);
  uint32_t longest = 0;
  for (const auto& [kw, ids] : postings(files)) {
    longest = std::max<uint32_t>(longest, static_cast<uint32_t>(ids.size()));
  }
  EXPECT_GE(index.bound, longest);
  EXPECT_EQ(index.bound & (index.bound - 1), 0u);  // power of two
}

TEST(Adaptive, ExplicitBoundBelowLongestRejected) {
  auto files = sample_files(60, "adp-lowbound");
  cipher::Drbg rng(to_bytes("adp-lowbound-rng"));
  Bytes key = rng.bytes(32);
  EXPECT_THROW(build_index(files, key, rng, /*bound=*/1),
               std::invalid_argument);
}

TEST(Adaptive, PaddingAddsDummyEntries) {
  auto files = sample_files(30, "adp-pad");
  cipher::Drbg rng(to_bytes("adp-pad-rng"));
  Bytes key = rng.bytes(32);
  AdaptiveIndex tight = build_index(files, key, rng, 0, 1.0);
  AdaptiveIndex padded = build_index(files, key, rng, 0, 2.0);
  EXPECT_GE(padded.entries.size(), tight.entries.size() * 2 - 1);
  // Search still exact on the padded index.
  auto truth = postings(files);
  const auto& [kw, expected] = *truth.begin();
  EXPECT_EQ(search(padded, make_trapdoor(key, kw, padded.bound)), expected);
}

TEST(Adaptive, TrapdoorSizeIsLinearInBound) {
  // SSE-1 trapdoors are constant-size (60 bytes); SSE-2 trapdoors grow with
  // the postings cap — the trade §II.B alludes to and E1 measures.
  cipher::Drbg rng(to_bytes("adp-tdsize"));
  Bytes key = rng.bytes(32);
  size_t t4 = make_trapdoor(key, "kw", 4).to_bytes().size();
  size_t t64 = make_trapdoor(key, "kw", 64).to_bytes().size();
  EXPECT_GT(t64, 10 * t4);
  EXPECT_EQ(Trapdoor{}.address.size(), 0u);  // unrelated SSE-1 type intact
}

TEST(Adaptive, IndexSerializationRoundTrip) {
  auto files = sample_files(20, "adp-ser");
  cipher::Drbg rng(to_bytes("adp-ser-rng"));
  Bytes key = rng.bytes(32);
  AdaptiveIndex index = build_index(files, key, rng);
  AdaptiveIndex back = AdaptiveIndex::from_bytes(index.to_bytes());
  EXPECT_EQ(back.bound, index.bound);
  EXPECT_EQ(back.entries.size(), index.entries.size());
  for (const auto& [kw, expected] : postings(files)) {
    EXPECT_EQ(search(back, make_trapdoor(key, kw, back.bound)), expected);
  }
}

TEST(Adaptive, TrapdoorSerializationRoundTrip) {
  cipher::Drbg rng(to_bytes("adp-td-ser"));
  Bytes key = rng.bytes(32);
  AdaptiveTrapdoor td = make_trapdoor(key, "kw", 8);
  auto back = AdaptiveTrapdoor::from_bytes(td.to_bytes());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->slots.size(), td.slots.size());
  EXPECT_EQ(back->slots[3], td.slots[3]);
  EXPECT_FALSE(AdaptiveTrapdoor::from_bytes(to_bytes("garbage")).has_value());
}

TEST(Adaptive, SameShapeDifferentContentIndexesIndistinguishableBySize) {
  auto a = sample_files(25, "adp-shape-a");
  auto b = sample_files(25, "adp-shape-b");
  cipher::Drbg rng(to_bytes("adp-shape-rng"));
  Bytes key = rng.bytes(32);
  AdaptiveIndex ia = build_index(a, key, rng, 64, 1.5);
  AdaptiveIndex ib = build_index(b, key, rng, 64, 1.5);
  // Entry *values* are uniformly 8-byte masked blobs in both.
  for (const auto& [label, value] : ia.entries) EXPECT_EQ(value.size(), 8u);
  for (const auto& [label, value] : ib.entries) EXPECT_EQ(value.size(), 8u);
}

}  // namespace
}  // namespace hcpp::sse::adaptive
