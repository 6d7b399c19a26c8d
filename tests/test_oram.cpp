// Square-root ORAM (§VI.B's [15]/[16] alternative): correctness across
// reshuffles and the obliviousness of the server-visible trace.
#include <gtest/gtest.h>

#include <set>

#include "src/cipher/drbg.h"
#include "study/oram/oram.h"

namespace hcpp::oram {
namespace {

std::vector<Bytes> make_blocks(size_t n, size_t size, uint8_t tag) {
  std::vector<Bytes> blocks(n);
  for (size_t i = 0; i < n; ++i) {
    blocks[i].assign(size, static_cast<uint8_t>(tag + i));
  }
  return blocks;
}

TEST(Oram, ReadsReturnStoredBlocks) {
  cipher::Drbg rng(to_bytes("oram-read"));
  ObliviousStore store(make_blocks(10, 32, 1), rng);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(store.read(i), Bytes(32, static_cast<uint8_t>(1 + i)));
  }
}

TEST(Oram, WritesPersistAcrossReshuffles) {
  cipher::Drbg rng(to_bytes("oram-write"));
  ObliviousStore store(make_blocks(9, 16, 0), rng);
  store.write(4, Bytes(16, 0xaa));
  // Run enough accesses to force several reshuffles (epoch = 3 here).
  for (int round = 0; round < 12; ++round) {
    (void)store.read(static_cast<size_t>(round) % 9);
  }
  EXPECT_GE(store.trace().reshuffles, 3u);
  EXPECT_EQ(store.read(4), Bytes(16, 0xaa));
}

TEST(Oram, RepeatedReadsOfOneBlockStayCorrect) {
  cipher::Drbg rng(to_bytes("oram-repeat"));
  ObliviousStore store(make_blocks(16, 24, 7), rng);
  for (int round = 0; round < 20; ++round) {
    EXPECT_EQ(store.read(3), Bytes(24, 10));
  }
}

TEST(Oram, EpochLengthIsSqrtN) {
  cipher::Drbg rng(to_bytes("oram-epoch"));
  ObliviousStore a(make_blocks(16, 8, 0), rng);
  EXPECT_EQ(a.epoch_length(), 4u);
  ObliviousStore b(make_blocks(100, 8, 0), rng);
  EXPECT_EQ(b.epoch_length(), 10u);
  ObliviousStore c(make_blocks(5, 8, 0), rng);
  EXPECT_EQ(c.epoch_length(), 3u);
}

TEST(Oram, NoMainSlotRepeatsWithinAnEpoch) {
  // The core obliviousness invariant: within one epoch every touched main
  // slot is distinct, whether the pattern repeats a block or not.
  cipher::Drbg rng(to_bytes("oram-norepeat"));
  ObliviousStore store(make_blocks(25, 16, 0), rng);
  for (int i = 0; i < 5; ++i) (void)store.read(0);  // worst case: same block
  std::set<uint64_t> seen(store.trace().main_slots.begin(),
                          store.trace().main_slots.end());
  EXPECT_EQ(seen.size(), store.trace().main_slots.size());
}

TEST(Oram, TraceShapeDependsOnlyOnAccessCount) {
  // Two very different logical patterns of equal length must produce traces
  // with identical structure: same number of main reads, shelter scans and
  // reshuffles.
  cipher::Drbg rng_a(to_bytes("oram-shape"));
  cipher::Drbg rng_b(to_bytes("oram-shape"));
  ObliviousStore a(make_blocks(16, 16, 0), rng_a);
  ObliviousStore b(make_blocks(16, 16, 0), rng_b);
  for (int i = 0; i < 10; ++i) (void)a.read(0);             // degenerate
  for (int i = 0; i < 10; ++i) (void)b.read(static_cast<size_t>(i) % 16);
  EXPECT_EQ(a.trace().main_slots.size(), b.trace().main_slots.size());
  EXPECT_EQ(a.trace().shelter_scans, b.trace().shelter_scans);
  EXPECT_EQ(a.trace().reshuffles, b.trace().reshuffles);
}

TEST(Oram, RejectsBadInput) {
  cipher::Drbg rng(to_bytes("oram-bad"));
  EXPECT_THROW(ObliviousStore({}, rng), std::invalid_argument);
  std::vector<Bytes> uneven = {Bytes(8, 0), Bytes(9, 0)};
  EXPECT_THROW(ObliviousStore(std::move(uneven), rng),
               std::invalid_argument);
  ObliviousStore store(make_blocks(4, 8, 0), rng);
  EXPECT_THROW((void)store.read(4), std::out_of_range);
  EXPECT_THROW(store.write(0, Bytes(7, 0)), std::invalid_argument);
}

TEST(Oram, BandwidthOverheadIsSubstantial) {
  // §VI.B concedes these schemes come "with lower efficiency": per access
  // the client moves at least a shelter scan + one block, and reshuffles
  // move the whole store.
  cipher::Drbg rng(to_bytes("oram-cost"));
  ObliviousStore store(make_blocks(64, 64, 0), rng);
  for (int i = 0; i < 8; ++i) (void)store.read(static_cast<size_t>(i));
  uint64_t direct = 8 * 64;  // what a non-oblivious server would transfer
  EXPECT_GT(store.trace().bytes_transferred, direct * 2);
}

TEST(Oram, SingleBlockStoreWorks) {
  cipher::Drbg rng(to_bytes("oram-one"));
  ObliviousStore store(make_blocks(1, 8, 5), rng);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(store.read(0), Bytes(8, 5));
  store.write(0, Bytes(8, 9));
  EXPECT_EQ(store.read(0), Bytes(8, 9));
}

}  // namespace
}  // namespace hcpp::oram
