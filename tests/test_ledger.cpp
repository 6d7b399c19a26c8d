// src/ledger unit suite: hash-chain commitments, tamper detection on
// arbitrary (possibly forged) entry vectors, Merkle inclusion proofs,
// checkpoint pinning, the patient notification stream, the WAL
// crash/recovery path including torn-tail truncation, and an anchor
// authority's check of the lower levels' countersignatures.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/cipher/drbg.h"
#include "src/curve/params.h"
#include "src/ledger/anchor.h"
#include "src/ledger/ledger.h"
#include "tests/temp_path.h"

namespace hcpp::ledger {
namespace {

AccessEvent make_event(uint64_t i) {
  AccessEvent ev;
  ev.kind = (i % 2 == 0) ? EventKind::kTrace : EventKind::kAccess;
  ev.actor_id = "dr-" + std::to_string(i);
  ev.subject = to_bytes("tp-" + std::to_string(i));
  if (ev.kind == EventKind::kAccess) {
    ev.keywords = {"diabetes", "kw-" + std::to_string(i)};
  }
  ev.t10 = 100 + i;
  ev.t11 = 200 + i;
  ev.sig = to_bytes("sig-" + std::to_string(i));
  return ev;
}

Ledger make_ledger(size_t n, const std::string& id = "test") {
  Ledger led(id);
  for (size_t i = 0; i < n; ++i) led.append(make_event(i));
  return led;
}

/// Unsigned checkpoint over the first `count` entries — verify_against()
/// only consults the digest fields, so tests can anchor without a domain.
AnchoredCheckpoint anchor_prefix(const Ledger& led, uint64_t count,
                                 uint64_t epoch = 0) {
  AnchoredCheckpoint a;
  a.cp.ledger_id = led.id();
  a.cp.epoch = epoch;
  a.cp.count = count;
  a.cp.head_hash = led.entry(count - 1).entry_hash;
  a.cp.merkle_root = led.merkle_root(count);
  a.cp.t = 7;
  return a;
}

std::string temp_wal(const char* name) {
  return fresh_temp_path(name).string();
}

TEST(Ledger, EventRoundTrip) {
  AccessEvent ev = make_event(3);
  AccessEvent back = AccessEvent::from_bytes(ev.to_bytes());
  EXPECT_EQ(back.kind, ev.kind);
  EXPECT_EQ(back.actor_id, ev.actor_id);
  EXPECT_EQ(back.subject, ev.subject);
  EXPECT_EQ(back.keywords, ev.keywords);
  EXPECT_EQ(back.t10, ev.t10);
  EXPECT_EQ(back.t11, ev.t11);
  EXPECT_EQ(back.sig, ev.sig);
}

TEST(Ledger, MalformedEventRejected) {
  Bytes b = make_event(0).to_bytes();
  b[0] = 99;  // invalid kind tag
  EXPECT_THROW((void)AccessEvent::from_bytes(b), std::exception);
  EXPECT_THROW((void)AccessEvent::from_bytes(Bytes{}), std::exception);
}

// One event has one encoding: a payload with a byte appended is refused,
// not decoded to the same event.
TEST(Ledger, EventWithTrailingByteRefused) {
  for (uint64_t i : {0u, 3u}) {
    Bytes b = make_event(i).to_bytes();
    b.push_back(0);
    EXPECT_THROW((void)AccessEvent::from_bytes(b), std::invalid_argument);
  }
}

TEST(Ledger, ChainAppendsAndVerifies) {
  Ledger led = make_ledger(7);
  EXPECT_EQ(led.size(), 7u);
  ChainVerdict v = led.verify_chain();
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(v.checked, 7u);
  // Each entry links to its predecessor, starting from genesis.
  EXPECT_EQ(led.entry(0).prev_hash, Ledger::genesis_hash());
  for (uint64_t i = 1; i < 7; ++i) {
    EXPECT_EQ(led.entry(i).prev_hash, led.entry(i - 1).entry_hash);
  }
  EXPECT_EQ(led.head_hash(), led.entry(6).entry_hash);
}

TEST(Ledger, EmptyChainVerifies) {
  Ledger led("empty");
  EXPECT_TRUE(led.verify_chain().ok());
  EXPECT_EQ(led.head_hash(), Ledger::genesis_hash());
}

TEST(Ledger, GapDetected) {
  Ledger led = make_ledger(5);
  std::vector<LedgerEntry> entries = led.entries();
  entries.erase(entries.begin() + 2);  // drop entry 2: seqs 0,1,3,4
  ChainVerdict v = Ledger::from_entries("test", std::move(entries))
                       .verify_chain();
  EXPECT_EQ(v.defect, ChainVerdict::Defect::kGap);
  EXPECT_EQ(v.at_seq, 2u);  // position where seq 3 showed up instead of 2
  EXPECT_EQ(v.checked, 2u);
}

TEST(Ledger, ReorderDetected) {
  Ledger led = make_ledger(5);
  std::vector<LedgerEntry> entries = led.entries();
  std::swap(entries[1], entries[3]);
  ChainVerdict v = Ledger::from_entries("test", std::move(entries))
                       .verify_chain();
  // A swap first shows up as a sequence-number violation at the swap point.
  EXPECT_EQ(v.defect, ChainVerdict::Defect::kGap);
  EXPECT_EQ(v.at_seq, 1u);
  EXPECT_EQ(v.checked, 1u);
}

TEST(Ledger, PayloadTamperDetected) {
  Ledger led = make_ledger(5);
  std::vector<LedgerEntry> entries = led.entries();
  entries[2].payload[0] ^= 1;  // silently edit history
  ChainVerdict v = Ledger::from_entries("test", std::move(entries))
                       .verify_chain();
  EXPECT_EQ(v.defect, ChainVerdict::Defect::kBadHash);
  EXPECT_EQ(v.at_seq, 2u);
}

TEST(Ledger, RecomputedTamperBreaksLink) {
  // A smarter attacker re-hashes the edited entry — the *next* entry's
  // prev_hash gives it away.
  Ledger led = make_ledger(5);
  std::vector<LedgerEntry> entries = led.entries();
  entries[2].payload[0] ^= 1;
  entries[2].entry_hash =
      entry_hash(2, entries[2].payload, entries[2].prev_hash);
  ChainVerdict v = Ledger::from_entries("test", std::move(entries))
                       .verify_chain();
  EXPECT_EQ(v.defect, ChainVerdict::Defect::kBrokenLink);
  EXPECT_EQ(v.at_seq, 3u);
}

TEST(Ledger, TruncationDetectedAgainstAnchor) {
  Ledger led = make_ledger(6);
  AnchoredCheckpoint anchor = anchor_prefix(led, 6);
  EXPECT_TRUE(led.verify_against(anchor).ok());
  // Chop the newest two entries: chain still internally valid, but short.
  std::vector<LedgerEntry> entries = led.entries();
  entries.resize(4);
  Ledger cut = Ledger::from_entries("test", std::move(entries));
  EXPECT_TRUE(cut.verify_chain().ok());
  ChainVerdict v = cut.verify_against(anchor);
  EXPECT_EQ(v.defect, ChainVerdict::Defect::kTruncated);
}

TEST(Ledger, ForkDetectedAgainstAnchor) {
  Ledger led = make_ledger(6);
  AnchoredCheckpoint anchor = anchor_prefix(led, 6);
  // Rewrite entry 4 and rebuild a fully self-consistent chain from there —
  // only the anchored digest can tell the histories apart.
  std::vector<LedgerEntry> entries = led.entries();
  AccessEvent forged = make_event(4);
  forged.actor_id = "dr-nobody";  // launder the accountable physician
  entries[4].payload = forged.to_bytes();
  for (size_t i = 4; i < entries.size(); ++i) {
    entries[i].prev_hash =
        (i == 0) ? Ledger::genesis_hash() : entries[i - 1].entry_hash;
    entries[i].entry_hash =
        entry_hash(i, entries[i].payload, entries[i].prev_hash);
  }
  Ledger forked = Ledger::from_entries("test", std::move(entries));
  EXPECT_TRUE(forked.verify_chain().ok());
  ChainVerdict v = forked.verify_against(anchor);
  EXPECT_EQ(v.defect, ChainVerdict::Defect::kForked);
}

TEST(Ledger, MerkleProofsVerifyForAllSizes) {
  Ledger led = make_ledger(9);
  for (uint64_t count = 1; count <= 9; ++count) {  // odd widths included
    Bytes root = led.merkle_root(count);
    for (uint64_t seq = 0; seq < count; ++seq) {
      InclusionProof proof = led.prove(seq, count);
      EXPECT_TRUE(Ledger::verify_proof(root, proof))
          << "seq " << seq << " of " << count;
      // Proofs are O(log n): ceil(log2(count)) siblings at most.
      EXPECT_LE(proof.path.size(), 4u);
    }
  }
}

TEST(Ledger, MerkleProofRejectsTampering) {
  Ledger led = make_ledger(8);
  Bytes root = led.merkle_root(8);
  InclusionProof proof = led.prove(3, 8);
  InclusionProof bad_leaf = proof;
  bad_leaf.leaf[0] ^= 1;
  EXPECT_FALSE(Ledger::verify_proof(root, bad_leaf));
  InclusionProof bad_path = proof;
  bad_path.path[1].second[0] ^= 1;
  EXPECT_FALSE(Ledger::verify_proof(root, bad_path));
  Bytes other_root = led.merkle_root(7);
  EXPECT_FALSE(Ledger::verify_proof(other_root, proof));
}

TEST(Ledger, CheckpointPinnedAcrossAppends) {
  Ledger led = make_ledger(4);
  Checkpoint cp = led.checkpoint_for_epoch(0, /*now=*/50);
  EXPECT_EQ(cp.count, 4u);
  // Entries appended mid-anchoring roll into the next epoch: the pinned
  // statement must not move.
  led.append(make_event(4));
  Checkpoint again = led.checkpoint_for_epoch(0, /*now=*/99);
  EXPECT_EQ(again.statement(), cp.statement());
  // Once anchored, the next epoch covers the new tail.
  led.record_anchor({cp, {}});
  EXPECT_NE(led.anchor_for_epoch(0), nullptr);
  Checkpoint next = led.checkpoint_for_epoch(1, /*now=*/120);
  EXPECT_EQ(next.count, 5u);
}

TEST(Ledger, CheckpointRoundTrip) {
  Ledger led = make_ledger(3);
  Checkpoint cp = led.checkpoint_for_epoch(0, 42);
  Checkpoint back = Checkpoint::from_bytes(cp.to_bytes());
  EXPECT_EQ(back.statement(), cp.statement());
  AnchoredCheckpoint a{cp, {{"hospital-anchor", to_bytes("sig")}}};
  AnchoredCheckpoint aback = AnchoredCheckpoint::from_bytes(a.to_bytes());
  ASSERT_EQ(aback.sigs.size(), 1u);
  EXPECT_EQ(aback.sigs[0].authority_id, "hospital-anchor");
  EXPECT_EQ(aback.cp.merkle_root, cp.merkle_root);
}

TEST(Ledger, NotificationStream) {
  Ledger led("alerts");
  EXPECT_EQ(led.pending_notifications(), 0u);
  led.append(make_event(0));
  led.append(make_event(1));
  EXPECT_EQ(led.pending_notifications(), 2u);
  std::vector<Notification> alerts = led.drain_notifications();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].seq, 0u);
  EXPECT_EQ(alerts[1].event.actor_id, "dr-1");
  EXPECT_EQ(led.pending_notifications(), 0u);
}

// ---- WAL / crash recovery --------------------------------------------------

TEST(LedgerWal, RecoverReplaysAppends) {
  std::string path = temp_wal("wal-replay");
  {
    Ledger led("tr");
    ASSERT_TRUE(led.attach_wal(path));
    for (size_t i = 0; i < 5; ++i) led.append(make_event(i));
  }  // "crash": ledger object goes away, WAL remains
  RecoveryReport rep;
  Ledger back = Ledger::recover(path, "tr", &rep);
  EXPECT_EQ(rep.entries, 5u);
  EXPECT_FALSE(rep.tail_discarded);
  EXPECT_EQ(back.size(), 5u);
  EXPECT_TRUE(back.verify_chain().ok());
  EXPECT_EQ(back.head_hash(), make_ledger(5).head_hash());
  // The recovered ledger keeps journaling: another append, another recover.
  back.append(make_event(5));
  Ledger again = Ledger::recover(path, "tr");
  EXPECT_EQ(again.size(), 6u);
  std::filesystem::remove(path);
}

TEST(LedgerWal, TornTailDiscarded) {
  std::string path = temp_wal("wal-torn");
  {
    Ledger led("tr");
    ASSERT_TRUE(led.attach_wal(path));
    for (size_t i = 0; i < 4; ++i) led.append(make_event(i));
  }
  const auto full = std::filesystem::file_size(path);
  {
    // Crash mid-append: a frame header promising more bytes than were
    // flushed before power loss.
    std::ofstream f(path, std::ios::binary | std::ios::app);
    const char torn[] = {'E', 0x00, 0x00, 0x40, 0x00, 'x', 'y'};
    f.write(torn, sizeof(torn));
  }
  RecoveryReport rep;
  Ledger back = Ledger::recover(path, "tr", &rep);
  EXPECT_EQ(rep.entries, 4u);
  EXPECT_TRUE(rep.tail_discarded);
  EXPECT_GT(rep.torn_bytes, 0u);
  EXPECT_EQ(back.size(), 4u);
  EXPECT_TRUE(back.verify_chain().ok());
  // The torn bytes were physically truncated away.
  EXPECT_EQ(std::filesystem::file_size(path), full);
  std::filesystem::remove(path);
}

TEST(LedgerWal, CorruptMiddleKeepsValidPrefix) {
  std::string path = temp_wal("wal-corrupt");
  {
    Ledger led("tr");
    ASSERT_TRUE(led.attach_wal(path));
    for (size_t i = 0; i < 6; ++i) led.append(make_event(i));
  }
  // Flip one byte somewhere past the first frames: recovery keeps the
  // longest chain-consistent prefix and discards the rest.
  const auto size = std::filesystem::file_size(path);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char x = static_cast<char>(f.get());
    f.seekp(static_cast<std::streamoff>(size / 2));
    x = static_cast<char>(x ^ 0x5a);
    f.write(&x, 1);
  }
  RecoveryReport rep;
  Ledger back = Ledger::recover(path, "tr", &rep);
  EXPECT_TRUE(rep.tail_discarded);
  EXPECT_LT(back.size(), 6u);
  EXPECT_TRUE(back.verify_chain().ok());
  std::filesystem::remove(path);
}

TEST(LedgerWal, AnchorsAndPinsSurviveRecovery) {
  std::string path = temp_wal("wal-anchors");
  Bytes pinned_statement;
  {
    Ledger led("tr");
    ASSERT_TRUE(led.attach_wal(path));
    for (size_t i = 0; i < 3; ++i) led.append(make_event(i));
    led.record_anchor(anchor_prefix(led, 3, /*epoch=*/0));
    led.append(make_event(3));
    // Epoch 1 pinned but not yet anchored when the crash hits.
    pinned_statement = led.checkpoint_for_epoch(1, /*now=*/60).statement();
    led.append(make_event(4));
  }
  RecoveryReport rep;
  Ledger back = Ledger::recover(path, "tr", &rep);
  EXPECT_EQ(rep.entries, 5u);
  EXPECT_EQ(rep.anchors, 1u);
  ASSERT_NE(back.last_anchor(), nullptr);
  EXPECT_TRUE(back.verify_against(*back.last_anchor()).ok());
  // The pre-crash pin holds: a post-recovery re-anchor of epoch 1 presents
  // the identical statement, so remote authorities see no divergence.
  EXPECT_EQ(back.checkpoint_for_epoch(1, /*now=*/999).statement(),
            pinned_statement);
  std::filesystem::remove(path);
}

TEST(LedgerWal, MissingFileRecoversEmpty) {
  std::string path = temp_wal("wal-missing");
  RecoveryReport rep;
  Ledger back = Ledger::recover(path, "tr", &rep);
  EXPECT_EQ(rep.entries, 0u);
  EXPECT_EQ(back.size(), 0u);
  // And the WAL is live: an append creates the file.
  back.append(make_event(0));
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(Ledger::recover(path, "tr").size(), 1u);
  std::filesystem::remove(path);
}

// An authority checks every lower level's countersignature (one batched IBS
// verification) and refuses the chain if any fails — here only the second
// of two, well-formed but made with the wrong key — before it looks at its
// acceptance map.
TEST(Anchor, SecondForgedCountersignatureRefused) {
  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kTest);
  cipher::Drbg rng(to_bytes("anchor-forged"));
  const ibc::Domain d(ctx, rng);
  AnchorAuthority hospital(d.pub(), "hospital-anchor",
                           d.extract("hospital-anchor"));
  AnchorAuthority state(d.pub(), "state-anchor", d.extract("state-anchor"));
  AnchorAuthority federal(d.pub(), "federal-anchor",
                          d.extract("federal-anchor"));
  Ledger led = make_ledger(4, "anchored");
  AnchoredCheckpoint partial = anchor_prefix(led, 4);
  std::optional<Bytes> s1 = hospital.handle_anchor(partial);
  ASSERT_TRUE(s1.has_value());
  partial.sigs.push_back({"hospital-anchor", *s1});
  std::optional<Bytes> s2 = state.handle_anchor(partial);
  ASSERT_TRUE(s2.has_value());
  partial.sigs.push_back({"state-anchor", *s2});

  AnchoredCheckpoint forged = partial;
  forged.sigs[1].sig = ibc::ibs_sign(ctx, d.extract("hospital-anchor"),
                                     "state-anchor", partial.cp.statement(),
                                     rng)
                           .to_bytes();
  EXPECT_FALSE(federal.handle_anchor(forged).has_value());
  // A malformed encoding is refused the same way.
  AnchoredCheckpoint garbled = partial;
  garbled.sigs[1].sig.resize(3);
  EXPECT_FALSE(federal.handle_anchor(garbled).has_value());
  // Neither refusal reached the acceptance map: the honest chain still signs.
  EXPECT_TRUE(federal.handle_anchor(partial).has_value());
  EXPECT_TRUE(federal.divergence_log().empty());
}

}  // namespace
}  // namespace hcpp::ledger
