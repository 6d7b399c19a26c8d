#include "src/ledger/ledger.h"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "src/common/serialize.h"
#include "src/hash/sha256.h"
#include "src/obs/metrics.h"

namespace hcpp::ledger {

static_assert(kHashSize == hash::kSha256DigestSize);

namespace {

constexpr char kWalMagic[] = {'H', 'C', 'P', 'L', '\x01'};
constexpr size_t kWalMagicSize = sizeof(kWalMagic);
constexpr uint8_t kFrameEntry = 'E';
constexpr uint8_t kFrameAnchor = 'A';
constexpr uint8_t kFramePending = 'P';

double steady_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Domain-separated Merkle hashing (second-preimage hardening): leaves and
// interior nodes can never be confused for one another.
Bytes leaf_hash(BytesView entry_hash) {
  Bytes b;
  b.push_back(0x00);
  append(b, entry_hash);
  return hash::sha256_bytes(b);
}

Bytes node_hash(BytesView left, BytesView right) {
  Bytes b;
  b.push_back(0x01);
  append(b, left);
  append(b, right);
  return hash::sha256_bytes(b);
}

}  // namespace

// ---- AccessEvent -----------------------------------------------------------

Bytes AccessEvent::to_bytes() const {
  io::Writer w;
  w.u8(static_cast<uint8_t>(kind));
  w.str(actor_id);
  w.bytes(subject);
  w.u32(static_cast<uint32_t>(keywords.size()));
  for (const std::string& kw : keywords) w.str(kw);
  w.u64(t10);
  w.u64(t11);
  w.bytes(sig);
  return w.take();
}

AccessEvent AccessEvent::from_bytes(BytesView b) {
  io::Reader r(b);
  AccessEvent ev;
  ev.kind = static_cast<EventKind>(r.u8());
  if (ev.kind != EventKind::kTrace && ev.kind != EventKind::kAccess) {
    throw std::invalid_argument("AccessEvent: unknown kind");
  }
  ev.actor_id = r.str();
  ev.subject = r.bytes();
  size_t n = r.count32(/*min_elem_bytes=*/4);
  ev.keywords.reserve(n);
  for (size_t i = 0; i < n; ++i) ev.keywords.push_back(r.str());
  ev.t10 = r.u64();
  ev.t11 = r.u64();
  ev.sig = r.bytes();
  r.expect_done("AccessEvent");
  return ev;
}

// ---- hashing ---------------------------------------------------------------

Bytes entry_hash(uint64_t seq, BytesView payload, BytesView prev_hash) {
  io::Writer w;
  w.str("hcpp-ledger-entry");
  w.u64(seq);
  w.bytes(payload);
  w.raw(prev_hash);
  return hash::sha256_bytes(w.data());
}

const char* to_string(ChainVerdict::Defect d) noexcept {
  switch (d) {
    case ChainVerdict::Defect::kNone: return "none";
    case ChainVerdict::Defect::kGap: return "gap";
    case ChainVerdict::Defect::kBrokenLink: return "broken-link";
    case ChainVerdict::Defect::kBadHash: return "bad-hash";
    case ChainVerdict::Defect::kTruncated: return "truncated";
    case ChainVerdict::Defect::kForked: return "forked";
  }
  return "unknown";
}

// ---- Checkpoint / AnchoredCheckpoint ---------------------------------------

Bytes Checkpoint::statement() const {
  io::Writer w;
  w.str("hcpp-ledger-checkpoint");
  w.str(ledger_id);
  w.u64(epoch);
  w.u64(count);
  w.raw(head_hash);
  w.raw(merkle_root);
  w.u64(t);
  return w.take();
}

Bytes Checkpoint::to_bytes() const {
  io::Writer w;
  w.str(ledger_id);
  w.u64(epoch);
  w.u64(count);
  w.bytes(head_hash);
  w.bytes(merkle_root);
  w.u64(t);
  return w.take();
}

Checkpoint Checkpoint::from_bytes(BytesView b) {
  io::Reader r(b);
  Checkpoint cp;
  cp.ledger_id = r.str();
  cp.epoch = r.u64();
  cp.count = r.u64();
  cp.head_hash = r.bytes();
  cp.merkle_root = r.bytes();
  cp.t = r.u64();
  if (cp.head_hash.size() != kHashSize || cp.merkle_root.size() != kHashSize) {
    throw std::invalid_argument("Checkpoint: malformed digest widths");
  }
  return cp;
}

Bytes AnchoredCheckpoint::to_bytes() const {
  io::Writer w;
  w.bytes(cp.to_bytes());
  w.u32(static_cast<uint32_t>(sigs.size()));
  for (const AnchorSignature& s : sigs) {
    w.str(s.authority_id);
    w.bytes(s.sig);
  }
  return w.take();
}

AnchoredCheckpoint AnchoredCheckpoint::from_bytes(BytesView b) {
  io::Reader r(b);
  AnchoredCheckpoint a;
  a.cp = Checkpoint::from_bytes(r.bytes());
  size_t n = r.count32(/*min_elem_bytes=*/8);
  a.sigs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    AnchorSignature s;
    s.authority_id = r.str();
    s.sig = r.bytes();
    a.sigs.push_back(std::move(s));
  }
  return a;
}

// ---- Ledger ----------------------------------------------------------------

Ledger::Ledger(std::string id) : id_(std::move(id)) {}

Bytes Ledger::genesis_hash() {
  return hash::sha256_bytes(to_bytes("hcpp-ledger-genesis"));
}

Bytes Ledger::head_hash() const {
  return entries_.empty() ? genesis_hash() : entries_.back().entry_hash;
}

std::vector<AccessEvent> Ledger::events() const {
  std::vector<AccessEvent> out;
  out.reserve(entries_.size());
  for (const LedgerEntry& e : entries_) {
    try {
      out.push_back(e.event());
    } catch (const std::exception&) {
    }
  }
  return out;
}

uint64_t Ledger::append(const AccessEvent& ev) {
  double t0 = obs::recording() ? steady_ns() : 0.0;
  LedgerEntry e;
  e.seq = entries_.size();
  e.payload = ev.to_bytes();
  e.prev_hash = head_hash();
  e.entry_hash = entry_hash(e.seq, e.payload, e.prev_hash);
  // WAL first: a crash between the flush and the in-memory push loses only
  // volatile state — the entry is replayed on recovery. A crash mid-flush
  // leaves a torn frame that recovery discards.
  if (wal_.is_open()) {
    io::Writer body;
    body.u64(e.seq);
    body.bytes(e.payload);
    body.raw(e.prev_hash);
    body.raw(e.entry_hash);
    wal_frame(kFrameEntry, body.data());
  }
  uint64_t seq = e.seq;
  notifications_.push_back({seq, ev});
  entries_.push_back(std::move(e));
  obs::count(obs::kLedgerAppends);
  obs::count(obs::kLedgerNotifications);
  if (obs::recording()) obs::observe(obs::kLedgerAppendNs, steady_ns() - t0);
  return seq;
}

ChainVerdict Ledger::verify_chain() const {
  double t0 = obs::recording() ? steady_ns() : 0.0;
  ChainVerdict v;
  Bytes prev = genesis_hash();
  for (size_t i = 0; i < entries_.size(); ++i) {
    const LedgerEntry& e = entries_[i];
    if (e.seq != i) {
      v.defect = ChainVerdict::Defect::kGap;
      v.at_seq = i;
      v.detail = "expected seq " + std::to_string(i) + ", found " +
                 std::to_string(e.seq);
      break;
    }
    if (e.prev_hash != prev) {
      v.defect = ChainVerdict::Defect::kBrokenLink;
      v.at_seq = i;
      v.detail = "prev-hash link broken at seq " + std::to_string(i);
      break;
    }
    if (e.entry_hash != entry_hash(e.seq, e.payload, e.prev_hash)) {
      v.defect = ChainVerdict::Defect::kBadHash;
      v.at_seq = i;
      v.detail = "entry commitment mismatch at seq " + std::to_string(i);
      break;
    }
    prev = e.entry_hash;
    ++v.checked;
  }
  if (obs::recording()) {
    obs::observe(obs::kLedgerChainVerifyNs, steady_ns() - t0);
  }
  return v;
}

ChainVerdict Ledger::verify_against(const AnchoredCheckpoint& anchor) const {
  ChainVerdict v = verify_chain();
  if (!v.ok()) return v;
  const Checkpoint& cp = anchor.cp;
  if (cp.count > entries_.size()) {
    v.defect = ChainVerdict::Defect::kTruncated;
    v.at_seq = entries_.size();
    v.detail = "anchored checkpoint covers " + std::to_string(cp.count) +
               " entries, chain holds " + std::to_string(entries_.size());
    return v;
  }
  if (cp.count == 0) return v;
  if (entries_[cp.count - 1].entry_hash != cp.head_hash ||
      merkle_root(cp.count) != cp.merkle_root) {
    v.defect = ChainVerdict::Defect::kForked;
    v.at_seq = cp.count == 0 ? 0 : cp.count - 1;
    v.detail = "chain prefix diverges from the anchored digest for epoch " +
               std::to_string(cp.epoch);
  }
  return v;
}

Bytes Ledger::merkle_root(uint64_t count) const {
  if (count > entries_.size()) {
    throw std::out_of_range("Ledger::merkle_root: count exceeds size");
  }
  if (count == 0) return Bytes(kHashSize, 0);
  std::vector<Bytes> level;
  level.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    level.push_back(leaf_hash(entries_[i].entry_hash));
  }
  while (level.size() > 1) {
    std::vector<Bytes> next;
    next.reserve((level.size() + 1) / 2);
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(node_hash(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());  // promote
    level = std::move(next);
  }
  return level.front();
}

InclusionProof Ledger::prove(uint64_t seq, uint64_t count) const {
  if (count > entries_.size() || seq >= count) {
    throw std::out_of_range("Ledger::prove: seq/count out of range");
  }
  InclusionProof proof;
  proof.seq = seq;
  proof.count = count;
  proof.leaf = entries_[seq].entry_hash;
  std::vector<Bytes> level;
  level.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    level.push_back(leaf_hash(entries_[i].entry_hash));
  }
  size_t idx = seq;
  while (level.size() > 1) {
    size_t sibling = (idx % 2 == 0) ? idx + 1 : idx - 1;
    if (sibling < level.size()) {
      proof.path.emplace_back(/*sibling_is_left=*/sibling < idx,
                              level[sibling]);
    }
    // else: odd node promoted unchanged — no sibling at this level.
    std::vector<Bytes> next;
    next.reserve((level.size() + 1) / 2);
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(node_hash(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    idx /= 2;
    level = std::move(next);
  }
  return proof;
}

bool Ledger::verify_proof(BytesView root, const InclusionProof& proof) {
  double t0 = obs::recording() ? steady_ns() : 0.0;
  Bytes h = leaf_hash(proof.leaf);
  for (const auto& [sibling_is_left, sibling] : proof.path) {
    h = sibling_is_left ? node_hash(sibling, h) : node_hash(h, sibling);
  }
  bool ok = (BytesView(h).size() == root.size()) && ct_equal(h, root);
  if (obs::recording()) {
    obs::observe(obs::kLedgerProofVerifyNs, steady_ns() - t0);
  }
  return ok;
}

Checkpoint Ledger::checkpoint_for_epoch(uint64_t epoch, uint64_t now) {
  if (const AnchoredCheckpoint* a = anchor_for_epoch(epoch)) return a->cp;
  auto it = pending_checkpoints_.find(epoch);
  if (it != pending_checkpoints_.end()) return it->second;
  Checkpoint cp;
  cp.ledger_id = id_;
  cp.epoch = epoch;
  cp.count = entries_.size();
  cp.head_hash = head_hash();
  cp.merkle_root = merkle_root(cp.count);
  cp.t = now;
  if (wal_.is_open()) wal_frame(kFramePending, cp.to_bytes());
  pending_checkpoints_.emplace(epoch, cp);
  obs::count(obs::kLedgerCheckpoints);
  return cp;
}

void Ledger::record_anchor(AnchoredCheckpoint anchor) {
  if (wal_.is_open()) wal_frame(kFrameAnchor, anchor.to_bytes());
  pending_checkpoints_.erase(anchor.cp.epoch);
  anchors_.push_back(std::move(anchor));
  obs::count(obs::kLedgerAnchorsCommitted);
}

const AnchoredCheckpoint* Ledger::anchor_for_epoch(uint64_t epoch) const {
  for (const AnchoredCheckpoint& a : anchors_) {
    if (a.cp.epoch == epoch) return &a;
  }
  return nullptr;
}

std::vector<Notification> Ledger::drain_notifications() {
  std::vector<Notification> out = std::move(notifications_);
  notifications_.clear();
  return out;
}

// ---- WAL -------------------------------------------------------------------

void Ledger::wal_frame(uint8_t type, BytesView body) {
  io::Writer w;
  w.u8(type);
  w.bytes(body);
  wal_.write(reinterpret_cast<const char*>(w.data().data()),
             static_cast<std::streamsize>(w.data().size()));
  wal_.flush();
}

bool Ledger::attach_wal(const std::string& path) {
  std::error_code ec;
  bool fresh = !std::filesystem::exists(path, ec) ||
               std::filesystem::file_size(path, ec) == 0;
  wal_.open(path, std::ios::binary | std::ios::app);
  if (!wal_.is_open()) return false;
  wal_path_ = path;
  if (fresh) {
    wal_.write(kWalMagic, kWalMagicSize);
    wal_.flush();
  }
  return wal_.good();
}

Ledger Ledger::recover(const std::string& path, std::string id,
                       RecoveryReport* report) {
  Ledger led(std::move(id));
  RecoveryReport rep;
  Bytes buf;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (in.is_open()) {
      std::streamsize n = in.tellg();
      buf.resize(static_cast<size_t>(n));
      in.seekg(0);
      in.read(reinterpret_cast<char*>(buf.data()), n);
    }
  }
  size_t good = 0;
  if (buf.size() >= kWalMagicSize &&
      std::memcmp(buf.data(), kWalMagic, kWalMagicSize) == 0) {
    size_t pos = kWalMagicSize;
    good = pos;
    while (pos < buf.size()) {
      // Frame: u8 type ‖ u32 len ‖ body. Anything that does not parse as a
      // full, chain-consistent frame ends the replay — the remainder is the
      // torn tail of an interrupted append.
      if (buf.size() - pos < 5) break;
      uint8_t type = buf[pos];
      uint32_t len = (uint32_t(buf[pos + 1]) << 24) |
                     (uint32_t(buf[pos + 2]) << 16) |
                     (uint32_t(buf[pos + 3]) << 8) | uint32_t(buf[pos + 4]);
      if (buf.size() - pos - 5 < len) break;
      BytesView body(buf.data() + pos + 5, len);
      bool valid = false;
      try {
        if (type == kFrameEntry) {
          io::Reader r(body);
          LedgerEntry e;
          e.seq = r.u64();
          e.payload = r.bytes();
          e.prev_hash = r.raw(kHashSize);
          e.entry_hash = r.raw(kHashSize);
          if (r.done() && e.seq == led.entries_.size() &&
              e.prev_hash == led.head_hash() &&
              e.entry_hash == entry_hash(e.seq, e.payload, e.prev_hash)) {
            led.entries_.push_back(std::move(e));
            ++rep.entries;
            valid = true;
          }
        } else if (type == kFrameAnchor) {
          AnchoredCheckpoint a = AnchoredCheckpoint::from_bytes(body);
          if (a.cp.count <= led.entries_.size() &&
              led.merkle_root(a.cp.count) == a.cp.merkle_root) {
            led.pending_checkpoints_.erase(a.cp.epoch);
            led.anchors_.push_back(std::move(a));
            ++rep.anchors;
            valid = true;
          }
        } else if (type == kFramePending) {
          Checkpoint cp = Checkpoint::from_bytes(body);
          if (cp.count <= led.entries_.size() &&
              led.merkle_root(cp.count) == cp.merkle_root) {
            // Re-pin, so a post-crash re-anchor presents the identical
            // statement any already-signed authority expects.
            led.pending_checkpoints_.emplace(cp.epoch, std::move(cp));
            valid = true;
          }
        }
      } catch (const std::exception&) {
        valid = false;
      }
      if (!valid) break;
      pos += 5 + len;
      good = pos;
    }
  }
  if (good < buf.size()) {
    rep.torn_bytes = buf.size() - good;
    rep.tail_discarded = true;
    std::error_code ec;
    if (good == 0) {
      // No usable magic at all: start the WAL over.
      std::filesystem::remove(path, ec);
    } else {
      std::filesystem::resize_file(path, good, ec);
    }
    obs::count(obs::kLedgerTornTailBytes, rep.torn_bytes);
  }
  obs::count(obs::kLedgerRecoveredEntries, rep.entries);
  led.attach_wal(path);
  if (report != nullptr) *report = rep;
  return led;
}

Ledger Ledger::from_entries(std::string id, std::vector<LedgerEntry> entries) {
  Ledger led(std::move(id));
  led.entries_ = std::move(entries);
  return led;
}

}  // namespace hcpp::ledger
