#include "src/sse/dynamic.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "src/cipher/aead.h"
#include "src/cipher/chacha20.h"
#include "src/hash/hmac.h"
#include "src/hash/sha256.h"
#include "src/obs/metrics.h"
#include "src/par/pool.h"

namespace hcpp::sse {

namespace {

constexpr size_t kVaddrLen = 16;
constexpr size_t kMaskLen = 40;
constexpr size_t kTagLen = 4;

void put_u64(Bytes& out, uint64_t v) {
  for (int s = 56; s >= 0; s -= 8) out.push_back(static_cast<uint8_t>(v >> s));
}

uint64_t read_u64(BytesView b, size_t off) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) v = (v << 8) | b[off + i];
  return v;
}

/// label_c = H(st_c ‖ 'L')[:16], hex — the update-log key.
std::string state_label(BytesView st) {
  Bytes input(st.begin(), st.end());
  input.push_back('L');
  Bytes digest = hash::sha256_bytes(input);
  digest.resize(kVaddrLen);
  return hex_encode(digest);
}

/// Entry cipher key: H(st_c ‖ 'V'). Single-use (one entry per state), so the
/// fixed-nonce stream keeps entries at kLogEntrySize — same argument as the
/// static index's crypt_node.
Bytes crypt_entry(BytesView st, BytesView data) {
  Bytes input(st.begin(), st.end());
  input.push_back('V');
  Bytes key = hash::sha256_bytes(input);
  Bytes nonce(cipher::kChaChaNonceSize, 0);
  return cipher::chacha20(key, nonce, 0, data);
}

Bytes dyn_trapdoor_tag(BytesView address, BytesView mask, BytesView state,
                       uint64_t count) {
  Bytes input = concat(address, mask);
  append(input, state);
  put_u64(input, count);
  Bytes digest = hash::sha256_bytes(input);
  digest.resize(kTagLen);
  return digest;
}

bool all_zero(BytesView b) {
  for (uint8_t v : b) {
    if (v != 0) return false;
  }
  return true;
}

}  // namespace

Bytes update_key(const Keys& keys) {
  // ku = HMAC_a("dsse-ku" ‖ b ‖ c): a pure function of the bundle, so an
  // ASSIGN-ed entity derives the identical chains from its copy of the keys.
  Bytes msg = to_bytes("dsse-ku");
  append(msg, keys.b);
  append(msg, keys.c);
  return hash::hmac_sha256(keys.a, msg);
}

Updater::Updater(const Keys& keys, UpdateState state)
    : gen_(keys), f_ku_(update_key(keys)), state_(std::move(state)) {}

Bytes Updater::chain_state(std::string_view kw, uint64_t c) const {
  if (c == 0) return Bytes(kStateLen, 0);  // chain-origin sentinel
  io::Writer w;
  w.u64(state_.epoch);
  w.str(std::string(kw));
  w.u64(c);
  return f_ku_.eval(w.data(), kStateLen);
}

LogInsert Updater::append(std::string_view kw, FileId fid, UpdateOp op) {
  uint64_t& counter = state_.counters[std::string(kw)];
  uint64_t c = counter + 1;
  Bytes st = chain_state(kw, c);
  Bytes prev = chain_state(kw, c - 1);

  Bytes plain;
  plain.reserve(kLogEntrySize);
  plain.push_back(static_cast<uint8_t>(op));
  put_u64(plain, fid);
  hcpp::append(plain, prev);  // qualified: Updater::append shadows the free fn

  LogInsert insert;
  insert.label = state_label(st);
  insert.entry = crypt_entry(st, plain);
  counter = c;
  return insert;
}

LogInsert Updater::add(std::string_view kw, FileId fid) {
  obs::count(obs::kSseUpdateAdd);
  return append(kw, fid, UpdateOp::kAdd);
}

LogInsert Updater::del(std::string_view kw, FileId fid) {
  obs::count(obs::kSseUpdateDelete);
  return append(kw, fid, UpdateOp::kDelete);
}

DynTrapdoor Updater::trapdoor(std::string_view kw) const {
  DynTrapdoor td;
  td.base = gen_.make(kw);
  auto it = state_.counters.find(std::string(kw));
  td.count = it == state_.counters.end() ? 0 : it->second;
  td.state = chain_state(kw, td.count);
  return td;
}

void Updater::reset_for_compaction() {
  state_.counters.clear();
  ++state_.epoch;
}

std::vector<FileId> search_dynamic(const SecureIndex& index,
                                   const UpdateLog& log,
                                   const DynTrapdoor& td) {
  obs::count(obs::kSseDynSearch);
  // Newest-op-wins: the walk runs newest → oldest, so the first op seen for
  // a file id is authoritative; static postings are older than every log
  // entry, so a surviving tombstone suppresses them too.
  std::map<FileId, UpdateOp> first_op;
  Bytes st = td.state;
  for (uint64_t c = td.count; c >= 1; --c) {
    if (st.size() != kStateLen || all_zero(st)) break;  // corrupt chain
    auto it = log.entries.find(state_label(st));
    // A missing label means these entries were folded away by a compaction
    // the trapdoor predates (or never arrived); older entries hang off the
    // missing one, so the walk cannot continue.
    if (it == log.entries.end()) break;
    if (it->second.size() != kLogEntrySize) break;
    Bytes plain = crypt_entry(st, it->second);
    auto op = static_cast<UpdateOp>(plain[0]);
    if (op != UpdateOp::kAdd && op != UpdateOp::kDelete) break;
    FileId fid = read_u64(plain, 1);
    first_op.try_emplace(fid, op);
    st.assign(plain.begin() + 9, plain.end());
  }

  std::set<FileId> out;
  for (FileId id : search(index, td.base)) {
    auto it = first_op.find(id);
    if (it == first_op.end() || it->second == UpdateOp::kAdd) out.insert(id);
  }
  for (const auto& [id, op] : first_op) {
    if (op == UpdateOp::kAdd) out.insert(id);
  }
  std::vector<FileId> result(out.begin(), out.end());
  obs::count(obs::kSseSearchHits, result.size());
  return result;
}

std::vector<FileId> search_mixed(const SecureIndex& index,
                                 const UpdateLog& log,
                                 std::span<const Bytes> trapdoors) {
  std::set<FileId> out;
  for (const Bytes& blob : trapdoors) {
    if (blob.size() == kTrapdoorSize) {
      std::optional<Trapdoor> td = Trapdoor::from_bytes(blob);
      if (!td.has_value()) continue;
      for (FileId id : search(index, *td)) out.insert(id);
    } else if (blob.size() == kDynTrapdoorSize) {
      std::optional<DynTrapdoor> td = DynTrapdoor::from_bytes(blob);
      if (!td.has_value()) continue;
      for (FileId id : search_dynamic(index, log, *td)) out.insert(id);
    }
  }
  return {out.begin(), out.end()};
}

std::vector<FileId> search_wrapped_mixed(const SecureIndex& index,
                                         const UpdateLog& log, BytesView d,
                                         std::span<const Bytes> wrapped) {
  std::set<FileId> out;
  // One θ_d key schedule per width, shared across the batch.
  std::optional<prf::FeistelPrp> theta_static, theta_dyn;
  for (const Bytes& blob : wrapped) {
    if (blob.size() == kTrapdoorSize) {
      if (!theta_static.has_value()) {
        theta_static.emplace(Bytes(d.begin(), d.end()), kTrapdoorSize);
      }
      std::optional<Trapdoor> td =
          Trapdoor::from_bytes(theta_static->inverse(blob));
      if (!td.has_value()) continue;
      for (FileId id : search(index, *td)) out.insert(id);
    } else if (blob.size() == kDynTrapdoorSize) {
      if (!theta_dyn.has_value()) {
        theta_dyn.emplace(Bytes(d.begin(), d.end()), kDynTrapdoorSize);
      }
      std::optional<DynTrapdoor> td =
          DynTrapdoor::from_bytes(theta_dyn->inverse(blob));
      if (!td.has_value()) continue;
      for (FileId id : search_dynamic(index, log, *td)) out.insert(id);
    }
  }
  return {out.begin(), out.end()};
}

Bytes DynTrapdoor::to_bytes() const {
  Bytes out = concat(base.address, base.mask);
  append(out, state);
  put_u64(out, count);
  append(out, dyn_trapdoor_tag(base.address, base.mask, state, count));
  return out;
}

std::optional<DynTrapdoor> DynTrapdoor::from_bytes(BytesView b) {
  if (b.size() != kDynTrapdoorSize) return std::nullopt;
  DynTrapdoor td;
  td.base.address.assign(b.begin(), b.begin() + kVaddrLen);
  td.base.mask.assign(b.begin() + kVaddrLen, b.begin() + kVaddrLen + kMaskLen);
  td.state.assign(b.begin() + kVaddrLen + kMaskLen,
                  b.begin() + kVaddrLen + kMaskLen + kStateLen);
  td.count = read_u64(b, kVaddrLen + kMaskLen + kStateLen);
  Bytes tag(b.begin() + kVaddrLen + kMaskLen + kStateLen + 8, b.end());
  if (!ct_equal(tag, dyn_trapdoor_tag(td.base.address, td.base.mask, td.state,
                                      td.count))) {
    return std::nullopt;
  }
  return td;
}

Bytes wrap_dyn_trapdoor(BytesView d, const DynTrapdoor& td) {
  prf::FeistelPrp theta(Bytes(d.begin(), d.end()), kDynTrapdoorSize);
  return theta.forward(td.to_bytes());
}

std::optional<DynTrapdoor> unwrap_dyn_trapdoor(BytesView d, BytesView wrapped) {
  if (wrapped.size() != kDynTrapdoorSize) return std::nullopt;
  prf::FeistelPrp theta(Bytes(d.begin(), d.end()), kDynTrapdoorSize);
  return DynTrapdoor::from_bytes(theta.inverse(wrapped));
}

Bytes encrypt_file(const Keys& keys, const PlainFile& f, RandomSource& rng) {
  return cipher::aead_encrypt(keys.s, f.to_bytes(), {}, rng);
}

Bytes UpdateState::to_bytes() const {
  io::Writer w;
  w.u64(epoch);
  w.u32(static_cast<uint32_t>(counters.size()));
  for (const auto& [kw, c] : counters) {
    w.str(kw);
    w.u64(c);
  }
  return w.take();
}

UpdateState UpdateState::from_bytes(BytesView b) {
  io::Reader r(b);
  UpdateState st;
  st.epoch = r.u64();
  size_t n = r.count32(12);  // each counter: u32 kw length prefix + u64
  for (size_t i = 0; i < n; ++i) {
    std::string kw = r.str();
    st.counters[kw] = r.u64();
  }
  return st;
}

Bytes UpdateLog::to_bytes() const {
  io::Writer w;
  w.u64(entries.size());
  // Deterministic order for stable wire/store bytes.
  std::vector<std::pair<std::string, Bytes>> sorted(entries.begin(),
                                                    entries.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  for (const auto& [label, entry] : sorted) {
    w.str(label);
    w.bytes(entry);
  }
  return w.take();
}

UpdateLog UpdateLog::from_bytes(BytesView b) {
  io::Reader r(b);
  UpdateLog log;
  size_t n = r.count64(8);  // each entry: u32 label len + u32 value len
  for (size_t i = 0; i < n; ++i) {
    std::string label = r.str();
    log.entries[label] = r.bytes();
  }
  r.expect_done("UpdateLog");
  return log;
}

size_t UpdateLog::size_bytes() const {
  size_t total = 8;
  for (const auto& [label, entry] : entries) {
    total += label.size() + entry.size() + 8;
  }
  return total;
}

}  // namespace hcpp::sse
