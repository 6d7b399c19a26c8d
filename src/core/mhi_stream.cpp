#include "src/core/mhi_stream.h"

#include <algorithm>
#include <chrono>

#include "src/obs/metrics.h"

namespace hcpp::core {

std::string mhi_role_id(std::string_view date, std::string_view duty,
                        std::string_view service_area) {
  std::string id;
  id.reserve(date.size() + duty.size() + service_area.size() + 2);
  id.append(date);
  id.push_back('|');
  id.append(duty);
  id.push_back('|');
  id.append(service_area);
  return id;
}

// ---- MhiIngestor ----------------------------------------------------------

MhiIngestor::MhiIngestor(const ibc::PublicParams& pub, std::string role_id)
    : pub_(pub),
      role_id_(std::move(role_id)),
      peks_(pub),
      ibe_(pub, role_id_) {}

MhiIngestor::EncodedWindow MhiIngestor::encode(
    const MhiWindow& win, std::span<const std::string> extra_keywords,
    RandomSource& rng) {
  EncodedWindow out;
  out.ibe_blob = ibe_.encrypt(win.to_bytes(), rng).to_bytes();
  out.peks_tags.reserve(1 + extra_keywords.size());
  out.peks_tags.push_back(
      peks_.encrypt(role_id_, "day:" + win.day, rng).to_bytes());
  for (const std::string& kw : extra_keywords) {
    out.peks_tags.push_back(peks_.encrypt(role_id_, kw, rng).to_bytes());
  }
  return out;
}

void MhiIngestor::roll_epoch(const std::string& new_role_id) {
  if (new_role_id == role_id_) return;
  peks_.evict(role_id_);
  role_id_ = new_role_id;
  ibe_ = ibc::IbePrecomputed(pub_, role_id_);
}

// ---- MhiStreamHub ---------------------------------------------------------

namespace {
// True when a verdict in [begin, end) of a peks_test_matrix row is a match.
bool any_match(const std::vector<uint8_t>& v, size_t begin, size_t end) {
  return std::find(v.begin() + begin, v.begin() + end, 1) != v.begin() + end;
}
}  // namespace

size_t MhiStreamHub::Shelf::bytes() const noexcept {
  size_t total = 0;
  for (const auto& [role_id, role] : roles) {
    for (const peks::PeksCiphertext& t : role.tags) total += t.size();
    for (const Bytes& blob : role.blobs) total += blob.size();
  }
  return total;
}

void MhiStreamHub::Shelf::write(io::Writer& w) const {
  w.u32(static_cast<uint32_t>(windows()));
  for (const auto& [role_id, role] : roles) {
    size_t t = 0;
    for (size_t i = 0; i < role.ends.size(); ++i) {
      w.str(role_id);
      w.u32(static_cast<uint32_t>(role.ends[i] - t));
      for (; t < role.ends[i]; ++t) w.bytes(role.tags[t].to_bytes());
      w.bytes(role.blobs[i]);
    }
  }
}

MhiStreamHub::Shelf MhiStreamHub::Shelf::read(const curve::CurveCtx& ctx,
                                              io::Reader& r) {
  Shelf shelf;
  size_t n = r.count32(12);  // each window: three u32 prefixes
  for (size_t i = 0; i < n; ++i) {
    Role& role = shelf.roles[r.str()];
    size_t tags = r.count32(4);  // each tag: u32 length prefix
    for (size_t t = 0; t < tags; ++t) {
      role.tags.push_back(peks::PeksCiphertext::from_bytes(ctx, r.bytes()));
    }
    role.ends.push_back(role.tags.size());
    role.blobs.push_back(r.bytes());
  }
  return shelf;
}

void MhiStreamHub::register_trapdoor(const std::string& physician_id,
                                     const std::string& role_id,
                                     const peks::Trapdoor& td) {
  Standing& st = standing_[role_id];
  for (size_t i = 0; i < st.physicians.size(); ++i) {
    if (st.physicians[i] == physician_id) {
      st.precomps[i] = peks::TrapdoorPrecomp(*ctx_, td.td);
      return;
    }
  }
  st.physicians.push_back(physician_id);
  st.precomps.emplace_back(*ctx_, td.td);
  obs::count(obs::kMhiRegistrations);
}

size_t MhiStreamHub::expire_role(const std::string& role_id) {
  auto it = standing_.find(role_id);
  if (it == standing_.end()) return 0;
  size_t n = it->second.physicians.size();
  standing_.erase(it);
  obs::count(obs::kMhiExpiredRegistrations, n);
  return n;
}

size_t MhiStreamHub::ingest(const std::string& role_id,
                            std::span<const peks::PeksCiphertext> tags,
                            const Bytes& ibe_blob, par::ThreadPool* pool) {
  obs::count(obs::kMhiWindowsIngested);
  auto it = standing_.find(role_id);
  if (it == standing_.end() || it->second.physicians.empty() || tags.empty()) {
    return 0;
  }
  const Standing& st = it->second;

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<uint8_t> match =
      peks::peks_test_matrix(*ctx_, st.precomps, tags, pool);
  size_t queued = 0;
  for (size_t i = 0; i < st.physicians.size(); ++i) {
    if (any_match(match, i * tags.size(), (i + 1) * tags.size())) {
      hits_[st.physicians[i]].push_back(MhiHit{role_id, ibe_blob});
      ++queued;
    }
  }
  obs::count(obs::kMhiTagsTested, match.size());
  if (queued > 0) obs::count(obs::kMhiHits, queued);
  obs::observe(obs::kMhiIngestNs,
               std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - t0).count());
  return queued;
}

size_t MhiStreamHub::shelve(const std::string& role_id,
                            std::vector<peks::PeksCiphertext> tags,
                            Bytes ibe_blob, par::ThreadPool* pool) {
  size_t queued = ingest(role_id, tags, ibe_blob, pool);
  Shelf::Role& role = shelf_.roles[role_id];
  role.tags.insert(role.tags.end(), std::make_move_iterator(tags.begin()),
                   std::make_move_iterator(tags.end()));
  role.ends.push_back(role.tags.size());
  role.blobs.push_back(std::move(ibe_blob));
  return queued;
}

std::vector<Bytes> MhiStreamHub::search(const std::string& role_id,
                                        const peks::Trapdoor& td,
                                        par::ThreadPool* pool) const {
  std::vector<Bytes> blobs;
  auto it = shelf_.roles.find(role_id);
  if (it == shelf_.roles.end() || it->second.tags.empty()) return blobs;
  const Shelf::Role& role = it->second;
  const std::vector<uint8_t> match =
      peks::peks_test_batch(*ctx_, role.tags, td, pool);
  for (size_t i = 0, begin = 0; i < role.ends.size(); begin = role.ends[i++]) {
    if (any_match(match, begin, role.ends[i])) blobs.push_back(role.blobs[i]);
  }
  return blobs;
}

std::vector<MhiHit> MhiStreamHub::drain_hits(const std::string& physician_id,
                                             const std::string& role_id) {
  auto it = hits_.find(physician_id);
  if (it == hits_.end()) return {};
  std::vector<MhiHit>& queue = it->second;
  auto drained = std::stable_partition(
      queue.begin(), queue.end(), [&](const MhiHit& hit) {
        return !role_id.empty() && hit.role_id != role_id;
      });
  std::vector<MhiHit> out(std::make_move_iterator(drained),
                          std::make_move_iterator(queue.end()));
  queue.erase(drained, queue.end());
  if (queue.empty()) hits_.erase(it);
  return out;
}

size_t MhiStreamHub::pending_hits(const std::string& physician_id) const {
  auto it = hits_.find(physician_id);
  return it == hits_.end() ? 0 : it->second.size();
}

size_t MhiStreamHub::registration_count() const noexcept {
  size_t n = 0;
  for (const auto& [role, st] : standing_) n += st.physicians.size();
  return n;
}

}  // namespace hcpp::core
