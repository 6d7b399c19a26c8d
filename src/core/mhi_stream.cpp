#include "src/core/mhi_stream.h"

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

void MhiStreamHub::register_trapdoor(const std::string& physician_id,
                                     const std::string& role_id,
                                     const peks::Trapdoor& td) {
  std::vector<Registration>& regs = by_role_[role_id];
  for (Registration& reg : regs) {
    if (reg.physician_id == physician_id) {
      reg.precomp = peks::TrapdoorPrecomp(*ctx_, td);
      return;
    }
  }
  regs.push_back(Registration{physician_id, peks::TrapdoorPrecomp(*ctx_, td)});
  obs::count(obs::kMhiRegistrations);
}

size_t MhiStreamHub::expire_role(const std::string& role_id) {
  auto it = by_role_.find(role_id);
  if (it == by_role_.end()) return 0;
  size_t n = it->second.size();
  by_role_.erase(it);
  expired_ += n;
  obs::count(obs::kMhiExpiredRegistrations, n);
  return n;
}

size_t MhiStreamHub::ingest(const std::string& role_id,
                            std::span<const peks::PeksCiphertext> tags,
                            const Bytes& ibe_blob, par::ThreadPool* pool) {
  ++windows_ingested_;
  obs::count(obs::kMhiWindowsIngested);
  auto it = by_role_.find(role_id);
  if (it == by_role_.end() || it->second.empty() || tags.empty()) return 0;
  const std::vector<Registration>& regs = it->second;

  auto t0 = std::chrono::steady_clock::now();
  // One Miller value per (registration, tag) pair — all over cached lines —
  // finished by one batched final exponentiation for the whole window.
  const size_t tested = regs.size() * tags.size();
  std::vector<curve::Gt> gs = curve::miller_batch(
      *ctx_, tested,
      [&](size_t k) {
        return regs[k / tags.size()].precomp.miller(tags[k % tags.size()]);
      },
      pool);

  size_t queued = 0;
  size_t k = 0;
  for (const Registration& reg : regs) {
    bool matched = false;
    for (size_t i = 0; i < tags.size(); ++i, ++k) {
      if (!matched && peks::TrapdoorPrecomp::matches(tags[i], gs[k])) {
        matched = true;
      }
    }
    if (matched) {
      hits_[reg.physician_id].push_back(MhiHit{role_id, ibe_blob});
      ++queued;
    }
  }
  tags_tested_ += tested;
  hits_total_ += queued;
  obs::count(obs::kMhiTagsTested, tested);
  if (queued > 0) obs::count(obs::kMhiHits, queued);
  obs::observe(obs::kMhiIngestNs,
               static_cast<double>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count()));
  return queued;
}

std::vector<MhiHit> MhiStreamHub::drain_hits(const std::string& physician_id,
                                             const std::string& role_id) {
  auto it = hits_.find(physician_id);
  if (it == hits_.end()) return {};
  if (role_id.empty()) {
    std::vector<MhiHit> out = std::move(it->second);
    hits_.erase(it);
    return out;
  }
  std::vector<MhiHit> out;
  std::vector<MhiHit> kept;
  for (MhiHit& hit : it->second) {
    (hit.role_id == role_id ? out : kept).push_back(std::move(hit));
  }
  if (kept.empty()) {
    hits_.erase(it);
  } else {
    it->second = std::move(kept);
  }
  return out;
}

size_t MhiStreamHub::pending_hits(const std::string& physician_id) const {
  auto it = hits_.find(physician_id);
  return it == hits_.end() ? 0 : it->second.size();
}

size_t MhiStreamHub::registration_count() const noexcept {
  size_t n = 0;
  for (const auto& [role, regs] : by_role_) n += regs.size();
  return n;
}

MhiStreamHub::Stats MhiStreamHub::stats() const {
  Stats s;
  s.windows_ingested = windows_ingested_;
  s.tags_tested = tags_tested_;
  s.hits = hits_total_;
  s.expired_registrations = expired_;
  s.registrations = registration_count();
  for (const auto& [phys, queue] : hits_) s.pending += queue.size();
  return s;
}

}  // namespace hcpp::core
