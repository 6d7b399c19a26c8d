#include "study/baseline/leelee.h"

#include <algorithm>

#include "src/cipher/aead.h"
#include "src/cipher/drbg.h"

namespace hcpp::baseline {

LeeLeeSystem::LeeLeeSystem(sim::Network& net, RandomSource& seed)
    : net_(&net),
      rng_(std::make_unique<cipher::Drbg>(seed.bytes(32))) {}

void LeeLeeSystem::register_patient(const std::string& patient_id) {
  accounts_[patient_id].smart_card_key = rng_->bytes(32);
}

bool LeeLeeSystem::store_phi(const std::string& patient_id,
                             std::span<const sse::PlainFile> files) {
  auto it = accounts_.find(patient_id);
  if (it == accounts_.end()) return false;
  PatientAccount& acct = it->second;
  for (const sse::PlainFile& f : files) {
    StoredFile sf;
    sf.id = f.id;
    sf.keywords = f.keywords;  // stored in the clear on the server
    sf.blob =
        cipher::aead_encrypt(acct.smart_card_key, f.to_bytes(), {}, *rng_);
    net_->transmit(patient_id, "leelee-server", sf.blob.size(),
                   "baseline-leelee-store");
    acct.files.push_back(std::move(sf));
  }
  return true;
}

std::vector<sse::PlainFile> LeeLeeSystem::decrypt_matching(
    const PatientAccount& acct, std::string_view keyword,
    BytesView key) const {
  std::vector<sse::PlainFile> out;
  for (const StoredFile& sf : acct.files) {
    bool match = std::any_of(
        sf.keywords.begin(), sf.keywords.end(),
        [&](const std::string& kw) { return kw == keyword; });
    if (!match) continue;
    out.push_back(sse::PlainFile::from_bytes(
        cipher::aead_decrypt(key, sf.blob, {})));
  }
  return out;
}

std::vector<sse::PlainFile> LeeLeeSystem::retrieve_with_consent(
    const std::string& patient_id, std::string_view keyword) {
  auto it = accounts_.find(patient_id);
  if (it == accounts_.end()) return {};
  net_->transmit(patient_id, "leelee-server", 64, "baseline-leelee-retrieve");
  std::vector<sse::PlainFile> out =
      decrypt_matching(it->second, keyword, it->second.smart_card_key);
  for (const sse::PlainFile& f : out) {
    net_->transmit("leelee-server", patient_id, f.content.size(),
                   "baseline-leelee-retrieve");
  }
  return out;
}

std::vector<sse::PlainFile> LeeLeeSystem::emergency_retrieve(
    const std::string& patient_id, std::string_view keyword) {
  // The escrow holds the key, so the flow is identical to the consent flow —
  // nothing distinguishes a genuine emergency from escrow abuse.
  return retrieve_with_consent(patient_id, keyword);
}

std::vector<sse::PlainFile> LeeLeeSystem::escrow_read_all(
    const std::string& patient_id) const {
  auto it = accounts_.find(patient_id);
  if (it == accounts_.end()) return {};
  std::vector<sse::PlainFile> out;
  for (const StoredFile& sf : it->second.files) {
    out.push_back(sse::PlainFile::from_bytes(
        cipher::aead_decrypt(it->second.smart_card_key, sf.blob, {})));
  }
  return out;
}

std::vector<std::string> LeeLeeSystem::server_visible_patient_ids() const {
  std::vector<std::string> out;
  out.reserve(accounts_.size());
  for (const auto& [id, acct] : accounts_) out.push_back(id);
  return out;
}

std::vector<std::string> LeeLeeSystem::server_visible_keywords(
    const std::string& patient_id) const {
  std::vector<std::string> out;
  auto it = accounts_.find(patient_id);
  if (it == accounts_.end()) return out;
  for (const StoredFile& sf : it->second.files) {
    for (const std::string& kw : sf.keywords) out.push_back(kw);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace hcpp::baseline
