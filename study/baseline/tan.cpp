#include "study/baseline/tan.h"

namespace hcpp::baseline {

TanSystem::TanSystem(sim::Network& net, const ibc::Domain& domain)
    : net_(&net), ctx_(&domain.ctx()), pub_(domain.pub()) {}

bool TanSystem::store_record(const std::string& patient_id,
                             const std::string& role_id, BytesView record,
                             RandomSource& rng) {
  Bytes blob = ibc::ibe_encrypt(pub_, role_id, record, rng).to_bytes();
  net_->transmit(patient_id, "tan-server", blob.size(), "baseline-tan-store");
  by_patient_[patient_id].push_back({role_id, std::move(blob)});
  return true;
}

std::vector<Bytes> TanSystem::query_by_patient(const std::string& doctor_id,
                                               const std::string& patient_id) {
  net_->transmit(doctor_id, "tan-server", 64 + patient_id.size(),
                 "baseline-tan-query");
  std::vector<Bytes> out;
  auto it = by_patient_.find(patient_id);
  if (it == by_patient_.end()) return out;
  for (const Entry& e : it->second) {
    net_->transmit("tan-server", doctor_id, e.blob.size(),
                   "baseline-tan-query");
    out.push_back(e.blob);
  }
  return out;
}

std::vector<Bytes> TanSystem::decrypt_records(
    const curve::Point& role_key, std::span<const Bytes> blobs) const {
  std::vector<Bytes> out;
  for (const Bytes& blob : blobs) {
    try {
      ibc::IbeCiphertext ct = ibc::IbeCiphertext::from_bytes(*ctx_, blob);
      out.push_back(ibc::ibe_decrypt(*ctx_, role_key, ct));
    } catch (const std::exception&) {
      // wrong role key: skip
    }
  }
  return out;
}

std::map<std::string, size_t> TanSystem::server_ownership_view() const {
  std::map<std::string, size_t> view;
  for (const auto& [patient, entries] : by_patient_) {
    view[patient] = entries.size();
  }
  return view;
}

}  // namespace hcpp::baseline
