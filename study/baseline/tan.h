// Baseline 2 (§I.A): Tan et al., "Body sensor network security: an
// identity-based cryptography approach" [11] — a role-based IBE realization
// for emergency care. Records are IBE-encrypted to role identities (good),
// but the storage site must know *which records belong to which patient* to
// answer a querying doctor, so the server learns the ownership mapping —
// the unlinkability violation HCPP fixes with SSE + pseudonyms.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/ibc/ibe.h"
#include "src/sim/network.h"
#include "study/baseline/leelee.h"  // PrivacyProperties

namespace hcpp::baseline {

class TanSystem {
 public:
  TanSystem(sim::Network& net, const ibc::Domain& domain);

  /// The patient's sensors upload a record encrypted to `role_id`; the
  /// server files it under the patient's real identity.
  bool store_record(const std::string& patient_id, const std::string& role_id,
                    BytesView record, RandomSource& rng);

  /// The querying doctor names the patient — which is exactly the leak: the
  /// server resolves patient → records in the clear.
  [[nodiscard]] std::vector<Bytes> query_by_patient(
      const std::string& doctor_id, const std::string& patient_id);

  /// Role-key decryption (the doctor obtained Γ_role from the PKG).
  [[nodiscard]] std::vector<Bytes> decrypt_records(
      const curve::Point& role_key, std::span<const Bytes> blobs) const;

  /// The ownership map the honest-but-curious server accumulates.
  [[nodiscard]] std::map<std::string, size_t> server_ownership_view() const;

  static PrivacyProperties properties() {
    return {.escrow_free = true,
            .unlinkable_storage = false,
            .keyword_private = false,
            .emergency_capable = true};
  }

 private:
  struct Entry {
    std::string role_id;
    Bytes blob;
  };
  sim::Network* net_;
  const curve::CurveCtx* ctx_;
  ibc::PublicParams pub_;
  std::map<std::string, std::vector<Entry>> by_patient_;
};

}  // namespace hcpp::baseline
