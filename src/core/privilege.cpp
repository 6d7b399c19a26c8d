// §IV.C ASSIGN (local, sealed under the pre-shared μ) and REVOKE (one
// authenticated message re-keying d and replacing BE_U(d) at the S-server).
// REVOKE rides the retrying transport; against a replicated hospital the one
// re-keying is mirrored to every replica so no office keeps honoring the
// revoked member's trapdoors.
#include "src/core/privilege.h"

#include "src/cipher/aead.h"
#include "src/common/serialize.h"
#include "src/core/call.h"
#include "src/obs/trace.h"

namespace hcpp::core {

namespace {
constexpr const char* kAssignLabel = "privilege-assign";
}  // namespace

bool assign_privilege(Patient& patient, Family& family, BytesView mu) {
  Bytes sealed = patient.make_sealed_bundle(kFamilySlot, mu,
                                            /*include_gamma=*/false);
  // Local patient-LAN link; charged so E3 reports the full ASSIGN cost.
  patient.net().transmit(patient.name(), family.name(), sealed.size(),
                         kAssignLabel);
  return family.receive_bundle(sealed, mu);
}

bool assign_privilege(Patient& patient, PDevice& device, BytesView mu) {
  Bytes sealed = patient.make_sealed_bundle(kPDeviceSlot, mu,
                                            /*include_gamma=*/true);
  patient.net().transmit(patient.name(), device.id(), sealed.size(),
                         kAssignLabel);
  return device.receive_bundle(sealed, mu);
}

Result<size_t> Patient::try_revoke_member(StorageTarget storage,
                                          size_t slot) {
  if (be_group_ == nullptr) throw std::logic_error("Patient: setup() first");
  obs::Span span("protocol:revoke");
  // Re-key once; mirror the same sealed update to every holder.
  be_group_->revoke(slot);
  Bytes d_new = rng_.bytes(32);
  Bytes be_new = be_group_->encrypt(d_new, rng_);
  keys_.d = d_new;

  io::Writer inner;
  inner.bytes(d_new);
  inner.bytes(be_new);
  Bytes nu = shared_key_nu();
  RevokeRequest req;
  req.tp = tp_bytes();
  req.collection = collection_;
  req.sealed = cipher::aead_encrypt(nu, inner.data(), {}, rng_);
  seal(req, nu, req.kLabel, net_->clock().now());
  return mirror(*net_, name_, storage.holders(req.tp), req, "revocation");
}

bool SServer::handle_revoke(const RevokeRequest& req) {
  obs::Span span("sserver:revoke");
  auto nu = admit(req);
  if (!nu) return false;
  Account* acct = find_account(req.tp, req.collection);
  if (acct == nullptr) return false;
  try {
    Bytes inner = cipher::aead_decrypt(*nu, req.sealed, {});
    io::Reader r(inner);
    acct->d = r.bytes();
    acct->be_blob = r.bytes();
  } catch (const std::exception&) {
    return false;
  }
  // REVOKE touches only d / BE_U(d) — one base-record rewrite, no file or
  // log records.
  store_put_base(account_key(req.tp, req.collection), *acct);
  return true;
}

}  // namespace hcpp::core
