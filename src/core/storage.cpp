// §IV.B private PHI storage: one authenticated upload of (TPp, SI, Λ) plus
// the privilege material (d, BE_U(d)) the ASSIGN/REVOKE extension needs.
// Uploads ride the retrying transport: lost or duplicated messages are
// retried / suppressed transparently, and the caller sees a typed Result.
#include "src/core/call.h"
#include "src/obs/trace.h"

namespace hcpp::core {

namespace {
// `index_files` carry the (possibly aliased) search keywords; `body_files`
// are what actually gets encrypted and returned to searchers.
StoreRequest build_store_request(RandomSource& rng,
                                 const std::string& collection,
                                 std::span<const sse::PlainFile> index_files,
                                 std::span<const sse::PlainFile> body_files,
                                 be::BroadcastGroup& be_group,
                                 const sse::Keys& keys, uint64_t now,
                                 BytesView nu, BytesView tp) {
  StoreRequest req;
  req.tp = Bytes(tp.begin(), tp.end());
  req.collection = collection;
  req.index = sse::build_index(index_files, keys, rng).to_bytes();
  req.files = sse::encrypt_collection(body_files, keys, rng).to_bytes();
  req.d = keys.d;
  req.be_blob = be_group.encrypt(keys.d, rng);
  seal(req, nu, req.kLabel, now);
  return req;
}
}  // namespace

Result<size_t> Patient::try_store_phi(StorageTarget storage) {
  if (ctx_ == nullptr) throw std::logic_error("Patient: setup() first");
  obs::Span span("protocol:store");
  // Home-PC side: secure index (over keyword aliases, §VI.B), logical
  // keyword index, encrypted collection.
  ki_ = KeywordIndex::build(files_, sserver_id_);
  std::vector<sse::PlainFile> aliased =
      apply_keyword_aliases(files_, alias_count_);
  // One prepared upload for every holder (same MAC — each replica keeps its
  // own replay cache, and the transport keys idempotency by (receiver, MAC),
  // so the fan-out is safe).
  StoreRequest req = build_store_request(
      rng_, collection_, aliased, files_, *be_group_, keys_,
      net_->clock().now(), shared_key_nu(), tp_bytes());
  Result<size_t> r =
      mirror(*net_, name_, storage.holders(req.tp), req, "PHI upload");
  // A whole-index upload supersedes any server-side update log, so the
  // update chains restart under a fresh epoch (recycled counter values must
  // not re-derive labels the server has already seen).
  if (r.ok()) update_state_ = sse::UpdateState{update_state_.epoch + 1, {}};
  return r;
}

bool Patient::store_phi_anonymous(SServer& server, sim::OnionNetwork& onion) {
  if (ctx_ == nullptr) throw std::logic_error("Patient: setup() first");
  ki_ = KeywordIndex::build(files_, sserver_id_);
  std::vector<sse::PlainFile> aliased =
      apply_keyword_aliases(files_, alias_count_);
  StoreRequest req = build_store_request(
      rng_, collection_, aliased, files_, *be_group_, keys_,
      net_->clock().now(), shared_key_nu(), tp_bytes());
  bool ok = call(onion, rng_, name_, server, req, "anonymous PHI upload").ok();
  if (ok) update_state_ = sse::UpdateState{update_state_.epoch + 1, {}};
  return ok;
}

bool SServer::handle_store(const StoreRequest& req) {
  obs::Span span("sserver:store");
  if (!admit(req)) return false;
  Account acct;
  try {
    acct.index = sse::SecureIndex::from_bytes(req.index);
    acct.files = sse::EncryptedCollection::from_bytes(req.files);
  } catch (const std::exception&) {
    return false;
  }
  acct.d = req.d;
  acct.be_blob = req.be_blob;
  std::string key = account_key(req.tp, req.collection);
  // A re-upload supersedes the old account's file/log sub-records; erase
  // them by the old in-memory image (no store-wide scan).
  if (auto it = accounts_.find(key); it != accounts_.end()) {
    store_erase_all(key, it->second);
  }
  accounts_[key] = std::move(acct);
  store_put_all(key, accounts_[key]);
  return true;
}

}  // namespace hcpp::core
