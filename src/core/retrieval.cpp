// §IV.D common-case PHI retrieval: one round — trapdoors up, Λ(kw) down.
// The S-server performs the O(1) SEARCH and never sees keywords or
// plaintext; the patient decrypts on the cell phone and hands the plaintext
// to the physician out of band. The exchange rides the retrying transport;
// against a replicated hospital reads fail over to the next replica when one
// office times out.
#include <set>

#include "src/core/call.h"
#include "src/obs/trace.h"

namespace hcpp::core {

namespace {
std::vector<sse::PlainFile> decrypt_response(const sse::Keys& keys,
                                             const RetrieveResponse& resp) {
  std::vector<sse::PlainFile> out;
  for (const auto& [id, blob] : resp.files) {
    try {
      out.push_back(sse::decrypt_file(keys, blob));
    } catch (const std::exception&) {
      // Tampered blob: skip it rather than abort the treatment flow.
    }
  }
  return out;
}
}  // namespace

std::vector<Bytes> Patient::make_trapdoor_blobs(
    std::span<const std::string> keywords) {
  std::vector<Bytes> out;
  out.reserve(keywords.size());
  sse::TrapdoorGen gen(keys_);  // one ϖ_c/f_b key schedule for the batch
  std::optional<sse::Updater> up;  // built lazily: only updated keywords pay
  for (const std::string& kw : keywords) {
    // Rotate through aliases so repeated same-keyword searches look
    // unrelated to the server (§VI.B).
    std::string alias = next_alias(kw);
    auto it = update_state_.counters.find(alias);
    if (it != update_state_.counters.end() && it->second > 0) {
      // Updated keyword: the 100-byte dynamic trapdoor lets the server walk
      // the update chain in addition to the static list.
      if (!up.has_value()) up.emplace(keys_, update_state_);
      out.push_back(up->trapdoor(alias).to_bytes());
    } else {
      // Never-updated keyword: legacy 60-byte static trapdoor, so
      // update-free deployments stay byte-identical on the wire.
      out.push_back(gen.make(alias).to_bytes());
    }
  }
  return out;
}

Result<std::vector<sse::PlainFile>> Patient::try_retrieve(
    StorageTarget storage, std::span<const std::string> keywords) {
  if (ctx_ == nullptr) throw std::logic_error("Patient: setup() first");
  obs::Span span("protocol:retrieve");
  // One prepared request (one alias rotation step) for every holder tried.
  RetrieveRequest req;
  req.tp = tp_bytes();
  req.collection = collection_;
  req.trapdoors = make_trapdoor_blobs(keywords);
  Bytes nu = shared_key_nu();
  return failover(
      storage.holders(req.tp), obs::kSGroupFailover, "retrieval",
      [&](SServer& server) -> Result<std::vector<sse::PlainFile>> {
        // A fresh timestamp/MAC per replica keeps replay caches honest.
        seal(req, nu, req.kLabel, net_->clock().now());
        Result<RetrieveResponse> resp =
            call<RetrieveResponse>(*net_, name_, server, req, "retrieval", nu);
        if (!resp.ok()) return resp.error();
        return decrypt_response(keys_, resp.value());
      });
}

std::vector<sse::PlainFile> Patient::retrieve_anonymous(
    SServer& server, sim::OnionNetwork& onion,
    std::span<const std::string> keywords) {
  if (ctx_ == nullptr) throw std::logic_error("Patient: setup() first");
  RetrieveRequest req;
  req.tp = tp_bytes();
  req.collection = collection_;
  req.trapdoors = make_trapdoor_blobs(keywords);
  Bytes nu = shared_key_nu();
  seal(req, nu, req.kLabel, net_->clock().now());
  Result<RetrieveResponse> resp = call<RetrieveResponse>(
      onion, rng_, name_, server, req, "anonymous retrieval", nu);
  if (!resp.ok()) return {};
  return decrypt_response(keys_, resp.value());
}

std::optional<RetrieveResponse> SServer::handle_retrieve(
    const RetrieveRequest& req) {
  obs::Span span("sserver:retrieve");
  auto nu = admit(req);
  if (!nu) return std::nullopt;
  Account* acct = find_account(req.tp, req.collection);
  if (acct == nullptr) return std::nullopt;

  // Mixed-width batch: 60-byte static trapdoors walk the packed index only;
  // 100-byte dynamic ones additionally walk the account's update log.
  RetrieveResponse resp;
  for (sse::FileId id :
       sse::search_mixed(acct->index, acct->log, req.trapdoors)) {
    auto it = acct->files.files.find(id);
    if (it != acct->files.files.end()) resp.files.emplace_back(id, it->second);
  }
  seal(resp, *nu, req.kLabel, net_->clock().now());
  return resp;
}

}  // namespace hcpp::core
