// §IV.E.2 MHI storage and retrieval: the P-device pre-computes
// IBE_IDr(MHI) ‖ PEKS_σ(IDr, kw) offline and uploads it; during an
// emergency, the authenticated on-duty physician obtains Γr from the
// A-server, computes TDr(kw), and the S-server returns the matching
// role-encrypted windows. All exchanges ride the retrying transport.
#include "src/core/call.h"
#include "src/obs/trace.h"

namespace hcpp::core {

namespace {
/// Decrypts the role-encrypted windows of an MHI reply with Γr, in blob
/// order, skipping malformed or undecryptable blobs. Γr's Miller lines are
/// cached once and every ê(Γr, U) runs in one IbeDecryptor::decrypt_batch.
std::vector<MhiWindow> decrypt_windows(const curve::CurveCtx& ctx,
                                       const curve::Point& role_key,
                                       const std::vector<Bytes>& blobs) {
  std::vector<ibc::IbeCiphertext> cts;
  cts.reserve(blobs.size());
  for (const Bytes& blob : blobs) {
    try {
      cts.push_back(ibc::IbeCiphertext::from_bytes(ctx, blob));
    } catch (const std::exception&) {
    }
  }
  std::vector<MhiWindow> windows;
  for (const std::optional<Bytes>& pt :
       ibc::IbeDecryptor(ctx, role_key).decrypt_batch(cts)) {
    if (!pt) continue;
    try {
      windows.push_back(MhiWindow::from_bytes(*pt));
    } catch (const std::exception&) {
    }
  }
  return windows;
}
}  // namespace

Result<void> PDevice::try_store_mhi(
    const AServer& authority, SServer& server, const std::string& role_id,
    std::span<const std::string> extra_keywords) {
  if (!bundle_.has_value()) {
    return permanent_error(ErrorCode::kPrecondition, 0,
                           "P-device holds no privilege bundle");
  }
  obs::Span span("protocol:mhi_store");
  // Every window is attempted even after a failure — partial MHI coverage
  // beats none in an emergency. The worst outcome wins the returned error.
  bool any_rejected = false;
  bool any_timeout = false;
  uint32_t attempts = 0;
  for (const MhiWindow& win : mhi_) {
    Result<void> r = send_mhi_window(authority, server, role_id, win,
                                     extra_keywords, "MHI window", &attempts);
    if (!r.ok()) {
      any_timeout |= r.error().transient();
      any_rejected |= !r.error().transient();
    }
  }
  if (any_rejected) {
    return permanent_error(ErrorCode::kRejected, attempts,
                           "S-server refused an MHI window");
  }
  if (any_timeout) {
    return transient_error(ErrorCode::kTimeout, attempts,
                           "MHI window undelivered after retries");
  }
  return {};
}

bool SServer::handle_mhi_store(const MhiStoreRequest& req) {
  obs::Span span("sserver:mhi_store");
  if (!admit(req)) return false;
  std::vector<peks::PeksCiphertext> tags;
  try {
    for (const Bytes& tag : req.peks_tags) {
      tags.push_back(peks::PeksCiphertext::from_bytes(*ctx_, tag));
    }
  } catch (const std::exception&) {
    return false;
  }
  // Tested against standing registrations (DESIGN.md §13), then shelved.
  mhi_hub_.shelve(req.role_id, std::move(tags), req.ibe_blob, mhi_pool_);
  return true;
}

Result<curve::Point> Physician::try_request_role_key(
    AServer& authority, const std::string& role_id) {
  RoleKeyRequest req;
  req.physician_id = id_;
  req.role_id = role_id;
  req.t = net_->clock().now();
  req.sig = signer_.sign(req.body(), rng_).to_bytes();
  return call<curve::Point, curve::Point>(
      *net_, id_, authority.id(), req.to_wire().size(), req.sig, req.kLabel,
      [&] { return authority.handle_role_key_request(req); },
      [](const curve::Point& k) { return curve::point_to_bytes(k).size(); },
      "role-key request",
      [](curve::Point& k) { return std::make_optional(std::move(k)); });
}

std::optional<curve::Point> AServer::handle_role_key_request(
    const RoleKeyRequest& req) {
  if (!admit(req)) return std::nullopt;
  return domain_.extract(req.role_id);
}

Result<std::vector<MhiWindow>> Physician::try_retrieve_mhi(
    SServer& server, const std::string& role_id, const curve::Point& role_key,
    std::string_view keyword) {
  obs::Span span("protocol:mhi_retrieve");
  // ρ = ê(Γr, PK_S) = ê(PK_r, Γ_S) — the role-based pairwise key, derived
  // against the *service* identity so any group replica can answer.
  Bytes rho = ibc::shared_key_with_id(*ctx_, role_key, server.service_id());
  MhiRetrieveRequest req;
  req.physician_id = id_;
  req.role_id = role_id;
  req.trapdoor = peks::peks_trapdoor(*ctx_, role_key, keyword).to_bytes();
  seal(req, rho, req.kLabel, net_->clock().now());
  Result<MhiRetrieveResponse> resp = call<MhiRetrieveResponse>(
      *net_, id_, server, req, "MHI retrieval", rho);
  if (!resp.ok()) return resp.error();
  return decrypt_windows(*ctx_, role_key, resp.value().ibe_blobs);
}

std::optional<MhiRetrieveResponse> SServer::handle_mhi_retrieve(
    const MhiRetrieveRequest& req) {
  obs::Span span("sserver:mhi_retrieve");
  auto rho = admit(req);
  if (!rho) return std::nullopt;
  peks::Trapdoor td;
  try {
    td = peks::Trapdoor::from_bytes(*ctx_, req.trapdoor);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  MhiRetrieveResponse resp;
  resp.ibe_blobs = mhi_hub_.search(req.role_id, td, mhi_pool_);
  seal(resp, *rho, req.kLabel, net_->clock().now());
  return resp;
}

// ---- Streaming MHI (DESIGN.md §13) -----------------------------------------

Result<void> PDevice::try_stream_mhi(
    const AServer& authority, SServer& server, const std::string& role_id,
    const MhiWindow& window, std::span<const std::string> extra_keywords) {
  if (!bundle_.has_value()) {
    return permanent_error(ErrorCode::kPrecondition, 0,
                           "P-device holds no privilege bundle");
  }
  obs::Span span("protocol:mhi_stream");
  return send_mhi_window(authority, server, role_id, window, extra_keywords,
                         "streamed MHI window");
}

Result<void> PDevice::send_mhi_window(
    const AServer& authority, SServer& server, const std::string& role_id,
    const MhiWindow& window, std::span<const std::string> extra_keywords,
    std::string_view what, uint32_t* attempts) {
  if (!mhi_ingestor_) {
    mhi_ingestor_.emplace(authority.pub(), role_id);
  } else if (mhi_ingestor_->role_id() != role_id) {
    mhi_ingestor_->roll_epoch(role_id);
  }
  MhiIngestor::EncodedWindow enc =
      mhi_ingestor_->encode(window, extra_keywords, rng_);
  MhiStoreRequest req;
  req.tp = bundle_->tp;
  req.role_id = role_id;
  req.peks_tags = std::move(enc.peks_tags);
  req.ibe_blob = std::move(enc.ibe_blob);
  seal(req, bundle_->nu, req.kLabel, net_->clock().now());
  return call(*net_, id_, server, req, what, {}, attempts);
}

bool SServer::handle_mhi_register(const MhiRegisterRequest& req) {
  obs::Span span("sserver:mhi_register");
  if (!admit(req)) return false;
  peks::Trapdoor td;
  try {
    td = peks::Trapdoor::from_bytes(*ctx_, req.trapdoor);
  } catch (const std::exception&) {
    return false;
  }
  mhi_hub_.register_trapdoor(req.physician_id, req.role_id, td);
  return true;
}

std::optional<MhiHitsResponse> SServer::handle_mhi_hits(
    const MhiHitsRequest& req) {
  obs::Span span("sserver:mhi_hits");
  auto rho = admit(req);
  if (!rho) return std::nullopt;
  MhiHitsResponse resp;
  for (MhiHit& hit : mhi_hub_.drain_hits(req.physician_id, req.role_id)) {
    resp.ibe_blobs.push_back(std::move(hit.ibe_blob));
  }
  seal(resp, *rho, req.kLabel, net_->clock().now());
  return resp;
}

Result<void> Physician::try_register_mhi(SServer& server,
                                         const std::string& role_id,
                                         const curve::Point& role_key,
                                         std::string_view keyword) {
  obs::Span span("protocol:mhi_register");
  Bytes rho = ibc::shared_key_with_id(*ctx_, role_key, server.service_id());
  MhiRegisterRequest req;
  req.physician_id = id_;
  req.role_id = role_id;
  req.trapdoor = peks::peks_trapdoor(*ctx_, role_key, keyword).to_bytes();
  seal(req, rho, req.kLabel, net_->clock().now());
  return call(*net_, id_, server, req, "MHI registration");
}

Result<std::vector<MhiWindow>> Physician::try_fetch_mhi_hits(
    SServer& server, const std::string& role_id,
    const curve::Point& role_key) {
  obs::Span span("protocol:mhi_hits");
  Bytes rho = ibc::shared_key_with_id(*ctx_, role_key, server.service_id());
  MhiHitsRequest req;
  req.physician_id = id_;
  req.role_id = role_id;
  seal(req, rho, req.kLabel, net_->clock().now());
  Result<MhiHitsResponse> resp =
      call<MhiHitsResponse>(*net_, id_, server, req, "MHI hit drain", rho);
  if (!resp.ok()) return resp.error();
  return decrypt_windows(*ctx_, role_key, resp.value().ibe_blobs);
}

}  // namespace hcpp::core
