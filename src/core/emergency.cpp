// §IV.E emergency health-information retrieval.
//
// Family-based approach (§IV.E.1), 4 messages:
//   1. family → S-server : TPp, m (BE-blob request), t6, HMAC_ν
//   2. S-server → family : BE_{U'}(d), t7, HMAC_ν
//   3. family → S-server : TPp, TD_U(kw) = θ_d(TD(kw)), t8, HMAC_ν
//   4. S-server → family : Λ(kw), t9, HMAC_ν
//
// P-device approach (§IV.E.2): the physician authenticates to the A-server
// with IBS as the on-duty emergency caregiver; the A-server returns the
// one-time passcode under E'_ϖ and simultaneously pushes it to the P-device
// under IBE_TPp; the physician types (ID, nonce) into the device, which then
// runs the same privileged retrieval and logs an RD record.
//
// All exchanges ride the retrying transport: an ambulance on a lossy link
// retries with backoff instead of failing the rescue, and replicated
// deployments (an SServerGroup or AServerCluster target) fail over to the
// next office when one times out.
#include <algorithm>

#include "src/cipher/aead.h"
#include "src/core/accountability.h"
#include "src/core/call.h"
#include "src/obs/trace.h"

namespace hcpp::core {

namespace {

/// Messages 1–4 of the family-based approach against one server. Two
/// transport-routed rounds; under no faults this is exactly the paper's
/// four messages.
Result<std::vector<sse::PlainFile>> privileged_round(
    sim::Network& net, const std::string& actor, SServer& server,
    const PrivilegeBundle& pb, std::span<const std::string> keywords) {
  // Round 1 (messages 1–2): fetch the current broadcast-encrypted d.
  BeBlobRequest req1;
  req1.tp = pb.tp;
  req1.collection = pb.collection;
  seal(req1, pb.nu, req1.kLabel, net.clock().now());
  uint32_t attempts = 0;  // both rounds, reported on any later error
  Result<BeBlobResponse> resp1 = call<BeBlobResponse>(
      net, actor, server, req1, "BE-blob request", pb.nu, &attempts);
  if (!resp1.ok()) return resp1.error();
  std::optional<Bytes> d = be::decrypt(pb.member_keys, resp1.value().be_blob);
  if (!d.has_value()) {
    // Not in the current broadcast cover: this member was revoked. No retry
    // or failover can help — every replica will serve the same BE_{U'}(d).
    return permanent_error(ErrorCode::kRevoked, attempts,
                           "member keys outside the current BE cover");
  }

  // Round 2 (messages 3–4): θ_d-wrapped trapdoors. The privileged entity has
  // no rotation state, so it derives the alias slot from the timestamp —
  // successive emergencies still spread across aliases (§VI.B).
  PrivilegedRetrieveRequest req2;
  req2.tp = pb.tp;
  req2.collection = pb.collection;
  size_t alias_slot = static_cast<size_t>(net.clock().now() / 1000) %
                      std::max<uint32_t>(1, pb.alias_count);
  sse::TrapdoorGen gen(pb.keys);  // one key schedule for the keyword batch
  std::optional<sse::Updater> up;  // for keywords updated before the ASSIGN
  for (const std::string& kw : keywords) {
    std::string alias = keyword_alias(kw, alias_slot);
    auto cit = pb.update_state.counters.find(alias);
    if (cit != pb.update_state.counters.end() && cit->second > 0) {
      // The bundle's chain position covers updates up to the ASSIGN; later
      // ones are underivable (forward privacy working as specified).
      if (!up.has_value()) up.emplace(pb.keys, pb.update_state);
      req2.wrapped_trapdoors.push_back(
          sse::wrap_dyn_trapdoor(*d, up->trapdoor(alias)));
    } else {
      req2.wrapped_trapdoors.push_back(
          sse::wrap_trapdoor(*d, gen.make(alias)));
    }
  }
  seal(req2, pb.nu, req2.kLabel, net.clock().now());
  Result<RetrieveResponse> resp2 = call<RetrieveResponse>(
      net, actor, server, req2, "privileged retrieval", pb.nu, &attempts);
  if (!resp2.ok()) {
    ProtocolError e = resp2.error();
    e.attempts = attempts;
    return e;
  }
  std::vector<sse::PlainFile> out;
  for (const auto& [id, blob] : resp2.value().files) {
    try {
      out.push_back(sse::decrypt_file(pb.keys, blob));
    } catch (const std::exception&) {
      // skip tampered blobs
    }
  }
  return out;
}

/// The retrieval shared by Family and PDevice, failed over across the
/// holders (§VI.D): a revocation or rejection ends the walk, since every
/// replica serves the same BE_{U'}(d).
Result<std::vector<sse::PlainFile>> privileged_retrieve(
    sim::Network& net, const std::string& actor, StorageTarget storage,
    const PrivilegeBundle& pb, std::span<const std::string> keywords) {
  obs::Span span("protocol:privileged_retrieve");
  return failover(storage.holders(pb.tp), obs::kSGroupFailover, "emergency",
                  [&](SServer& server) {
                    return privileged_round(net, actor, server, pb, keywords);
                  });
}

}  // namespace

// ---- S-server handlers -------------------------------------------------------

std::optional<BeBlobResponse> SServer::handle_be_request(
    const BeBlobRequest& req) {
  obs::Span span("sserver:be_request");
  auto nu = admit(req);
  if (!nu) return std::nullopt;
  Account* acct = find_account(req.tp, req.collection);
  if (acct == nullptr) return std::nullopt;
  BeBlobResponse resp;
  resp.be_blob = acct->be_blob;
  seal(resp, *nu, req.kLabel, net_->clock().now());
  return resp;
}

std::optional<RetrieveResponse> SServer::handle_privileged_retrieve(
    const PrivilegedRetrieveRequest& req) {
  obs::Span span("sserver:privileged_retrieve");
  auto nu = admit(req);
  if (!nu) return std::nullopt;
  Account* acct = find_account(req.tp, req.collection);
  if (acct == nullptr) return std::nullopt;

  obs::Span lookup("sse:lookup");
  // Batch θ_d^{-1}: one Feistel key schedule per trapdoor width across the
  // whole request. The embedded validity tag rejects stale-d submissions
  // per trapdoor; dynamic (100-byte) widths also walk the update log.
  RetrieveResponse resp;
  for (sse::FileId id : sse::search_wrapped_mixed(
           acct->index, acct->log, acct->d, req.wrapped_trapdoors)) {
    auto it = acct->files.files.find(id);
    if (it != acct->files.files.end()) resp.files.emplace_back(id, it->second);
  }
  seal(resp, *nu, req.kLabel, net_->clock().now());
  return resp;
}

// ---- Family ------------------------------------------------------------------

Result<std::vector<sse::PlainFile>> Family::try_emergency_retrieve(
    StorageTarget storage, std::span<const std::string> keywords) {
  if (!bundle_.has_value()) {
    return permanent_error(ErrorCode::kPrecondition, 0,
                           "family member holds no privilege bundle");
  }
  return privileged_retrieve(*net_, name_, storage, *bundle_, keywords);
}

// ---- A-server: emergency authentication (§IV.E.2 steps 1–3) -------------------

std::optional<AServer::EmergencyAuthOutcome> AServer::handle_emergency_auth(
    const EmergencyAuthRequest& req) {
  obs::Span span("aserver:emergency_auth");
  if (!net_->accept_fresh(id_, req.sig, req.t, kFreshnessWindowNs)) {
    return std::nullopt;
  }
  ibc::IbsSignature sig;
  try {
    sig = ibc::IbsSignature::from_bytes(domain_.ctx(), req.sig);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (!ibc::ibs_verify(pub(), req.physician_id, req.body(), sig)) {
    return std::nullopt;
  }
  if (!is_on_duty(req.physician_id)) return std::nullopt;

  // Small-subgroup guard: the passcode IBE keys to ê(TP, Ppub)^r.
  curve::Point tp;
  try {
    tp = curve::checked_point_from_bytes(domain_.ctx(), req.tp);
  } catch (const std::exception&) {
    return std::nullopt;
  }

  Bytes nonce = rng_.bytes(16);
  uint64_t t11 = net_->clock().now();
  EmergencyAuthOutcome out;

  // Step 2: passcode to the physician under the pairwise key ϖ.
  Bytes varpi = key_deriver_.with_id(req.physician_id);
  out.to_physician.enc_nonce =
      cipher::aead_encrypt(varpi, nonce, {}, rng_);
  out.to_physician.t = t11;
  out.to_physician.sig =
      signer_.sign(out.to_physician.body(req.physician_id, req.tp), rng_)
          .to_bytes();

  // Step 3: passcode to the P-device under IBE_TPp.
  io::Writer inner;
  inner.str(req.physician_id);
  inner.bytes(nonce);
  inner.u64(t11);
  out.to_pdevice.physician_id = req.physician_id;
  out.to_pdevice.ibe_blob =
      ibc::ibe_encrypt_to_point(pub(), tp, inner.data(), rng_).to_bytes();
  out.to_pdevice.t = t11;
  out.to_pdevice.sig =
      signer_.sign(out.to_pdevice.body(req.tp), rng_).to_bytes();
  out.to_pdevice.audit_sig =
      signer_.sign(rd_statement(req.physician_id, req.tp, t11), rng_)
          .to_bytes();

  // TR: the accountability trace (§IV.E.2) — the loose log the legacy audit
  // reads, plus the tamper-evident hash-chained mirror the ledger audit
  // verifies against the anchored checkpoints.
  traces_.push_back({req.physician_id, req.tp, req.t, t11, req.sig});
  trace_ledger_.append(event_from_trace(traces_.back()));
  return out;
}

// ---- Physician -----------------------------------------------------------------

Result<Physician::PasscodeResult> Physician::try_request_passcode(
    AuthorityTarget authority, BytesView patient_tp, size_t* serving_office) {
  obs::Span span("protocol:emergency_auth");
  // §VI.D automatic failover: dial the next local office when one times out.
  // Permanent refusals (not on duty, bad signature) are authoritative — every
  // office shares the registry, so trying another cannot change the answer.
  size_t tried = 0;
  Result<PasscodeResult> r = failover(
      authority.holders(patient_tp), obs::kAClusterFailover,
      "emergency authentication",
      [&](AServer& office) -> Result<PasscodeResult> {
        ++tried;
        EmergencyAuthRequest req;
        req.physician_id = id_;
        req.tp = Bytes(patient_tp.begin(), patient_tp.end());
        req.t = net_->clock().now();
        req.sig = signer_.sign(req.body(), rng_).to_bytes();

        using Outcome = AServer::EmergencyAuthOutcome;
        return call<PasscodeResult, Outcome>(
            *net_, id_, office.id(), req.to_wire().size(), req.sig, req.kLabel,
            [&] { return office.handle_emergency_auth(req); },
            [](const Outcome& o) { return o.to_physician.to_wire().size(); },
            "emergency authentication",
            [&](Outcome& o) -> std::optional<PasscodeResult> {
              // Step 3 "takes place simultaneously": the A-server's push to the
              // P-device, charged as the protocol's third message.
              net_->transmit(office.id(), "p-device",
                             o.to_pdevice.to_wire().size(),
                             std::string(req.kLabel));
              // Verify the answering office's signature before trusting the
              // passcode. The office is addressed by parameter (not by the
              // enrolment-time authority) so that any §VI.D replica can serve.
              try {
                ibc::IbsSignature sig =
                    ibc::IbsSignature::from_bytes(*ctx_, o.to_physician.sig);
                if (!ibc::ibs_verify(office.pub(), office.id(),
                                     o.to_physician.body(id_, req.tp), sig)) {
                  return std::nullopt;
                }
                Bytes varpi = key_deriver_.with_id(office.id());
                return PasscodeResult{
                    cipher::aead_decrypt(varpi, o.to_physician.enc_nonce, {}),
                    std::move(o.to_pdevice)};
              } catch (const std::exception&) {
                return std::nullopt;
              }
            });
      });
  if (r.ok() && serving_office != nullptr) *serving_office = tried - 1;
  return r;
}

// ---- P-device ---------------------------------------------------------------

bool PDevice::deliver_passcode(const AServer& authority,
                               const PasscodeToPDevice& msg) {
  if (!emergency_mode_ || !bundle_.has_value() || bundle_->gamma.empty()) {
    return false;
  }
  const curve::CurveCtx& ctx = authority.ctx();
  try {
    ibc::IbsSignature sig =
        ibc::IbsSignature::from_bytes(ctx, msg.sig);
    if (!ibc::ibs_verify(authority.pub(), authority.id(),
                         msg.body(bundle_->tp), sig)) {
      return false;
    }
    curve::Point gamma = curve::point_from_bytes(ctx, bundle_->gamma);
    ibc::IbeCiphertext ct =
        ibc::IbeCiphertext::from_bytes(ctx, msg.ibe_blob);
    Bytes inner = ibc::ibe_decrypt(ctx, gamma, ct);
    io::Reader r(inner);
    std::string physician_id = r.str();
    Bytes nonce = r.bytes();
    uint64_t t11 = r.u64();
    if (physician_id != msg.physician_id || t11 != msg.t) return false;
    pending_physician_ = physician_id;
    pending_nonce_ = nonce;
    session_t11_ = t11;
    session_aserver_sig_ = msg.audit_sig;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool PDevice::enter_passcode(const std::string& physician_id,
                             BytesView nonce) {
  if (!pending_nonce_.has_value() || !pending_physician_.has_value()) {
    return false;
  }
  bool ok = (physician_id == *pending_physician_) &&
            ct_equal(*pending_nonce_, nonce);
  // One attempt per delivered passcode, success or not.
  pending_nonce_.reset();
  pending_physician_.reset();
  if (ok) session_physician_ = physician_id;
  return ok;
}

Result<std::vector<sse::PlainFile>> PDevice::try_emergency_retrieve(
    StorageTarget storage, std::span<const std::string> keywords) {
  if (!session_physician_.has_value() || !bundle_.has_value()) {
    return permanent_error(ErrorCode::kPrecondition, 0,
                           "no passcode session open on the P-device");
  }
  // §VI.A countermeasure: accessing the retrieval secrets alerts the
  // patient's phone.
  ++alerts_;
  // Only dictionary keywords are searchable (§IV.E.2: "if the keywords
  // result in a match in the dictionary").
  std::vector<std::string> valid;
  for (const std::string& kw : keywords) {
    if (bundle_->ki.contains(kw)) valid.push_back(kw);
  }
  Result<std::vector<sse::PlainFile>> result{std::vector<sse::PlainFile>{}};
  if (!valid.empty()) {
    result = privileged_retrieve(*net_, id_, storage, *bundle_, valid);
  }
  // RD: record which physician searched what (§IV.E.2) — kept even when the
  // network failed the retrieval, because the secrets were touched. The
  // ledger append also queues the patient notification ("your data was just
  // accessed") behind rd_ledger().drain_notifications().
  rd_log_.push_back({*session_physician_, bundle_->tp, valid, session_t11_,
                     session_aserver_sig_});
  rd_ledger_.append(event_from_rd(rd_log_.back()));
  session_physician_.reset();  // one retrieval per passcode session
  return result;
}

}  // namespace hcpp::core
