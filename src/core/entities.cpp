#include "src/core/entities.h"

#include <stdexcept>

#include "src/cipher/aead.h"
#include "src/obs/trace.h"

namespace hcpp::core {

namespace {
Bytes seed_for(RandomSource& seed, std::string_view tag) {
  Bytes s = seed.bytes(32);
  append(s, to_bytes(tag));
  return s;
}

/// Parse → handle → encode for one request type: a bool handler answers
/// with an empty ack, an optional one with its encoded response.
template <class Req, class Out>
std::optional<Bytes> serve(SServer& server, Out (SServer::*handle)(const Req&),
                           BytesView wire) {
  Out out = (server.*handle)(Req::from_wire(wire));
  if constexpr (std::is_same_v<Out, bool>) {
    if (out) return Bytes{};
  } else if (out.has_value()) {
    return out->to_wire();
  }
  return std::nullopt;
}
}  // namespace

// ---- AServer ---------------------------------------------------------------

AServer::AServer(sim::Network& net, const curve::CurveCtx& ctx, std::string id,
                 RandomSource& seed)
    : net_(&net),
      id_(std::move(id)),
      domain_(ctx, [&] {
        cipher::Drbg boot(seed_for(seed, "aserver-master"));
        return curve::random_scalar(ctx, boot);
      }()),
      self_key_(domain_.extract(id_)),
      key_deriver_(domain_.ctx(), self_key_),
      signer_(domain_.ctx(), self_key_, id_),
      trace_ledger_(id_ + "/tr"),
      rng_(seed_for(seed, "aserver-rng")) {}

AServer::AServer(sim::Network& net, const ibc::Domain& shared_domain,
                 std::string id, RandomSource& seed)
    : net_(&net),
      id_(std::move(id)),
      domain_(shared_domain),
      self_key_(domain_.extract(id_)),
      key_deriver_(domain_.ctx(), self_key_),
      signer_(domain_.ctx(), self_key_, id_),
      trace_ledger_(id_ + "/tr"),
      rng_(seed_for(seed, "aserver-replica-rng")) {}

curve::Point AServer::provision(std::string_view entity_id) const {
  return domain_.extract(entity_id);
}

ibc::Domain::Pseudonym AServer::issue_pseudonym() const {
  return domain_.issue_pseudonym(rng_);
}

void AServer::set_on_duty(const std::string& physician_id, bool on_duty) {
  on_duty_[physician_id] = on_duty;
}

bool AServer::is_on_duty(const std::string& physician_id) const {
  auto it = on_duty_.find(physician_id);
  return it != on_duty_.end() && it->second;
}

// ---- SServer ---------------------------------------------------------------

SServer::SServer(sim::Network& net, const AServer& authority, std::string id,
                 std::string service_id)
    : net_(&net),
      id_(std::move(id)),
      service_id_(service_id.empty() ? id_ : std::move(service_id)),
      ctx_(&authority.ctx()),
      self_key_(authority.provision(service_id_)),
      nu_deriver_(*ctx_, self_key_),
      mhi_hub_(*ctx_) {}

std::optional<Bytes> SServer::dispatch(std::string_view label,
                                       BytesView wire) {
  try {
    if (label == StoreRequest::kLabel) {
      return serve(*this, &SServer::handle_store, wire);
    }
    if (label == RetrieveRequest::kLabel) {
      return serve(*this, &SServer::handle_retrieve, wire);
    }
    if (label == BeBlobRequest::kLabel) {
      return serve(*this, &SServer::handle_be_request, wire);
    }
    if (label == PrivilegedRetrieveRequest::kLabel) {
      return serve(*this, &SServer::handle_privileged_retrieve, wire);
    }
    if (label == UpdateRequest::kLabel) {
      return serve(*this, &SServer::handle_update, wire);
    }
    if (label == CompactRequest::kLabel) {
      return serve(*this, &SServer::handle_compact, wire);
    }
    if (label == RevokeRequest::kLabel) {
      return serve(*this, &SServer::handle_revoke, wire);
    }
    if (label == MhiStoreRequest::kLabel) {
      return serve(*this, &SServer::handle_mhi_store, wire);
    }
    if (label == MhiRetrieveRequest::kLabel) {
      return serve(*this, &SServer::handle_mhi_retrieve, wire);
    }
    if (label == MhiRegisterRequest::kLabel) {
      return serve(*this, &SServer::handle_mhi_register, wire);
    }
    if (label == MhiHitsRequest::kLabel) {
      return serve(*this, &SServer::handle_mhi_hits, wire);
    }
  } catch (const std::exception&) {
    // Malformed bytes: refused before any handler state is touched.
  }
  return std::nullopt;
}

std::string SServer::account_key(BytesView tp, const std::string& collection) {
  return hex_encode(tp) + "/" + collection;
}

SServer::Account* SServer::find_account(BytesView tp,
                                        const std::string& collection) {
  auto it = accounts_.find(account_key(tp, collection));
  return it == accounts_.end() ? nullptr : &it->second;
}

Bytes SServer::shared_key_for(BytesView tp_bytes) const {
  obs::Span span("crypto:shared_key");
  return nu_deriver_.with_point(
      curve::checked_point_from_bytes(*ctx_, tp_bytes));
}

std::vector<std::string> SServer::visible_account_ids() const {
  std::vector<std::string> out;
  out.reserve(accounts_.size());
  for (const auto& [key, acct] : accounts_) out.push_back(key);
  return out;
}

std::string SServer::file_record_key(const std::string& key, sse::FileId id) {
  Bytes fid(8);
  for (int i = 7; i >= 0; --i) {
    fid[static_cast<size_t>(i)] = static_cast<uint8_t>(id);
    id >>= 8;
  }
  return key + "#f/" + hex_encode(fid);
}

std::string SServer::log_record_key(const std::string& key,
                                    const std::string& label) {
  return key + "#l/" + label;
}

Bytes SServer::account_base_bytes(const Account& acct) {
  io::Writer w;
  w.bytes(acct.index.to_bytes());
  w.bytes(acct.d);
  w.bytes(acct.be_blob);
  return w.take();
}

void SServer::store_put_checked(const std::string& key, BytesView value) {
  if (!store_.put(key, Bytes(value.begin(), value.end()))) {
    throw std::runtime_error("SServer: account write-through failed");
  }
}

void SServer::store_put_base(const std::string& key, const Account& acct) {
  if (!store_.is_open()) return;
  store_put_checked(key, account_base_bytes(acct));
}

void SServer::store_put_file(const std::string& key, sse::FileId id,
                             BytesView blob) {
  if (!store_.is_open()) return;
  store_put_checked(file_record_key(key, id), blob);
}

void SServer::store_erase_file(const std::string& key, sse::FileId id) {
  if (!store_.is_open()) return;
  store_.erase(file_record_key(key, id));
}

void SServer::store_put_log(const std::string& key, const std::string& label,
                            BytesView entry) {
  if (!store_.is_open()) return;
  store_put_checked(log_record_key(key, label), entry);
}

void SServer::store_put_all(const std::string& key, const Account& acct) {
  if (!store_.is_open()) return;
  store_put_base(key, acct);
  for (const auto& [id, blob] : acct.files.files) {
    store_put_file(key, id, blob);
  }
  for (const auto& [label, entry] : acct.log.entries) {
    store_put_log(key, label, entry);
  }
}

void SServer::store_erase_all(const std::string& key, const Account& acct) {
  if (!store_.is_open()) return;
  // Sub-records first, base last: a crash mid-erase leaves at worst a
  // degraded-but-parseable base, never orphan sub-records.
  for (const auto& [id, blob] : acct.files.files) store_erase_file(key, id);
  for (const auto& [label, entry] : acct.log.entries) {
    store_.erase(log_record_key(key, label));
  }
  store_.erase(key);
}

void SServer::store_replace_all() {
  if (!store_.is_open()) return;
  // Expected record set under the base/#f//#l/ layout.
  std::set<std::string> want;
  for (const auto& [key, acct] : accounts_) {
    want.insert(key);
    for (const auto& [id, blob] : acct.files.files) {
      want.insert(file_record_key(key, id));
    }
    for (const auto& [label, entry] : acct.log.entries) {
      want.insert(log_record_key(key, label));
    }
  }
  for (const std::string& key : store_.keys()) {
    if (!want.contains(key)) store_.erase(key);
  }
  for (const auto& [key, acct] : accounts_) store_put_all(key, acct);
}

bool SServer::attach_store(const std::string& dir,
                           store::StoreRecoveryReport* report) {
  try {
    store_ = store::AccountStore::open(dir, {}, report);
  } catch (const std::exception&) {
    return false;
  }
  // Hydration: classify the surviving records into base / file / log piles
  // (for_each order is not guaranteed), then assemble accounts base-first.
  // The durable copy wins for keys both sides know; accounts only the live
  // map has (e.g. a deployment populated before attaching) are written
  // through so the two ends match from here on.
  std::map<std::string, Bytes> bases;
  std::map<std::string, std::vector<std::pair<sse::FileId, Bytes>>> files;
  std::map<std::string, std::vector<std::pair<std::string, Bytes>>> logs;
  std::vector<std::string> orphans;
  try {
    store_.for_each([&](const std::string& key, const Bytes& value) {
      size_t f = key.rfind("#f/");
      size_t l = key.rfind("#l/");
      if (f != std::string::npos && (l == std::string::npos || f > l)) {
        Bytes fid = hex_decode(key.substr(f + 3));
        if (fid.size() != 8) throw std::invalid_argument("bad file record");
        sse::FileId id = 0;
        for (uint8_t b : fid) id = (id << 8) | b;
        files[key.substr(0, f)].emplace_back(id, value);
      } else if (l != std::string::npos) {
        logs[key.substr(0, l)].emplace_back(key.substr(l + 3), value);
      } else {
        bases[key] = value;
      }
    });
    std::map<std::string, Account> recovered;
    for (const auto& [key, base] : bases) {
      io::Reader r(base);
      Account acct;
      acct.index = sse::SecureIndex::from_bytes(r.bytes());
      acct.d = r.bytes();
      acct.be_blob = r.bytes();
      r.expect_done("SServer base record");
      if (auto it = files.find(key); it != files.end()) {
        for (auto& [id, blob] : it->second) {
          acct.files.files.emplace(id, std::move(blob));
        }
      }
      if (auto it = logs.find(key); it != logs.end()) {
        for (auto& [label, entry] : it->second) {
          acct.log.entries.emplace(std::move(label), std::move(entry));
        }
      }
      recovered.emplace(key, std::move(acct));
    }
    // Sub-records whose base is gone (crash mid-delete): drop them from the
    // store rather than serving files no index reaches.
    for (const auto& [key, recs] : files) {
      if (bases.contains(key)) continue;
      for (const auto& [id, blob] : recs) orphans.push_back(file_record_key(key, id));
    }
    for (const auto& [key, recs] : logs) {
      if (bases.contains(key)) continue;
      for (const auto& [label, entry] : recs) {
        orphans.push_back(log_record_key(key, label));
      }
    }
    for (auto& [key, acct] : recovered) accounts_[key] = std::move(acct);
  } catch (const std::exception&) {
    store_ = store::AccountStore();
    return false;
  }
  for (const std::string& key : orphans) store_.erase(key);
  for (const auto& [key, acct] : accounts_) {
    if (!store_.contains(key)) store_put_all(key, acct);
  }
  return true;
}

bool SServer::store_consistent() const {
  if (!store_.is_open()) return true;
  size_t expected = 0;
  for (const auto& [key, acct] : accounts_) {
    expected += 1 + acct.files.files.size() + acct.log.entries.size();
  }
  if (store_.size() != expected) return false;
  for (const auto& [key, acct] : accounts_) {
    std::optional<Bytes> base = store_.get(key);
    if (!base.has_value() || *base != account_base_bytes(acct)) return false;
    for (const auto& [id, blob] : acct.files.files) {
      std::optional<Bytes> rec = store_.get(file_record_key(key, id));
      if (!rec.has_value() || *rec != blob) return false;
    }
    for (const auto& [label, entry] : acct.log.entries) {
      std::optional<Bytes> rec = store_.get(log_record_key(key, label));
      if (!rec.has_value() || *rec != entry) return false;
    }
  }
  return true;
}

namespace {
// v2: accounts carry the dynamic-SSE update log (DESIGN.md §12).
constexpr uint8_t kStateFormatVersion = 2;
}

Bytes SServer::export_state() const {
  io::Writer w;
  w.u8(kStateFormatVersion);
  w.u32(static_cast<uint32_t>(accounts_.size()));
  for (const auto& [key, acct] : accounts_) {
    w.str(key);
    w.bytes(acct.index.to_bytes());
    w.bytes(acct.files.to_bytes());
    w.bytes(acct.log.to_bytes());
    w.bytes(acct.d);
    w.bytes(acct.be_blob);
  }
  mhi_hub_.shelf().write(w);
  return w.take();
}

bool SServer::import_state(BytesView state) {
  try {
    io::Reader r(state);
    if (r.u8() != kStateFormatVersion) return false;
    std::map<std::string, Account> accounts;
    size_t n = r.count32(24);  // each account: six u32 length prefixes
    for (size_t i = 0; i < n; ++i) {
      std::string key = r.str();
      Account acct;
      acct.index = sse::SecureIndex::from_bytes(r.bytes());
      acct.files = sse::EncryptedCollection::from_bytes(r.bytes());
      acct.log = sse::UpdateLog::from_bytes(r.bytes());
      acct.d = r.bytes();
      acct.be_blob = r.bytes();
      accounts.emplace(std::move(key), std::move(acct));
    }
    MhiStreamHub::Shelf mhi = MhiStreamHub::Shelf::read(*ctx_, r);
    if (!r.done()) return false;  // trailing junk
    accounts_ = std::move(accounts);
    mhi_hub_.replace_shelf(std::move(mhi));
    store_replace_all();
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

size_t SServer::stored_bytes() const {
  size_t total = 0;
  for (const auto& [key, acct] : accounts_) {
    total += acct.index.size_bytes() + acct.files.size_bytes() +
             acct.log.size_bytes() + acct.d.size() + acct.be_blob.size();
  }
  return total + mhi_hub_.shelf().bytes();
}

// ---- PrivilegeBundle --------------------------------------------------------

Bytes PrivilegeBundle::to_bytes() const {
  io::Writer w;
  w.bytes(tp);
  w.bytes(nu);
  w.bytes(gamma);
  w.bytes(keys.to_bytes());
  w.bytes(ki.to_bytes());
  w.str(collection);
  w.bytes(member_keys.to_bytes());
  w.u32(alias_count);
  w.bytes(update_state.to_bytes());
  return w.take();
}

PrivilegeBundle PrivilegeBundle::from_bytes(BytesView b) {
  io::Reader r(b);
  PrivilegeBundle pb;
  pb.tp = r.bytes();
  pb.nu = r.bytes();
  pb.gamma = r.bytes();
  pb.keys = sse::Keys::from_bytes(r.bytes());
  pb.ki = KeywordIndex::from_bytes(r.bytes());
  pb.collection = r.str();
  pb.member_keys = be::MemberKeys::from_bytes(r.bytes());
  pb.alias_count = r.u32();
  // Bundles sealed before the dynamic layer existed end here; they search
  // with zeroed counters, i.e. the static index only.
  if (!r.done()) pb.update_state = sse::UpdateState::from_bytes(r.bytes());
  return pb;
}

// ---- Patient ----------------------------------------------------------------

Patient::Patient(sim::Network& net, std::string name, RandomSource& seed)
    : net_(&net),
      name_(std::move(name)),
      rng_(seed_for(seed, "patient-" + name_)) {}

void Patient::setup(const AServer& authority, const std::string& sserver_id) {
  ctx_ = &authority.ctx();
  sserver_id_ = sserver_id;
  // Hospital-assisted issuance, then self-rerandomization ([25]) so neither
  // the hospital nor the A-server can link TPp back to the issued pair.
  ibc::Domain::Pseudonym issued = authority.issue_pseudonym();
  pseudonym_ = ibc::rerandomize_pseudonym(*ctx_, issued, rng_);
  // ν is a pure function of (Γp, ID_S), both fixed from here on — derive it
  // once instead of paying a pairing per protocol run.
  nu_ = ibc::shared_key_with_id(*ctx_, pseudonym_.gamma, sserver_id_);
  keys_ = sse::Keys::generate(rng_);
  be_group_ = std::make_unique<be::BroadcastGroup>(8, rng_);
  ki_ = KeywordIndex{};
  ki_.sserver_id = sserver_id_;
}

void Patient::add_files(std::vector<sse::PlainFile> files) {
  for (sse::PlainFile& f : files) files_.push_back(std::move(f));
}

void Patient::set_keyword_aliases(size_t n) {
  if (n == 0) {
    throw std::invalid_argument("Patient: alias count must be >= 1");
  }
  alias_count_ = n;
}

std::string Patient::next_alias(const std::string& kw) {
  size_t& cursor = alias_cursor_[kw];
  std::string alias = keyword_alias(kw, cursor % alias_count_);
  ++cursor;
  return alias;
}

Bytes Patient::tp_bytes() const { return curve::point_to_bytes(pseudonym_.tp); }

Bytes Patient::shared_key_nu() const {
  if (!nu_.empty()) return nu_;
  return ibc::shared_key_with_id(*ctx_, pseudonym_.gamma, sserver_id_);
}

Bytes Patient::make_sealed_bundle(size_t slot, BytesView mu,
                                  bool include_gamma) {
  if (be_group_ == nullptr) {
    throw std::logic_error("Patient: setup() must run before ASSIGN");
  }
  PrivilegeBundle pb;
  pb.tp = tp_bytes();
  pb.nu = shared_key_nu();
  if (include_gamma) pb.gamma = curve::point_to_bytes(pseudonym_.gamma);
  pb.alias_count = static_cast<uint32_t>(alias_count_);
  pb.keys = keys_;
  pb.ki = ki_;
  pb.collection = collection_;
  pb.update_state = update_state_;
  pb.member_keys = be_group_->issue(slot);
  return cipher::aead_encrypt(mu, pb.to_bytes(), {}, rng_);
}

// ---- Family -----------------------------------------------------------------

Family::Family(sim::Network& net, std::string name)
    : net_(&net), name_(std::move(name)) {}

bool Family::receive_bundle(BytesView sealed, BytesView mu) {
  try {
    bundle_ = PrivilegeBundle::from_bytes(cipher::aead_decrypt(mu, sealed, {}));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

// ---- PDevice ----------------------------------------------------------------

PDevice::PDevice(sim::Network& net, std::string id, RandomSource& seed)
    : net_(&net),
      id_(std::move(id)),
      rd_ledger_(id_ + "/rd"),
      rng_(seed_for(seed, "pdevice-" + id_)) {}

bool PDevice::receive_bundle(BytesView sealed, BytesView mu) {
  try {
    bundle_ = PrivilegeBundle::from_bytes(cipher::aead_decrypt(mu, sealed, {}));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

void PDevice::press_emergency_button() { emergency_mode_ = true; }

void PDevice::collect_mhi(MhiWindow window) {
  mhi_.push_back(std::move(window));
}

// ---- Physician ----------------------------------------------------------------

Physician::Physician(sim::Network& net, const AServer& authority,
                     std::string id)
    : net_(&net),
      id_(std::move(id)),
      ctx_(&authority.ctx()),
      authority_pub_(authority.pub()),
      authority_id_(authority.id()),
      private_key_(authority.provision(id_)),
      key_deriver_(*ctx_, private_key_),
      signer_(*ctx_, private_key_, id_),
      rng_(to_bytes("physician-" + id_)) {}

}  // namespace hcpp::core
