// Dynamic PHI update protocol (DESIGN.md §12, ROADMAP item 1): amortized
// O(1) per-file ADD/DELETE instead of the §IV.B whole-account re-upload.
//
//   UPDATE : patient → S-server : TPp, {(label, entry)}, {(fid, blob)},
//            {fid}, t, HMAC_ν — forward-private log inserts (labels the
//            server has never seen and cannot predict) plus only the
//            touched file blobs. Server cost: O(delta) map inserts and
//            store appends; the packed index is untouched.
//   COMPACT: patient → S-server : TPp, SI', t, HMAC_ν — a freshly built
//            index (new randomness) replaces the packed index and the
//            update log is folded away; the owner restarts its counters
//            under a bumped epoch.
//
// Commit discipline: UPDATE commits patient state (files, KI, counters)
// unconditionally — the generated labels are deterministic in the counters,
// so a transport retry re-appends byte-identical records. COMPACT commits
// only on success; an applied-but-unacked compaction is still safe because
// a stale dynamic trapdoor's chain walk breaks on the first folded-away
// label and degrades to the rebuilt static index, which already contains
// every live file.
#include <algorithm>

#include "src/core/call.h"
#include "src/obs/trace.h"

namespace hcpp::core {

// ---- Patient ----------------------------------------------------------------

UpdateRequest Patient::build_update_request(
    std::vector<sse::PlainFile> added, std::span<const sse::FileId> removed) {
  UpdateRequest req;
  req.tp = tp_bytes();
  req.collection = collection_;
  sse::Updater up(keys_, update_state_);

  // DELETEs first: a remove-then-readd of the same id inside one batch must
  // leave the ADD as the newest op on every touched chain.
  for (sse::FileId id : removed) {
    auto fit = std::find_if(files_.begin(), files_.end(),
                            [&](const sse::PlainFile& f) { return f.id == id; });
    if (fit == files_.end()) continue;  // unknown id: nothing to tombstone
    for (const std::string& kw : fit->keywords) {
      // Tombstone every alias the keyword was indexed under (§VI.B).
      for (size_t a = 0; a < alias_count_; ++a) {
        sse::LogInsert ins = up.del(keyword_alias(kw, a), id);
        req.log_inserts.emplace_back(std::move(ins.label),
                                     std::move(ins.entry));
      }
      auto eit = ki_.entries.find(kw);
      if (eit != ki_.entries.end()) {
        std::erase(eit->second, id);
        if (eit->second.empty()) ki_.entries.erase(eit);
      }
    }
    ki_.file_names.erase(id);
    req.files_remove.push_back(id);
    files_.erase(fit);
  }

  for (sse::PlainFile& f : added) {
    for (const std::string& kw : f.keywords) {
      for (size_t a = 0; a < alias_count_; ++a) {
        sse::LogInsert ins = up.add(keyword_alias(kw, a), f.id);
        req.log_inserts.emplace_back(std::move(ins.label),
                                     std::move(ins.entry));
      }
      std::vector<sse::FileId>& list = ki_.entries[kw];
      if (std::find(list.begin(), list.end(), f.id) == list.end()) {
        list.push_back(f.id);
      }
    }
    ki_.file_names[f.id] = f.name;
    // Per-file AEAD: only the touched blob is (re-)encrypted, never the
    // whole collection.
    req.files_upsert.emplace_back(f.id, sse::encrypt_file(keys_, f, rng_));
    auto fit = std::find_if(files_.begin(), files_.end(),
                            [&](const sse::PlainFile& g) { return g.id == f.id; });
    if (fit != files_.end()) {
      // Upsert: the body is replaced; keywords accumulate (stale keywords
      // of the old body are not tombstoned — remove-then-readd for that).
      *fit = std::move(f);
    } else {
      files_.push_back(std::move(f));
    }
  }

  update_state_ = up.state();
  return req;
}

Result<size_t> Patient::try_update_phi(StorageTarget storage,
                                       std::vector<sse::PlainFile> added,
                                       std::span<const sse::FileId> removed) {
  if (ctx_ == nullptr) throw std::logic_error("Patient: setup() first");
  obs::Span span("protocol:update");
  UpdateRequest req = build_update_request(std::move(added), removed);
  seal(req, shared_key_nu(), req.kLabel, net_->clock().now());
  return mirror(*net_, name_, storage.holders(req.tp), req, "PHI update");
}

Result<void> Patient::try_compact_phi(SServer& server) {
  if (ctx_ == nullptr) throw std::logic_error("Patient: setup() first");
  obs::Span span("protocol:compact");
  // Fold: rebuild the packed index from the live file set with fresh
  // randomness (over the aliased keywords, like try_store_phi).
  std::vector<sse::PlainFile> aliased =
      apply_keyword_aliases(files_, alias_count_);
  CompactRequest req;
  req.tp = tp_bytes();
  req.collection = collection_;
  req.index = sse::build_index(aliased, keys_, rng_).to_bytes();
  seal(req, shared_key_nu(), req.kLabel, net_->clock().now());
  Result<void> r = call(*net_, name_, server, req, "compaction");
  // Counters restart under a bumped epoch only once the server confirmed
  // the fold — see the commit-discipline note at the top of this file.
  if (r.ok()) update_state_ = sse::UpdateState{update_state_.epoch + 1, {}};
  return r;
}

// ---- S-server handlers ------------------------------------------------------

bool SServer::handle_update(const UpdateRequest& req) {
  obs::Span span("sserver:update");
  if (!admit(req)) return false;
  Account* acct = find_account(req.tp, req.collection);
  if (acct == nullptr) return false;
  // All or nothing: one malformed insert refuses the whole request before
  // anything is applied.
  for (const auto& [label, entry] : req.log_inserts) {
    if (label.empty() || entry.size() != sse::kLogEntrySize) return false;
  }

  // O(delta): map inserts plus one store append per record. The packed
  // index and the base store record are never touched.
  const std::string key = account_key(req.tp, req.collection);
  for (const auto& [label, entry] : req.log_inserts) {
    acct->log.entries[label] = entry;
    store_put_log(key, label, entry);
  }
  // Removes before upserts, matching the order the patient builds them in:
  // a remove-then-readd of one id inside a request keeps the new blob.
  for (sse::FileId id : req.files_remove) {
    if (acct->files.files.erase(id) > 0) store_erase_file(key, id);
  }
  for (const auto& [id, blob] : req.files_upsert) {
    acct->files.files[id] = blob;
    store_put_file(key, id, blob);
  }
  return true;
}

bool SServer::handle_compact(const CompactRequest& req) {
  obs::Span span("sserver:compact");
  if (!admit(req)) return false;
  Account* acct = find_account(req.tp, req.collection);
  if (acct == nullptr) return false;

  std::shared_ptr<const sse::SecureIndex> index;
  try {
    index = std::make_shared<const sse::SecureIndex>(
        sse::SecureIndex::from_bytes(req.index));
  } catch (const std::exception&) {
    return false;
  }
  const std::string key = account_key(req.tp, req.collection);
  // The in-memory log names exactly the store records to fold away — no
  // store-wide key scan.
  if (store_.is_open()) {
    for (const auto& [label, entry] : acct->log.entries) {
      store_.erase(log_record_key(key, label));
    }
  }
  acct->log.entries.clear();
  acct->index = std::move(index);
  store_put_base(key, *acct);
  obs::count(obs::kSseCompactions);
  return true;
}

}  // namespace hcpp::core
