#include "src/core/search_service.h"

#include <set>
#include <stdexcept>

#include "src/core/cluster.h"
#include "src/obs/trace.h"
#include "src/par/pool.h"
#include "src/sse/sse.h"
#include "src/store/shard.h"

namespace hcpp::core {

SearchService::SearchService(par::ThreadPool* pool, size_t shards)
    : pool_(pool) {
  if (shards == 0) {
    throw std::invalid_argument("SearchService: need at least one shard");
  }
  snapshots_.resize(shards);
  for (auto& snap : snapshots_) snap = std::make_shared<const SnapshotMap>();
}

void SearchService::publish(const SServer& server) {
  if (snapshots_.size() != 1) {
    throw std::logic_error(
        "SearchService: whole-service publish on a sharded service; use "
        "publish_shard or publish(SServerGroup&)");
  }
  publish_shard(0, server);
}

void SearchService::publish_shard(size_t shard, const SServer& server) {
  auto snap = std::make_shared<const SnapshotMap>(server.snapshot_accounts());
  std::lock_guard<std::mutex> lock(mu_);
  snapshots_.at(shard) = std::move(snap);
}

void SearchService::publish(SServerGroup& group) {
  if (group.size() != snapshots_.size()) {
    throw std::invalid_argument(
        "SearchService: group size does not match shard count");
  }
  for (size_t i = 0; i < group.size(); ++i) {
    publish_shard(i, group.replica(i));
  }
}

std::shared_ptr<const SearchService::SnapshotMap> SearchService::current(
    size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshots_.at(shard);
}

SearchService::ShardViews SearchService::current_all() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshots_;
}

const SearchService::SnapshotMap& SearchService::view_for(
    const ShardViews& views, const std::string& account_key) {
  return *views[store::shard_for_key(account_key, views.size())];
}

size_t SearchService::account_count() const {
  ShardViews views = current_all();
  size_t n = 0;
  for (const auto& snap : views) n += snap->size();
  return n;
}

SearchService::Result SearchService::answer(const SnapshotMap& snap,
                                            const Query& q) {
  Result res;
  auto it = snap.find(q.account);
  if (it == snap.end()) return res;
  const AccountSnapshot& acct = it->second;
  res.account_found = true;

  // Snapshots published before the dynamic layer carry no log pointer.
  static const sse::UpdateLog kEmptyLog;
  const sse::UpdateLog& log = acct.log ? *acct.log : kEmptyLog;
  std::set<sse::FileId> matched;
  if (q.privileged) {
    // One θ_d key schedule per trapdoor width for the whole query; invalid
    // blobs (stale d, corruption) contribute nothing. Serial here — the
    // query already runs on a pool worker and tasks must not nest (pool.h).
    for (sse::FileId id :
         sse::search_wrapped_mixed(*acct.index, log, acct.d, q.wrapped)) {
      matched.insert(id);
    }
  } else {
    for (const sse::Trapdoor& td : q.trapdoors) {
      for (sse::FileId id : sse::search(*acct.index, td)) matched.insert(id);
    }
    for (sse::FileId id :
         sse::search_mixed(*acct.index, log, q.trapdoor_blobs)) {
      matched.insert(id);
    }
  }
  for (sse::FileId id : matched) {
    auto fit = acct.files->files.find(id);
    if (fit != acct.files->files.end()) {
      res.matches.push_back({id, fit->second});
    }
  }
  return res;
}

std::vector<SearchService::Result> SearchService::search_batch(
    std::span<const Query> queries) const {
  obs::Span span("sserver:search_batch");
  // One acquire of every shard pointer for the whole batch: every worker
  // reads the same immutable snapshots, so a concurrent publish (on any
  // shard) cannot tear a batch.
  ShardViews views = current_all();
  std::vector<Result> out(queries.size());
  auto answer_one = [&](size_t i) {
    out[i] = answer(view_for(views, queries[i].account), queries[i]);
  };
  if (pool_ == nullptr || queries.size() <= 1) {
    for (size_t i = 0; i < queries.size(); ++i) answer_one(i);
    return out;
  }
  pool_->parallel_for(queries.size(), answer_one);
  return out;
}

SearchService::Result SearchService::search(const Query& query) const {
  ShardViews views = current_all();
  return answer(view_for(views, query.account), query);
}

std::vector<std::optional<RetrieveResponse>>
SearchService::search_batch_privileged(
    const SServer& server,
    std::span<const PrivilegedRetrieveRequest> reqs) const {
  obs::Span span("sserver:search_batch_privileged");
  std::vector<std::optional<RetrieveResponse>> out(reqs.size());
  if (reqs.empty()) return out;
  ShardViews views = current_all();
  const curve::CurveCtx& ctx = *server.nu_deriver().ctx();
  sim::Network& net = server.net();

  // Stage 1: one SharedKeyDeriver::with_points derives every ν of the
  // batch — requests presenting the same pseudonym share a single pairing.
  // The subgroup guard mirrors SServer::shared_key_for.
  std::vector<size_t> keyed;  // request index of each peer
  std::vector<curve::Point> peers;
  for (size_t i = 0; i < reqs.size(); ++i) {
    try {
      peers.push_back(curve::checked_point_from_bytes(ctx, reqs[i].tp));
      keyed.push_back(i);
    } catch (const std::exception&) {
      // malformed or small-order pseudonym point: rejected below
    }
  }
  std::vector<Bytes> nus = server.nu_deriver().with_points(peers, pool_);

  // Stage 2: admit_with, SServer::admit's MAC and freshness half, in
  // arrival order — the replay cache mutates, so a duplicate inside the
  // batch is rejected exactly as if it had arrived one request later.
  std::vector<const Bytes*> accepted_nu(reqs.size(), nullptr);
  for (size_t k = 0; k < keyed.size(); ++k) {
    if (admit_with(net, server.id(), reqs[keyed[k]], nus[k])) {
      accepted_nu[keyed[k]] = &nus[k];
    }
  }

  // Stage 3: answer the accepted queries from the snapshot, parallel over
  // requests — const snapshot state only, like search_batch.
  const uint64_t now = net.clock().now();
  auto answer_one = [&](size_t i) {
    if (accepted_nu[i] == nullptr) return;
    const PrivilegedRetrieveRequest& req = reqs[i];
    std::string key = SServer::account_key(req.tp, req.collection);
    const SnapshotMap& snap = view_for(views, key);
    auto it = snap.find(key);
    if (it == snap.end()) return;
    const AccountSnapshot& acct = it->second;
    static const sse::UpdateLog kEmptyLog;
    const sse::UpdateLog& log = acct.log ? *acct.log : kEmptyLog;
    RetrieveResponse resp;
    for (sse::FileId id : sse::search_wrapped_mixed(
             *acct.index, log, acct.d, req.wrapped_trapdoors)) {
      auto fit = acct.files->files.find(id);
      if (fit != acct.files->files.end()) {
        resp.files.emplace_back(id, fit->second);
      }
    }
    seal(resp, *accepted_nu[i], req.kLabel, now);
    out[i] = std::move(resp);
  };
  if (pool_ == nullptr || reqs.size() <= 1) {
    for (size_t i = 0; i < reqs.size(); ++i) answer_one(i);
  } else {
    pool_->parallel_for(reqs.size(), answer_one);
  }
  return out;
}

}  // namespace hcpp::core
