// Concurrent SEARCH front-end over immutable account snapshots (§IV.D/E.1
// read path, DESIGN.md §9).
//
// The live SServer mutates its accounts under the single-threaded protocol
// simulation; this service takes the other side of that bargain: publish()
// copies every account into an immutable AccountSnapshot map, and
// search_batch() fans the queries across a thread pool with *no locks on the
// read path* — workers only ever touch const snapshot state reached through
// a shared_ptr acquired once per batch. A publish() racing a batch is safe:
// in-flight queries keep the old snapshot alive via that shared_ptr and
// simply answer against the pre-publish view (snapshot isolation, not
// linearizability — fine for a search front-end).
//
// Wrapped (θ_d) trapdoors are unwrapped per query with one key schedule via
// sse::unwrap_trapdoors; stale or corrupted blobs yield empty result slots,
// mirroring handle_privileged_retrieve's tolerance.
//
// Sharded mode (shards > 1) keeps one snapshot pointer per shard, routed by
// store::shard_for_key over the account key — publish_shard(i, server)
// re-snapshots only that shard's accounts, so a republish on one shard no
// longer copies the whole population's indexes. publish(SServerGroup&) maps
// replica i to shard i.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/entities.h"

namespace hcpp::par {
class ThreadPool;
}

namespace hcpp::core {

class SearchService {
 public:
  /// One search request against a published account. Exactly one of
  /// `trapdoors` / `wrapped` is consulted, selected by `privileged`.
  struct Query {
    std::string account;  // SServer::account_key(tp, collection)
    std::vector<sse::Trapdoor> trapdoors;  // owner path (§IV.D), static only
    /// Owner path, raw wire encodings: 60-byte static and 100-byte dynamic
    /// trapdoors in one batch (the dynamic ones walk the update log).
    std::vector<Bytes> trapdoor_blobs;
    std::vector<Bytes> wrapped;  // θ_d-wrapped path (§IV.E.1), either width
    bool privileged = false;
  };

  /// One matched file: id plus the encrypted blob, as the wire protocol
  /// returns them. Decryption stays client-side.
  struct Match {
    sse::FileId id = 0;
    Bytes blob;
  };

  struct Result {
    bool account_found = false;
    std::vector<Match> matches;  // sorted by file id, deduplicated
  };

  /// `pool == nullptr` answers every query inline on the caller's thread.
  /// `shards` fixes the snapshot partitioning for the service's lifetime
  /// (1 = the original single-snapshot behaviour).
  explicit SearchService(par::ThreadPool* pool = nullptr, size_t shards = 1);

  [[nodiscard]] size_t shard_count() const noexcept {
    return snapshots_.size();
  }

  /// Re-snapshots the server's accounts and atomically swaps them in.
  /// Requires shard_count() == 1; sharded services publish per shard.
  void publish(const SServer& server);

  /// Re-snapshots one shard from its owning server, leaving the other
  /// shards' snapshots untouched (and in-flight queries on any shard
  /// unaffected — same shared_ptr isolation as publish()).
  void publish_shard(size_t shard, const SServer& server);

  /// Publishes every replica of a sharded group to its shard index.
  /// Requires group.size() == shard_count().
  void publish(SServerGroup& group);

  /// Number of accounts across all current shard snapshots.
  [[nodiscard]] size_t account_count() const;

  /// Answers all queries, parallel over queries. result[i] corresponds to
  /// queries[i]; unknown accounts yield account_found == false, invalid
  /// wrapped trapdoors contribute no matches.
  [[nodiscard]] std::vector<Result> search_batch(
      std::span<const Query> queries) const;

  /// §IV.E.1 messages 3–4 answered as one authenticated batch on behalf of
  /// `server`: the ν = ê(Γ_S, TPp) derivations of the whole batch go through
  /// one SharedKeyDeriver::with_points call (requests presenting the same
  /// pseudonym share a single pairing), then MAC/freshness checks run in
  /// arrival order against the live server's replay cache, and the accepted
  /// queries are answered from the current snapshot in parallel. result[i] is what
  /// server.handle_privileged_retrieve(reqs[i]) returns — nullopt on a bad
  /// pseudonym, MAC, stale timestamp, or unknown account — except that file
  /// data comes from the published snapshot (snapshot isolation, as above).
  [[nodiscard]] std::vector<std::optional<RetrieveResponse>>
  search_batch_privileged(const SServer& server,
                          std::span<const PrivilegedRetrieveRequest> reqs)
      const;

  /// Convenience single-query form.
  [[nodiscard]] Result search(const Query& query) const;

 private:
  using SnapshotMap = std::map<std::string, AccountSnapshot>;
  /// One shared_ptr per shard, acquired together so a batch sees a
  /// consistent (if possibly mid-republish) set of shard views.
  using ShardViews = std::vector<std::shared_ptr<const SnapshotMap>>;

  [[nodiscard]] std::shared_ptr<const SnapshotMap> current(
      size_t shard) const;
  [[nodiscard]] ShardViews current_all() const;
  /// The shard snapshot responsible for `account_key`.
  static const SnapshotMap& view_for(const ShardViews& views,
                                     const std::string& account_key);
  static Result answer(const SnapshotMap& snap, const Query& q);

  par::ThreadPool* pool_;
  mutable std::mutex mu_;  // guards snapshot swaps only, never the read path
  ShardViews snapshots_;   // size fixed at construction
};

}  // namespace hcpp::core
