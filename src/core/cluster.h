// §VI.D DoS countermeasure: "The attack to A-servers can be addressed by
// splitting the role of an A-server to several local offices". An
// AServerCluster is a set of replicas of one state A-server — same IBC
// master secret, mirrored on-duty registry — of which any reachable one can
// run the emergency authentication. The physician "calls the toll-free
// number" of the next office when one is down.
//
// SServerGroup applies the same treatment to the hospital storage tier: a
// set of S-server replicas sharing one *service identity* (so every client's
// pairwise key ν works against any of them). Two placements:
//
//   * kReplicated (the original §VI.D mode): collections are mirrored onto
//     every replica on upload and re-synced after an outage; reads fail over
//     to the next replica when the transport gives up on one.
//   * kSharded (ROADMAP item 2 scale-out): each account lives on exactly one
//     replica, chosen by store::shard_for_pseudonym over the presented TPp —
//     capacity grows with the group instead of being copied across it, and
//     a write/republish on one shard never touches the others. Clients
//     route to the owner instead of fanning out; there is no failover
//     target, so an unreachable shard surfaces the owner's own error.
//
// Client protocols take either group — or a lone server — through the
// non-owning Target of entities.h; holders() is the one routing decision.
#pragma once

#include "src/core/entities.h"

namespace hcpp::core {

class AServerCluster {
 public:
  /// `replicas` local offices sharing one domain (ids "<base_id>-<i>").
  AServerCluster(sim::Network& net, const curve::CurveCtx& ctx,
                 const std::string& base_id, size_t replicas,
                 RandomSource& seed);

  [[nodiscard]] size_t size() const noexcept { return replicas_.size(); }
  [[nodiscard]] AServer& replica(size_t i) { return *replicas_.at(i); }
  /// Every office, in failover order: any office serves any patient.
  [[nodiscard]] std::vector<AServer*> holders(BytesView tp) const;

  /// Simulated outage control: marks the office down on the network, so
  /// transport-routed requests to it time out instead of being served.
  void set_up(size_t i, bool up);

  /// Mirrors the published on-duty list to every office.
  void set_on_duty(const std::string& physician_id, bool on_duty);

  /// Union of all offices' TR ledger events (for audits spanning a
  /// failover), office by office.
  [[nodiscard]] std::vector<ledger::AccessEvent> all_traces() const;

 private:
  sim::Network* net_;
  std::vector<std::unique_ptr<AServer>> replicas_;
};

// ---------------------------------------------------------------------------
/// Replicated hospital storage. Every replica holds Γ_S for the shared
/// `service_id` (clients derive ν against that identity) but keeps its own
/// instance id ("<service_id>-<i>") for addressing and replay caching.
/// Client writes are mirrored onto holders() and reads fail over across
/// them (mirror() / failover() in call.h).
class SServerGroup {
 public:
  enum class Placement {
    kReplicated,  // every account on every replica (mirror + failover)
    kSharded,     // each account on exactly one replica (hash routing)
  };

  SServerGroup(sim::Network& net, const AServer& authority,
               const std::string& service_id, size_t replicas,
               Placement placement = Placement::kReplicated);

  [[nodiscard]] const std::string& service_id() const noexcept {
    return service_id_;
  }
  [[nodiscard]] size_t size() const noexcept { return replicas_.size(); }
  [[nodiscard]] SServer& replica(size_t i) { return *replicas_.at(i); }
  [[nodiscard]] Placement placement() const noexcept { return placement_; }
  [[nodiscard]] bool sharded() const noexcept {
    return placement_ == Placement::kSharded;
  }

  /// Shard index owning the accounts of pseudonym `tp` (always 0 when
  /// replicated — any replica serves any account).
  [[nodiscard]] size_t shard_of(BytesView tp) const;
  /// The replicas holding `tp`'s accounts: the owner shard alone when
  /// sharded, every replica in order when replicated.
  [[nodiscard]] std::vector<SServer*> holders(BytesView tp) const;

  /// Attaches a persistent store to every replica, one directory per shard
  /// ("<dir_root>/shard-<i>"). Returns false if any attach failed.
  bool attach_stores(const std::string& dir_root);

  /// Simulated outage control, mirrored to the network substrate.
  void set_up(size_t i, bool up);

  /// Recovery: copies the authoritative state (first up replica's export)
  /// onto every other up replica — the catch-up a real mirror would run
  /// after an outage. "Up" is the network's view (set_up and FaultPlan
  /// downtime alike). Returns false when no replica is up, and always false
  /// in sharded placement (shards are disjoint; there is nothing to mirror).
  bool sync_replicas();

 private:
  sim::Network* net_;
  std::string service_id_;
  Placement placement_ = Placement::kReplicated;
  std::vector<std::unique_ptr<SServer>> replicas_;
};

}  // namespace hcpp::core
