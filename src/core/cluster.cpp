#include "src/core/cluster.h"

#include <stdexcept>

#include "src/obs/metrics.h"
#include "src/store/shard.h"

namespace hcpp::core {

AServerCluster::AServerCluster(sim::Network& net, const curve::CurveCtx& ctx,
                               const std::string& base_id, size_t replicas,
                               RandomSource& seed)
    : net_(&net) {
  if (replicas == 0) {
    throw std::invalid_argument("AServerCluster: need at least one office");
  }
  // Office 0 mints the domain; the rest join it.
  replicas_.push_back(
      std::make_unique<AServer>(net, ctx, base_id + "-0", seed));
  for (size_t i = 1; i < replicas; ++i) {
    replicas_.push_back(std::make_unique<AServer>(
        net, replicas_[0]->domain(), base_id + "-" + std::to_string(i),
        seed));
  }
}

void AServerCluster::set_up(size_t i, bool up) {
  net_->set_node_up(replicas_.at(i)->id(), up);
}

void AServerCluster::set_on_duty(const std::string& physician_id,
                                 bool on_duty) {
  for (auto& replica : replicas_) replica->set_on_duty(physician_id, on_duty);
}

std::vector<AServer*> AServerCluster::holders(BytesView) const {
  std::vector<AServer*> out;
  for (const auto& replica : replicas_) out.push_back(replica.get());
  return out;
}

std::vector<ledger::AccessEvent> AServerCluster::all_traces() const {
  std::vector<ledger::AccessEvent> out;
  for (const auto& replica : replicas_) {
    std::vector<ledger::AccessEvent> events = replica->trace_ledger().events();
    out.insert(out.end(), events.begin(), events.end());
  }
  return out;
}

// ---- SServerGroup ----------------------------------------------------------

SServerGroup::SServerGroup(sim::Network& net, const AServer& authority,
                           const std::string& service_id, size_t replicas,
                           Placement placement)
    : net_(&net), service_id_(service_id), placement_(placement) {
  if (replicas == 0) {
    throw std::invalid_argument("SServerGroup: need at least one replica");
  }
  for (size_t i = 0; i < replicas; ++i) {
    replicas_.push_back(std::make_unique<SServer>(
        net, authority, service_id + "-" + std::to_string(i), service_id));
  }
}

size_t SServerGroup::shard_of(BytesView tp) const {
  if (!sharded()) return 0;
  return store::shard_for_pseudonym(tp, replicas_.size());
}

std::vector<SServer*> SServerGroup::holders(BytesView tp) const {
  if (sharded()) return {replicas_[shard_of(tp)].get()};
  std::vector<SServer*> out;
  for (const auto& replica : replicas_) out.push_back(replica.get());
  return out;
}

bool SServerGroup::attach_stores(const std::string& dir_root) {
  bool ok = true;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    ok &= replicas_[i]->attach_store(dir_root + "/shard-" +
                                     std::to_string(i));
  }
  return ok;
}

void SServerGroup::set_up(size_t i, bool up) {
  net_->set_node_up(replicas_.at(i)->id(), up);
}

bool SServerGroup::sync_replicas() {
  if (sharded()) return false;  // disjoint shards: nothing to mirror
  // Up as the network sees it — a replica downed by a FaultPlan outage
  // missed the writes just like one downed by set_up.
  std::vector<SServer*> up;
  for (const auto& replica : replicas_) {
    if (net_->node_up(replica->id())) up.push_back(replica.get());
  }
  if (up.empty()) return false;
  obs::count(obs::kSGroupSync);
  Bytes state = up.front()->export_state();
  bool ok = true;
  for (size_t i = 1; i < up.size(); ++i) ok &= up[i]->import_state(state);
  return ok;
}

}  // namespace hcpp::core
