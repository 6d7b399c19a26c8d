#include "src/sim/network.h"

#include "src/obs/metrics.h"
#include "src/sim/transport.h"

namespace hcpp::sim {

namespace {
/// Uniform double in [0, 1) from one 64-bit draw (53 mantissa bits).
double unit_uniform(uint64_t u) {
  return static_cast<double>(u >> 11) * 0x1.0p-53;
}
}  // namespace

Network::Network() : fault_rng_(to_bytes("hcpp-network-no-fault-plan")) {}

Network::~Network() = default;

void Network::set_link(const std::string& from, const std::string& to,
                       LinkModel model) {
  links_[{from, to}] = model;
}

void Network::set_fault_plan(FaultPlan plan) {
  Bytes seed = to_bytes("hcpp-fault-plan");
  for (int i = 0; i < 8; ++i) {
    seed.push_back(static_cast<uint8_t>(plan.seed >> (8 * i)));
  }
  fault_rng_ = cipher::Drbg(seed);
  plan_ = std::make_unique<FaultPlan>(std::move(plan));
}

void Network::set_node_up(const std::string& id, bool up) {
  if (up) {
    manually_down_.erase(id);
  } else {
    manually_down_.insert(id);
  }
}

bool Network::node_up(const std::string& id) const {
  return node_up_at(id, clock_.now());
}

bool Network::node_up_at(const std::string& id, uint64_t now) const {
  if (manually_down_.count(id) != 0) return false;
  if (plan_ == nullptr) return true;
  auto it = plan_->downtime.find(id);
  if (it == plan_->downtime.end()) return true;
  for (const DowntimeWindow& w : it->second) {
    if (now >= w.from_ns && now < w.until_ns) return false;
  }
  return true;
}

void Network::add_partition(PartitionWindow window) {
  dynamic_partitions_.push_back(std::move(window));
}

bool Network::partitioned_at(const std::string& a, const std::string& b,
                             uint64_t now) const {
  auto covers = [&](const PartitionWindow& w) {
    bool match = (w.a == a && w.b == b) || (w.a == b && w.b == a);
    return match && now >= w.from_ns && now < w.until_ns;
  };
  for (const PartitionWindow& w : dynamic_partitions_) {
    if (covers(w)) return true;
  }
  if (plan_ == nullptr) return false;
  for (const PartitionWindow& w : plan_->partitions) {
    if (covers(w)) return true;
  }
  return false;
}

const LinkFaults& Network::faults_for(const std::string& from,
                                      const std::string& to) const {
  auto it = plan_->per_link.find({from, to});
  return it == plan_->per_link.end() ? plan_->default_faults : it->second;
}

uint64_t Network::fault_u64() { return fault_rng_.u64(); }

Transport& Network::transport() {
  if (transport_ == nullptr) transport_ = std::make_unique<Transport>(*this);
  return *transport_;
}

Delivery Network::transmit(const std::string& from, const std::string& to,
                           size_t bytes, const std::string& protocol) {
  LinkModel model = default_link_;
  auto it = links_.find({from, to});
  if (it != links_.end()) model = it->second;
  uint64_t latency =
      model.base_latency_ns +
      static_cast<uint64_t>(model.per_byte_ns * static_cast<double>(bytes));

  Delivery verdict = Delivery::kDelivered;
  uint64_t now = clock_.now();
  if (!node_up_at(from, now) || !node_up_at(to, now) ||
      partitioned_at(from, to, now)) {
    verdict = Delivery::kDropped;
    obs::count(obs::kNetUnreachable);
  } else if (plan_ != nullptr) {
    const LinkFaults& f = faults_for(from, to);
    if (f.jitter_ns > 0) latency += fault_rng_.u64() % (f.jitter_ns + 1);
    if (f.drop > 0 || f.duplicate > 0 || f.corrupt > 0) {
      double u = unit_uniform(fault_rng_.u64());
      if (u < f.drop) {
        verdict = Delivery::kDropped;
      } else if (u < f.drop + f.duplicate) {
        verdict = Delivery::kDuplicated;
      } else if (u < f.drop + f.duplicate + f.corrupt) {
        verdict = Delivery::kCorrupted;
      }
    }
  }

  clock_.advance(latency);
  TrafficStats& ps = per_protocol_[protocol];
  ps.messages += 1;
  ps.bytes += bytes;
  total_.messages += 1;
  total_.bytes += bytes;
  obs::count(obs::kNetMessages);
  obs::count(obs::kNetBytes, bytes);
  switch (verdict) {
    case Delivery::kDropped:
      obs::count(obs::kNetDropped);
      break;
    case Delivery::kDuplicated:
      obs::count(obs::kNetDuplicated);
      break;
    case Delivery::kCorrupted:
      obs::count(obs::kNetCorrupted);
      break;
    case Delivery::kDelivered:
      break;
  }
  return verdict;
}

TrafficStats Network::stats(const std::string& protocol) const {
  auto it = per_protocol_.find(protocol);
  return it == per_protocol_.end() ? TrafficStats{} : it->second;
}

void Network::reset_stats() {
  per_protocol_.clear();
  total_ = TrafficStats{};
}

bool Network::accept_fresh(const std::string& receiver, BytesView tag,
                           uint64_t timestamp_ns, uint64_t window_ns) {
  uint64_t now = clock_.now();
  uint64_t lo = (now > window_ns) ? now - window_ns : 0;
  uint64_t hi = now + window_ns;

  auto& cache = replay_seen_[receiver];
  // Prune tags that could no longer pass the freshness check anyway: any
  // replay carrying their (MAC-covered) timestamp is rejected as stale.
  std::erase_if(cache, [lo](const auto& kv) { return kv.second < lo; });

  if (timestamp_ns < lo || timestamp_ns > hi) {
    obs::count(obs::kNetReplayRejected);
    return false;
  }
  Bytes key(tag.begin(), tag.end());
  auto [pos, inserted] = cache.try_emplace(std::move(key), timestamp_ns);
  (void)pos;
  if (!inserted) obs::count(obs::kNetReplayRejected);
  return inserted;
}

size_t Network::replay_cache_size(const std::string& receiver) const {
  auto it = replay_seen_.find(receiver);
  return it == replay_seen_.end() ? 0 : it->second.size();
}

}  // namespace hcpp::sim
