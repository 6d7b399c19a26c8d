// Deterministic network substrate. The paper deploys HCPP over existing
// wireless infrastructure (cell phones, hospital LANs); we substitute an
// in-process simulator that charges each message its serialized size and a
// configurable latency, and keeps per-protocol round/byte counters — the
// quantities §V.B.2 analyses.
//
// It also provides the two receiver-side guards every HCPP message needs:
// a freshness window for the timestamps t1…t14 and a replay cache keyed by
// message MAC (§IV.B cites [26] for replay prevention).
//
// Reliability model: an optional seeded FaultPlan turns the substrate
// adversarial — per-link drop/duplicate/corrupt probabilities, latency
// jitter, partition windows and per-node downtime schedules, all driven by
// one ChaCha20 DRBG so a given seed replays the exact same fault sequence.
// transmit() reports the delivery verdict; sim::Transport (transport.h)
// layers timeouts, retries and idempotency on top of it.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cipher/drbg.h"
#include "src/common/bytes.h"
#include "src/sim/clock.h"

namespace hcpp::sim {

class Transport;

struct TrafficStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;
};

struct LinkModel {
  uint64_t base_latency_ns = 5'000'000;  // 5 ms
  double per_byte_ns = 80.0;             // ~100 Mbit/s
};

/// What happened to one message. Anything but kDropped reached the receiver;
/// kCorrupted arrives but fails its MAC/signature check there; kDuplicated
/// arrives twice (the receiver-side idempotency layer must suppress the
/// second copy's effects).
enum class Delivery : uint8_t {
  kDelivered,
  kDuplicated,
  kCorrupted,
  kDropped,
};

/// Per-link fault probabilities (independent draws per message) and latency
/// jitter. Probabilities are cumulative-checked in the order drop →
/// duplicate → corrupt, so their sum must stay ≤ 1.
struct LinkFaults {
  double drop = 0.0;
  double duplicate = 0.0;
  double corrupt = 0.0;
  uint64_t jitter_ns = 0;  // uniform extra latency in [0, jitter_ns]
};

/// Bidirectional partition between two nodes over [from_ns, until_ns).
struct PartitionWindow {
  std::string a;
  std::string b;
  uint64_t from_ns = 0;
  uint64_t until_ns = UINT64_MAX;
};

/// Node outage over [from_ns, until_ns): the node neither sends nor
/// receives.
struct DowntimeWindow {
  uint64_t from_ns = 0;
  uint64_t until_ns = UINT64_MAX;
};

/// The full deterministic fault schedule. Replaying the same plan (same
/// seed) against the same workload reproduces every verdict exactly.
struct FaultPlan {
  uint64_t seed = 1;
  LinkFaults default_faults;
  std::map<std::pair<std::string, std::string>, LinkFaults> per_link;
  std::vector<PartitionWindow> partitions;
  std::map<std::string, std::vector<DowntimeWindow>> downtime;
};

class Network {
 public:
  Network();
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Clock& clock() noexcept { return clock_; }
  const Clock& clock() const noexcept { return clock_; }

  /// Configures the link model for a (from, to) pair; falls back to the
  /// default model for unconfigured links.
  void set_link(const std::string& from, const std::string& to,
                LinkModel model);
  void set_default_link(LinkModel model) noexcept { default_link_ = model; }

  /// Charges one message — advances the clock by the link latency (plus any
  /// fault-plan jitter) and accumulates per-protocol statistics — and
  /// returns the delivery verdict. Without a fault plan every message is
  /// kDelivered (unless a node was downed via set_node_up), which preserves
  /// the historical always-succeeds behavior.
  Delivery transmit(const std::string& from, const std::string& to,
                    size_t bytes, const std::string& protocol);

  /// Installs (and seeds) the fault schedule.
  void set_fault_plan(FaultPlan plan);

  /// Manual outage control (cluster failover tests, §VI.D DoS). Composes
  /// with any plan-scheduled downtime: a node is up only if both agree.
  void set_node_up(const std::string& id, bool up);
  [[nodiscard]] bool node_up(const std::string& id) const;

  /// Dynamic partition control. Plan partitions are fixed when the plan is
  /// installed; these compose with them and can be cut at the current clock
  /// time — what the ledger chaos tests need to sever a link mid-anchoring.
  /// A window heals when the clock passes its until_ns. Works with or
  /// without a fault plan.
  void add_partition(PartitionWindow window);

  /// One draw from the fault DRBG — lets the transport's backoff jitter
  /// share the plan's deterministic stream.
  [[nodiscard]] uint64_t fault_u64();

  /// Lazily constructed request/response transport bound to this network.
  [[nodiscard]] Transport& transport();

  [[nodiscard]] TrafficStats stats(const std::string& protocol) const;
  [[nodiscard]] TrafficStats total() const noexcept { return total_; }
  void reset_stats();

  /// Receiver-side freshness + replay guard: returns true (and records the
  /// tag) iff `timestamp` is within ±window of now and the tag is new for
  /// this receiver. Tags whose timestamps have aged out of the freshness
  /// window are pruned — a replay of such an old message is already
  /// rejected by the freshness check, so the cache stays bounded by the
  /// traffic of one window rather than growing forever.
  bool accept_fresh(const std::string& receiver, BytesView tag,
                    uint64_t timestamp_ns, uint64_t window_ns);

  /// Live tags currently retained for `receiver` (pruning observability).
  [[nodiscard]] size_t replay_cache_size(const std::string& receiver) const;

 private:
  [[nodiscard]] bool node_up_at(const std::string& id,
                                uint64_t now) const;
  [[nodiscard]] bool partitioned_at(const std::string& a,
                                    const std::string& b,
                                    uint64_t now) const;
  [[nodiscard]] const LinkFaults& faults_for(const std::string& from,
                                             const std::string& to) const;

  Clock clock_;
  LinkModel default_link_;
  std::map<std::pair<std::string, std::string>, LinkModel> links_;
  std::map<std::string, TrafficStats> per_protocol_;
  TrafficStats total_;
  std::map<std::string, std::map<Bytes, uint64_t>> replay_seen_;
  std::unique_ptr<FaultPlan> plan_;
  std::vector<PartitionWindow> dynamic_partitions_;
  cipher::Drbg fault_rng_;
  std::set<std::string> manually_down_;
  std::unique_ptr<Transport> transport_;
};

}  // namespace hcpp::sim
