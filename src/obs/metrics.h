// Process-wide metrics registry: named counters, gauges and fixed-bucket
// latency histograms (p50/p95/p99), plus snapshot/diff so tests and benches
// can assert on deltas instead of absolute values.
//
// Cost model: every instrumentation site goes through the free functions at
// the bottom (count/gauge_set/observe). They compile away entirely when
// HCPP_OBS=0, and when compiled in they reduce to one relaxed atomic load
// and a not-taken branch while no registry is attached — cheap enough to
// stay on in benches. Attach a registry (obs::attach) to start recording;
// the simulation is single-threaded but the registry still locks, so bench
// binaries with worker threads stay correct.
//
// Metric names are dot-separated ("transport.retries",
// "crypto.pairing_fixed"); the exporters (export.h) map them to JSON keys
// and Prometheus series. The kM* constants below are the canonical names
// used across the stack — grep for them to find every instrumentation site.
#pragma once

#ifndef HCPP_OBS
#define HCPP_OBS 1
#endif

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hcpp::sim {
class Clock;
}

namespace hcpp::obs {

class Tracer;

// ---------------------------------------------------------------------------
// Canonical metric names.

// Crypto-op accounting (src/mp, src/curve, src/ibc).
inline constexpr const char* kPairing = "crypto.pairing";
inline constexpr const char* kPairingReference = "crypto.pairing_reference";
inline constexpr const char* kPairingFixed = "crypto.pairing_fixed";
inline constexpr const char* kPairingPrecompBuild =
    "crypto.pairing_precomp_build";
inline constexpr const char* kPairingProduct = "crypto.pairing_product";
inline constexpr const char* kPairingProductTerms =
    "crypto.pairing_product_terms";
inline constexpr const char* kFinalExp = "crypto.final_exp";
// Final exponentiations applied through final_exp_batch (each element of a
// batch counts once; the batch shares a single modular inversion).
inline constexpr const char* kFinalExpBatched = "crypto.final_exp_batched";
inline constexpr const char* kPointMul = "crypto.point_mul";
// Modular inversions through mp::MontCtx::inv (every Fp/Fp2 inverse, batch
// inversion, Jacobian→affine conversion and final exponentiation).
inline constexpr const char* kFieldInv = "crypto.field_inv";
inline constexpr const char* kHashToPoint = "crypto.hash_to_point";
// Per-context memos (curve::CurveCtx): H1(ID) behind ibc::Domain::public_key
// and received points accepted by curve::checked_point_from_bytes. A hit
// skips a hash-to-point or a subgroup check.
inline constexpr const char* kH1MemoHits = "crypto.h1_memo_hits";
inline constexpr const char* kH1MemoMisses = "crypto.h1_memo_misses";
inline constexpr const char* kCheckedPointMemoHits =
    "crypto.checked_point_memo_hits";
inline constexpr const char* kCheckedPointMemoMisses =
    "crypto.checked_point_memo_misses";

// Pairings a batch skipped outright versus the one-at-a-time path: repeated
// peers that ibc::SharedKeyDeriver::with_points did not pair again.
inline constexpr const char* kCoalescePairingsSaved = "coalesce.pairings_saved";

// Network substrate (src/sim/network.cpp).
inline constexpr const char* kNetMessages = "net.messages";
inline constexpr const char* kNetBytes = "net.bytes";
inline constexpr const char* kNetDropped = "net.dropped";
inline constexpr const char* kNetDuplicated = "net.duplicated";
inline constexpr const char* kNetCorrupted = "net.corrupted";
inline constexpr const char* kNetUnreachable = "net.unreachable";
inline constexpr const char* kNetReplayRejected = "net.replay_rejected";

// Retrying transport (src/sim/transport.h) — mirrors DeliveryStats.
inline constexpr const char* kTransportRequests = "transport.requests";
inline constexpr const char* kTransportAttempts = "transport.attempts";
inline constexpr const char* kTransportRetries = "transport.retries";
inline constexpr const char* kTransportSucceeded = "transport.succeeded";
inline constexpr const char* kTransportRejected = "transport.rejected";
inline constexpr const char* kTransportGaveUp = "transport.gave_up";
inline constexpr const char* kTransportDupSuppressed =
    "transport.duplicates_suppressed";
inline constexpr const char* kTransportResponsesLost =
    "transport.responses_lost";
inline constexpr const char* kTransportRequestNs = "transport.request_ns";

// SSE index (src/sse/sse.cpp).
inline constexpr const char* kSseIndexBuild = "sse.index_build";
inline constexpr const char* kSseSearch = "sse.search";
inline constexpr const char* kSseSearchHits = "sse.search_hits";

// Dynamic forward-private update layer (src/sse/dynamic.cpp and the UPDATE /
// COMPACT protocol handlers in src/core/update.cpp).
inline constexpr const char* kSseUpdateAdd = "sse.update_add";
inline constexpr const char* kSseUpdateDelete = "sse.update_delete";
inline constexpr const char* kSseDynSearch = "sse.dyn_search";
inline constexpr const char* kSseCompactions = "sse.compactions";

// Parallel execution layer (src/par/pool.cpp). Emitted per pool instance:
// "par.<pool>.queue_depth" (gauge, tasks waiting), "par.<pool>.task_ns"
// (histogram, wall time of one shard body), "par.<pool>.tasks" (counter).

// Audit ledger (src/ledger).
inline constexpr const char* kLedgerAppends = "ledger.appends";
inline constexpr const char* kLedgerAppendNs = "ledger.append_ns";
inline constexpr const char* kLedgerNotifications = "ledger.notifications";
inline constexpr const char* kLedgerCheckpoints = "ledger.checkpoints";
inline constexpr const char* kLedgerAnchorAttempts = "ledger.anchor_attempts";
inline constexpr const char* kLedgerAnchorsCommitted =
    "ledger.anchors_committed";
inline constexpr const char* kLedgerAnchorDivergence =
    "ledger.anchor_divergence";
inline constexpr const char* kLedgerChainVerifyNs = "ledger.chain_verify_ns";
inline constexpr const char* kLedgerProofVerifyNs = "ledger.proof_verify_ns";
inline constexpr const char* kLedgerRecoveredEntries =
    "ledger.recovered_entries";
inline constexpr const char* kLedgerTornTailBytes = "ledger.torn_tail_bytes";

// Persistent account store (src/store).
inline constexpr const char* kStorePuts = "store.puts";
inline constexpr const char* kStorePutNs = "store.put_ns";
inline constexpr const char* kStoreGets = "store.gets";
inline constexpr const char* kStoreGetNs = "store.get_ns";
inline constexpr const char* kStoreErases = "store.erases";
inline constexpr const char* kStoreSegmentRolls = "store.segment_rolls";
inline constexpr const char* kStoreCompactions = "store.compactions";
inline constexpr const char* kStoreCompactNs = "store.compact_ns";
inline constexpr const char* kStoreRecoveries = "store.recoveries";
inline constexpr const char* kStoreRecoverNs = "store.recover_ns";
inline constexpr const char* kStoreTornTails = "store.torn_tails";

// Load harness (bench/bench_load.cpp) — per-op latency histograms the bench
// converts into the BENCH_load.json percentile curve.
inline constexpr const char* kLoadOpNs = "load.op_ns";  // all op classes
inline constexpr const char* kLoadStoreNs = "load.store_ns";
inline constexpr const char* kLoadUpdateNs = "load.update_ns";
inline constexpr const char* kLoadSearchNs = "load.search_ns";
inline constexpr const char* kLoadRetrieveNs = "load.retrieve_ns";
inline constexpr const char* kLoadEmergencyNs = "load.emergency_ns";

// Streaming MHI pipeline (src/core/mhi_stream.cpp): standing-query matching
// of PEKS tags as windows land. tags_tested counts (registration, tag)
// pairs; ingest_ns is the hub-side wall time of one window's test batch.
inline constexpr const char* kMhiWindowsIngested = "mhi.windows_ingested";
inline constexpr const char* kMhiTagsTested = "mhi.tags_tested";
inline constexpr const char* kMhiHits = "mhi.hits";
inline constexpr const char* kMhiRegistrations = "mhi.registrations";
inline constexpr const char* kMhiExpiredRegistrations =
    "mhi.expired_registrations";
inline constexpr const char* kMhiIngestNs = "mhi.ingest_ns";

// Replication / failover (src/core/cluster.cpp and call.h mirror/failover).
inline constexpr const char* kSGroupFailover = "cluster.sserver.failover";
inline constexpr const char* kSGroupMirrorWrites =
    "cluster.sserver.mirror_writes";
inline constexpr const char* kSGroupSync = "cluster.sserver.sync";
inline constexpr const char* kAClusterFailover = "cluster.aserver.failover";

// ---------------------------------------------------------------------------
/// Exported view of one histogram: enough to print, diff, and re-import.
struct HistogramSummary {
  std::vector<double> bounds;    // bucket upper bounds, ascending
  std::vector<uint64_t> counts;  // bounds.size() + 1 entries (last: overflow)
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // meaningful only when count > 0
  double max = 0.0;

  /// Estimated p-quantile (p in [0, 1]): the upper bound of the bucket where
  /// the cumulative count crosses p·count, clamped to [min, max] so a
  /// single-sample histogram reports that exact sample. Returns 0 when
  /// empty. Monotone in p by construction.
  [[nodiscard]] double percentile(double p) const;

  bool operator==(const HistogramSummary&) const = default;
};

/// Fixed-bucket histogram. Bucket bounds never change after construction,
/// which is what makes diff() between two snapshots meaningful.
class Histogram {
 public:
  /// Default bounds: 1 µs … ~69 s in ×2 steps — spans everything the
  /// simulated clock produces, from one SSE lookup to a retry storm.
  static std::vector<double> default_latency_bounds();

  explicit Histogram(std::vector<double> bounds = default_latency_bounds());

  void record(double value);
  [[nodiscard]] HistogramSummary summary() const;

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// ---------------------------------------------------------------------------
/// Point-in-time copy of every metric; value-semantic so tests can hold one
/// from before an operation and diff it against one from after.
struct Snapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSummary> histograms;

  /// Counters and histogram counts/sums become this-minus-earlier (missing
  /// keys count as zero); gauges and histogram min/max keep this snapshot's
  /// values (deltas of level quantities are not meaningful).
  [[nodiscard]] Snapshot diff(const Snapshot& earlier) const;

  [[nodiscard]] uint64_t counter(std::string_view name) const;

  bool operator==(const Snapshot&) const = default;
};

// ---------------------------------------------------------------------------
/// The registry. One per process is the normal deployment (obs::global()),
/// but tests can create private ones to keep their deltas isolated.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  void add(std::string_view name, uint64_t delta = 1);
  void gauge_set(std::string_view name, int64_t value);
  /// Records into the named histogram, creating it with default latency
  /// bounds on first use (use declare_histogram for custom bounds).
  void observe(std::string_view name, double value);
  void declare_histogram(std::string_view name, std::vector<double> bounds);

  [[nodiscard]] uint64_t counter(std::string_view name) const;
  [[nodiscard]] int64_t gauge(std::string_view name) const;

  [[nodiscard]] Snapshot snapshot() const;
  void reset();

  /// Scoped-span recorder (trace.h); disabled until Tracer::enable.
  [[nodiscard]] Tracer& tracer() noexcept { return *tracer_; }

 private:
  mutable std::mutex mu_;
  std::map<std::string, uint64_t, std::less<>> counters_;
  std::map<std::string, int64_t, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::unique_ptr<Tracer> tracer_;
};

// ---------------------------------------------------------------------------
// Attachment: the process-wide active registry. Instrumentation throughout
// the stack is a no-op until something attaches a registry.

namespace detail {
extern std::atomic<Registry*> g_attached;
}

/// Lazily-constructed process-wide registry (never destroyed; safe to use
/// from static destructors of bench/test fixtures).
Registry& global();

inline void attach(Registry* r) noexcept {
  detail::g_attached.store(r, std::memory_order_release);
}
[[nodiscard]] inline Registry* attached() noexcept {
  return detail::g_attached.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// Instrumentation entry points. These — not Registry methods — are what the
// rest of the codebase calls, so that HCPP_OBS=0 builds drop every site.

#if HCPP_OBS
/// True when a registry is attached. Lets call sites skip work (label
/// concatenation, clock reads) that only matters while recording; constant
/// false — so dead-code-eliminable — when HCPP_OBS=0.
[[nodiscard]] inline bool recording() noexcept {
  return attached() != nullptr;
}
inline void count(std::string_view name, uint64_t delta = 1) {
  if (Registry* r = attached()) r->add(name, delta);
}
inline void gauge_set(std::string_view name, int64_t value) {
  if (Registry* r = attached()) r->gauge_set(name, value);
}
inline void observe(std::string_view name, double value) {
  if (Registry* r = attached()) r->observe(name, value);
}
#else
[[nodiscard]] inline constexpr bool recording() noexcept { return false; }
inline void count(std::string_view, uint64_t = 1) {}
inline void gauge_set(std::string_view, int64_t) {}
inline void observe(std::string_view, double) {}
#endif

}  // namespace hcpp::obs
