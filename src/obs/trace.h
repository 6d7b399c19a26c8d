// Scoped trace spans driven by sim::Clock, with crypto-op attribution.
//
// A Span brackets one region of protocol work ("protocol:privileged_retrieve",
// "transport:emergency-be-request", "sse:search") between two readings of the
// simulated clock. Spans nest: the tracer maintains the open-span stack, so a
// finished trace is a forest with parent links and depths, ready to print as
// an indented tree.
//
// Attribution: at open and close each span snapshots the registry's crypto
// counters, so the finished record carries exactly how many pairing
// evaluations (one-shot + fixed-argument + multi-pairing terms), saved Miller
// loops, point multiplications and hash-to-point calls that region cost —
// including everything its children did.
//
// Span taxonomy (DESIGN.md §8): "protocol:*" client-side flows,
// "transport:<label>" one retrying request/response exchange, "sserver:*" /
// "aserver:*" server handlers, "sse:*" index ops, "crypto:*" key
// derivations.
//
// Tracing is off until Tracer::enable(clock).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace hcpp::sim {
class Clock;
}

namespace hcpp::obs {

/// One finished (or still-open: end_ns == 0 while open) span.
struct SpanRecord {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t depth = 0;        // root = 0
  int32_t parent = -1;       // index into Tracer::spans(), -1 for roots
  // Crypto work attributed to this span (children included).
  uint64_t pairings = 0;           // pairing + pairing_fixed + product terms
  uint64_t miller_loops_saved = 0; // fixed-argument pairings (precomp hits)
  uint64_t point_muls = 0;
  uint64_t hash_to_points = 0;

  [[nodiscard]] uint64_t duration_ns() const noexcept {
    return end_ns >= start_ns ? end_ns - start_ns : 0;
  }
};

/// Owned by a Registry (registry.tracer()). Span open/close is serialized on
/// an internal mutex so pool workers may emit spans concurrently (DESIGN.md
/// §9) — note the open-span *stack* is process-wide, so a worker span parents
/// under whichever span is innermost at that instant; cross-thread
/// attribution is approximate by design. spans()/format() are safe once the
/// workers have quiesced.
class Tracer {
 public:
  explicit Tracer(Registry& owner) : owner_(&owner) {}

  /// Starts recording spans timed off `clock`. Bounded: once `max_spans`
  /// records exist, new spans are counted in dropped() but not stored.
  void enable(const sim::Clock& clock, size_t max_spans = 8192);
  void disable() noexcept {
    clock_.store(nullptr, std::memory_order_release);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return clock_.load(std::memory_order_acquire) != nullptr;
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] size_t dropped() const noexcept { return dropped_; }
  void clear();

  /// Renders the span forest as an indented tree with durations and pairing
  /// attribution — the CLI's `trace show`.
  [[nodiscard]] std::string format() const;

  // Span lifecycle (called by Span; returns -1 when not recorded).
  int32_t open(std::string_view name);
  void close(int32_t index);

 private:
  struct CryptoCounts {
    uint64_t pairing = 0, fixed = 0, product_terms = 0, point_mul = 0,
             hash_to_point = 0;
  };
  [[nodiscard]] CryptoCounts crypto_now() const;

  Registry* owner_;
  std::atomic<const sim::Clock*> clock_{nullptr};
  mutable std::mutex mu_;  // guards everything below
  size_t max_spans_ = 0;
  size_t dropped_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;  // stack of indices into spans_
  std::vector<CryptoCounts> open_crypto_;
};

// ---------------------------------------------------------------------------
/// RAII span. Records only when a registry is attached *and* its tracer is
/// enabled; otherwise construction is one atomic load.
class Span {
 public:
  explicit Span(std::string_view name) {
    Registry* r = attached();
    if (r != nullptr && r->tracer().enabled()) {
      tracer_ = &r->tracer();
      index_ = tracer_->open(name);
    }
  }
  /// Two-part name ("transport:" + protocol); the concatenation only
  /// happens when the span is actually recorded.
  Span(std::string_view prefix, std::string_view suffix) {
    Registry* r = attached();
    if (r != nullptr && r->tracer().enabled()) {
      tracer_ = &r->tracer();
      std::string name(prefix);
      name += suffix;
      index_ = tracer_->open(name);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  int32_t index_ = -1;
};

}  // namespace hcpp::obs
