// Observability subsystem: histogram edge cases, snapshot/diff, JSON and
// Prometheus export round-trips, span nesting, and the end-to-end
// acceptance check — a privileged retrieval trace showing nested spans
// (transport → SSE lookup) with pairing-count attribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <string>
#include <vector>

#include "src/core/setup.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/transport.h"

namespace hcpp::obs {
namespace {

/// Attaches a private registry for the test's lifetime and restores the
/// previous attachment afterwards, so suites don't leak state into each
/// other however the runner orders them.
class ObsTest : public ::testing::Test {
 protected:
  ObsTest() : previous_(attached()) { attach(&reg_); }
  ~ObsTest() override { attach(previous_); }

  Registry reg_;

 private:
  Registry* previous_;
};

// ---- Histogram edge cases ---------------------------------------------------

TEST(HistogramEdge, EmptyHistogramReportsZeros) {
  Histogram h;
  HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.percentile(0.0), 0.0);
  EXPECT_EQ(s.percentile(0.5), 0.0);
  EXPECT_EQ(s.percentile(1.0), 0.0);
}

TEST(HistogramEdge, SingleSampleIsEveryPercentile) {
  Histogram h;
  h.record(12345.0);
  HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, 12345.0);
  EXPECT_EQ(s.max, 12345.0);
  // Clamping to [min, max] makes the single sample exact at any p.
  EXPECT_EQ(s.percentile(0.01), 12345.0);
  EXPECT_EQ(s.percentile(0.50), 12345.0);
  EXPECT_EQ(s.percentile(0.99), 12345.0);
}

TEST(HistogramEdge, OverflowBucketCatchesOutOfRangeSamples) {
  Histogram h({1.0, 2.0, 4.0});
  h.record(100.0);  // beyond the last bound
  h.record(0.5);
  HistogramSummary s = h.summary();
  ASSERT_EQ(s.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.max, 100.0);
  // The overflow bucket has no upper bound; max stands in for it.
  EXPECT_EQ(s.percentile(1.0), 100.0);
}

TEST(HistogramEdge, PercentilesAreMonotoneInP) {
  Histogram h;
  // A spread that hits several buckets plus the overflow bucket.
  for (double v : {500.0, 3e3, 3e3, 7e4, 1e6, 4e7, 9e9, 8e10, 9e10}) {
    h.record(v);
  }
  HistogramSummary s = h.summary();
  double prev = s.percentile(0.0);
  for (double p = 0.05; p <= 1.0001; p += 0.05) {
    double cur = s.percentile(p);
    EXPECT_GE(cur, prev) << "percentile not monotone at p=" << p;
    prev = cur;
  }
  EXPECT_GE(s.percentile(0.0), s.min);
  EXPECT_LE(s.percentile(1.0), s.max);
}

// ---- Registry + snapshot/diff ----------------------------------------------

TEST_F(ObsTest, FreeFunctionsFeedTheAttachedRegistry) {
  count("test.counter");
  count("test.counter", 4);
  gauge_set("test.gauge", -7);
  observe("test.latency", 2e6);
  Snapshot s = reg_.snapshot();
  EXPECT_EQ(s.counter("test.counter"), 5u);
  EXPECT_EQ(s.gauges.at("test.gauge"), -7);
  EXPECT_EQ(s.histograms.at("test.latency").count, 1u);
  EXPECT_EQ(s.counter("never.touched"), 0u);
}

TEST(ObsDetached, NothingRecordsWhileUnattached) {
  Registry* previous = attached();
  attach(nullptr);
  count("orphan.counter");
  observe("orphan.latency", 1.0);
  EXPECT_FALSE(recording());
  attach(previous);
  EXPECT_EQ(global().snapshot().counter("orphan.counter"), 0u);
}

TEST_F(ObsTest, DiffSubtractsCountersAndHistogramCounts) {
  count("d.ops", 10);
  observe("d.lat", 5e3);
  Snapshot before = reg_.snapshot();
  count("d.ops", 3);
  count("d.fresh");  // only exists in the later snapshot
  observe("d.lat", 6e3);
  Snapshot delta = reg_.snapshot().diff(before);
  EXPECT_EQ(delta.counter("d.ops"), 3u);
  EXPECT_EQ(delta.counter("d.fresh"), 1u);
  EXPECT_EQ(delta.histograms.at("d.lat").count, 1u);
}

TEST(ObsRegistry, DiffWorksThroughDirectRegistryCalls) {
  Registry r;
  r.add("d.ops", 10);
  r.observe("d.lat", 5e3);
  Snapshot before = r.snapshot();
  r.add("d.ops", 3);
  r.observe("d.lat", 6e3);
  Snapshot delta = r.snapshot().diff(before);
  EXPECT_EQ(delta.counter("d.ops"), 3u);
  EXPECT_EQ(delta.histograms.at("d.lat").count, 1u);
}

// ---- Export round-trips -----------------------------------------------------

Registry& populated(Registry& r) {
  r.add("rt.requests", 41);
  r.add("rt.retries", 3);
  r.gauge_set("rt.depth", 12);
  r.gauge_set("rt.balance", -3);
  for (double v : {1.5e3, 2.2e4, 2.2e4, 7.7e6, 9.9e10}) {
    r.observe("rt.latency", v);
  }
  return r;
}

TEST(ObsExport, JsonRoundTripIsLossless) {
  Registry r;
  Snapshot s = populated(r).snapshot();
  Snapshot back = from_json(to_json(s));
  EXPECT_EQ(back, s);  // exact: counts, sums, bounds, min/max
}

TEST(ObsExport, JsonRoundTripSurvivesEmptyRegistry) {
  Registry r;
  Snapshot s = r.snapshot();
  EXPECT_EQ(from_json(to_json(s)), s);
}

TEST(ObsExport, PrometheusEmitParseIsAFixedPoint) {
  Registry r;
  Snapshot s = populated(r).snapshot();
  std::string text = to_prometheus(s);
  // Name sanitization is not invertible, so the guarantee is emit∘parse
  // stability rather than snapshot equality.
  EXPECT_EQ(to_prometheus(from_prometheus(text)), text);
  EXPECT_NE(text.find("hcpp_rt_requests 41"), std::string::npos);
  EXPECT_NE(text.find("hcpp_rt_latency_bucket"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
}

TEST(ObsExport, PrometheusParseRecoversHistogramContents) {
  Registry r;
  Snapshot s = populated(r).snapshot();
  // Parsed names keep their sanitized (underscore) spelling; the dotted
  // originals are not recoverable from the exposition format.
  Snapshot back = from_prometheus(to_prometheus(s));
  const HistogramSummary& h = back.histograms.at("rt_latency");
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.min, 1.5e3);
  EXPECT_EQ(h.max, 9.9e10);
  EXPECT_EQ(h.counts, s.histograms.at("rt.latency").counts);
  EXPECT_EQ(back.counter("rt_requests"), 41u);
}

// ---- Tracer -----------------------------------------------------------------

TEST_F(ObsTest, SpansNestAndCarryCryptoDeltas) {
  sim::Network net;
  reg_.tracer().enable(net.clock());
  {
    Span outer("outer");
    net.clock().advance(1000);
    count(kPairing, 2);
    {
      Span inner("inner:", "leaf");
      net.clock().advance(500);
      count(kPairingFixed);
      count(kPointMul, 3);
    }
  }
  const auto& spans = reg_.tracer().spans();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord& outer = spans[0];
  const SpanRecord& inner = spans[1];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(outer.parent, -1);
  EXPECT_EQ(inner.name, "inner:leaf");
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(inner.parent, 0);
  EXPECT_EQ(outer.duration_ns(), 1500u);
  EXPECT_EQ(inner.duration_ns(), 500u);
  // Attribution includes children: outer saw both its own pairings and the
  // inner span's fixed-argument one.
  EXPECT_EQ(inner.pairings, 1u);
  EXPECT_EQ(inner.miller_loops_saved, 1u);
  EXPECT_EQ(inner.point_muls, 3u);
  EXPECT_EQ(outer.pairings, 3u);
  EXPECT_EQ(outer.point_muls, 3u);
}

TEST_F(ObsTest, TracerBoundsSpanCountAndCountsDrops) {
  sim::Network net;
  reg_.tracer().enable(net.clock(), /*max_spans=*/2);
  for (int i = 0; i < 5; ++i) {
    Span s("s");
  }
  EXPECT_EQ(reg_.tracer().spans().size(), 2u);
  EXPECT_EQ(reg_.tracer().dropped(), 3u);
}

// ---- End-to-end: the acceptance-criterion trace -----------------------------

int32_t find_span(const std::vector<SpanRecord>& spans,
                  std::string_view name) {
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) return static_cast<int32_t>(i);
  }
  return -1;
}

bool is_descendant(const std::vector<SpanRecord>& spans, int32_t node,
                   int32_t ancestor) {
  while (node != -1) {
    if (node == ancestor) return true;
    node = spans[static_cast<size_t>(node)].parent;
  }
  return false;
}

TEST_F(ObsTest, PrivilegedRetrieveTraceNestsTransportSseAndPairings) {
  core::DeploymentConfig cfg;
  cfg.n_phi_files = 8;
  cfg.seed = 99;
  core::Deployment d = core::Deployment::create(cfg);
  reg_.tracer().enable(d.net->clock());

  std::vector<std::string> kws = {d.all_keywords().front()};
  ASSERT_TRUE(d.family->try_emergency_retrieve(*d.sserver, kws).ok());

  const auto& spans = reg_.tracer().spans();
  int32_t root = find_span(spans, "protocol:privileged_retrieve");
  ASSERT_NE(root, -1);
  const SpanRecord& proto = spans[static_cast<size_t>(root)];
  EXPECT_EQ(proto.depth, 0u);

  // Both §IV.E.1 rounds appear as transport children of the protocol span.
  int32_t be = find_span(spans, "transport:emergency-be-request");
  int32_t pr = find_span(spans, "transport:emergency-privileged-retrieval");
  ASSERT_NE(be, -1);
  ASSERT_NE(pr, -1);
  EXPECT_TRUE(is_descendant(spans, be, root));
  EXPECT_TRUE(is_descendant(spans, pr, root));

  // The SSE lookup runs inside the server handler inside the second round.
  int32_t sse = find_span(spans, "sse:lookup");
  ASSERT_NE(sse, -1);
  EXPECT_TRUE(is_descendant(spans, sse, pr));
  EXPECT_GT(spans[static_cast<size_t>(sse)].depth, proto.depth);

  // Pairing attribution: the ν-derivations under each round cost pairings,
  // and the protocol root saw all of them.
  const SpanRecord& round2 = spans[static_cast<size_t>(pr)];
  EXPECT_GT(round2.pairings, 0u);
  EXPECT_GE(proto.pairings, round2.pairings);
  EXPECT_GT(proto.miller_loops_saved, 0u);  // ν uses the fixed-base cache

  // The rendered tree mentions the same structure.
  std::string text = reg_.tracer().format();
  EXPECT_NE(text.find("protocol:privileged_retrieve"), std::string::npos);
  EXPECT_NE(text.find("pairings="), std::string::npos);
}

// ---- Transport mirror -------------------------------------------------------

TEST_F(ObsTest, TransportStatsAndRegistryCountersAgree) {
  core::DeploymentConfig cfg;
  cfg.n_phi_files = 6;
  cfg.seed = 17;
  core::Deployment d = core::Deployment::create(cfg);
  reg_.reset();  // drop setup-phase counts; compare one workload's worth
  d.net->transport().reset_stats();

  sim::FaultPlan plan;
  plan.seed = 5;
  plan.default_faults.drop = 0.25;
  plan.default_faults.duplicate = 0.10;
  d.net->set_fault_plan(plan);

  std::vector<std::string> kws = {d.all_keywords().front()};
  (void)d.patient->try_retrieve(*d.sserver, kws);
  (void)d.family->try_emergency_retrieve(*d.sserver, kws);

  sim::DeliveryStats t = d.net->transport().total();
  Snapshot s = reg_.snapshot();
  EXPECT_EQ(s.counter(kTransportRequests), t.requests);
  EXPECT_EQ(s.counter(kTransportAttempts), t.attempts);
  EXPECT_EQ(s.counter(kTransportRetries), t.retries);
  EXPECT_EQ(s.counter(kTransportSucceeded), t.succeeded);
  EXPECT_EQ(s.counter(kTransportRejected), t.rejected);
  EXPECT_EQ(s.counter(kTransportGaveUp), t.gave_up);
  EXPECT_EQ(s.counter(kTransportDupSuppressed), t.duplicates_suppressed);
  EXPECT_EQ(s.counter(kTransportResponsesLost), t.responses_lost);
  // Latency histogram saw every finished request, total and per protocol.
  EXPECT_EQ(s.histograms.at(kTransportRequestNs).count, t.requests);
  EXPECT_GE(s.histograms.at(std::string(kTransportRequestNs) +
                            ".phi-retrieval")
                .count,
            1u);
}


// ---- Thread safety ---------------------------------------------------------

TEST_F(ObsTest, ConcurrentBumpsFromManyThreadsLoseNothing) {
  // Registry::add/observe/gauge_set are mutex-guarded; pool workers hammer
  // one counter, one histogram and one gauge concurrently and the totals
  // must come out exact. The TSan CI job runs this with instrumentation.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      for (int i = 0; i < kPerThread; ++i) {
        reg_.add("mt.counter");
        reg_.observe("mt.latency", static_cast<double>(i + 1));
        reg_.gauge_set("mt.gauge", t);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Snapshot snap = reg_.snapshot();
  EXPECT_EQ(snap.counter("mt.counter"),
            static_cast<uint64_t>(kThreads) * kPerThread);
  ASSERT_TRUE(snap.histograms.contains("mt.latency"));
  EXPECT_EQ(snap.histograms.at("mt.latency").count,
            static_cast<uint64_t>(kThreads) * kPerThread);
  // The gauge holds whichever thread wrote last — any valid thread index.
  int64_t g = snap.gauges.at("mt.gauge");
  EXPECT_GE(g, 0);
  EXPECT_LT(g, kThreads);
}

TEST_F(ObsTest, ConcurrentSnapshotsWhileWritingAreConsistent) {
  std::atomic<bool> stop{false};
  std::thread writer([this, &stop] {
    while (!stop.load()) reg_.add("mt.spin");
  });
  for (int i = 0; i < 50; ++i) {
    Snapshot snap = reg_.snapshot();
    // Monotone: a later snapshot never shows a smaller count.
    Snapshot later = reg_.snapshot();
    EXPECT_GE(later.counter("mt.spin"), snap.counter("mt.spin"));
  }
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace hcpp::obs
