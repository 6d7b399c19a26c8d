// Thread-pool execution layer: shard determinism, full coverage, exception
// propagation, inline single-thread mode, and the per-pool metrics
// (queue-depth gauge, task latency histogram, counter).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "src/obs/metrics.h"
#include "src/par/pool.h"

namespace hcpp::par {
namespace {

using ShardVec = std::vector<std::tuple<size_t, size_t, size_t>>;

ShardVec record_shards(ThreadPool& pool, size_t n) {
  std::mutex mu;
  ShardVec out;
  pool.for_shards(n, [&](size_t s, size_t b, size_t e) {
    std::lock_guard<std::mutex> lock(mu);
    out.emplace_back(s, b, e);
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ThreadPool, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(4, "t");
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ShardBoundariesArePureFunctionOfNAndSize) {
  ThreadPool pool(3, "t");
  ShardVec a = record_shards(pool, 10);
  ShardVec b = record_shards(pool, 10);
  EXPECT_EQ(a, b);
  // 10 over 3 shards: first 10 % 3 = 1 shard gets the extra element.
  ShardVec want = {{0, 0, 4}, {1, 4, 7}, {2, 7, 10}};
  EXPECT_EQ(a, want);
}

TEST(ThreadPool, ShardsCoverRangeContiguously) {
  ThreadPool pool(8, "t");
  for (size_t n : {1u, 2u, 7u, 8u, 9u, 64u, 1000u}) {
    ShardVec shards = record_shards(pool, n);
    EXPECT_EQ(shards.size(), pool.shard_count(n));
    size_t expect_begin = 0;
    for (const auto& [s, b, e] : shards) {
      EXPECT_EQ(b, expect_begin);
      EXPECT_LT(b, e);
      expect_begin = e;
    }
    EXPECT_EQ(expect_begin, n);
  }
}

TEST(ThreadPool, FewerItemsThanThreadsGetOneShardEach) {
  ThreadPool pool(8, "t");
  EXPECT_EQ(pool.shard_count(3), 3u);
  EXPECT_EQ(pool.shard_count(0), 0u);
  size_t calls = 0;
  pool.for_shards(0, [&](size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

TEST(ThreadPool, SingleThreadRunsInlineInAscendingOrder) {
  ThreadPool pool(1, "t");
  EXPECT_EQ(pool.size(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.for_shards(100, [&](size_t s, size_t, size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(s);
  });
  // Inline mode: one shard per item bucket would be 1 here (n >= threads).
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 0u);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4, "t");
  EXPECT_THROW(pool.parallel_for(100,
                                 [](size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool survives a failed batch.
  std::atomic<size_t> done{0};
  pool.parallel_for(100, [&](size_t) { ++done; });
  EXPECT_EQ(done.load(), 100u);
}

TEST(ThreadPool, DefaultThreadsHonorsEnvOverride) {
  ::setenv("HCPP_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_threads(), 3u);
  ThreadPool pool(0, "t");
  EXPECT_EQ(pool.size(), 3u);
  ::unsetenv("HCPP_THREADS");
  EXPECT_GE(ThreadPool::default_threads(), 1u);
}

TEST(ThreadPool, EmitsQueueDepthLatencyAndTaskCount) {
  obs::Registry* prev = obs::attached();
  obs::Registry reg;
  obs::attach(&reg);
  {
    ThreadPool pool(4, "metered");
    pool.parallel_for(64, [](size_t) {});
  }
  obs::attach(prev);
  obs::Snapshot snap = reg.snapshot();
  // One task per shard; the counter and the histogram agree.
  EXPECT_EQ(snap.counter("par.metered.tasks"), 4u);
  ASSERT_TRUE(snap.histograms.contains("par.metered.task_ns"));
  EXPECT_EQ(snap.histograms.at("par.metered.task_ns").count, 4u);
  // The queue-depth gauge was written (drained back to 0 at the end).
  ASSERT_TRUE(snap.gauges.contains("par.metered.queue_depth"));
  EXPECT_EQ(snap.gauges.at("par.metered.queue_depth"), 0);
}

TEST(ThreadPool, ManyConcurrentBatchesOnSharedPool) {
  // Several threads submitting batches to their own pools concurrently —
  // the TSan job chews on this.
  ThreadPool pool(4, "t");
  std::atomic<size_t> total{0};
  std::vector<std::thread> submitters;
  submitters.reserve(3);
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&] {
      for (int round = 0; round < 5; ++round) {
        ThreadPool local(2, "local");
        local.parallel_for(50, [&](size_t) { ++total; });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(total.load(), 3u * 5u * 50u);
}

}  // namespace
}  // namespace hcpp::par
