// Fixed-size thread pool and data-parallel helpers — the execution layer the
// hot paths (SSE index build, collection AEAD, concurrent SEARCH serving,
// batch IBS verification) shard their work onto.
//
// Design rules (DESIGN.md §9):
//   * A pool is a fixed set of workers created up front; no task ever spawns
//     a thread. Sizing comes from the HCPP_THREADS environment variable
//     (default_threads()), falling back to std::hardware_concurrency.
//   * Deterministic-when-single-threaded: a pool of size 1 (and every
//     `pool == nullptr` call site) executes shards inline on the caller's
//     thread in ascending shard order — byte-for-byte the serial schedule,
//     which is what the serial-equivalence oracle tests pin down.
//   * Shard boundaries are a pure function of (n, size()), so for a fixed
//     seed *and* thread count every run distributes work — and any forked
//     DRBG streams — identically.
//   * Exceptions thrown by shard bodies are captured and the first one is
//     rethrown on the calling thread after the batch drains; the pool itself
//     stays usable.
//
// Observability: each pool exports a queue-depth gauge
// ("par.<name>.queue_depth"), a task-latency histogram ("par.<name>.task_ns",
// wall time of one shard body) and a tasks counter ("par.<name>.tasks").
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace hcpp::par {

class ThreadPool {
 public:
  /// `threads == 0` means default_threads(). `name` keys the pool's metrics.
  explicit ThreadPool(size_t threads = 0, std::string name = "pool");
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count (>= 1). A size-1 pool runs everything inline.
  [[nodiscard]] size_t size() const noexcept { return threads_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// HCPP_THREADS environment override, else hardware_concurrency, min 1.
  static size_t default_threads();

  /// Splits [0, n) into min(size(), n) contiguous shards and runs
  /// fn(shard, begin, end) for each; blocks until every shard finished.
  /// Shard boundaries depend only on (n, size()).
  void for_shards(size_t n,
                  const std::function<void(size_t shard, size_t begin,
                                           size_t end)>& fn);

  /// Element-wise parallel loop: fn(i) for every i in [0, n), sharded as
  /// for_shards.
  void parallel_for(size_t n, const std::function<void(size_t)>& fn);

  /// Number of shards for_shards will use for `n` items.
  [[nodiscard]] size_t shard_count(size_t n) const noexcept {
    return n < threads_ ? (n == 0 ? 0 : n) : threads_;
  }

 private:
  struct Batch;  // one for_shards invocation's completion state

  void worker_loop();
  void run_task(const std::function<void()>& task);

  std::string name_;
  size_t threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;

  // Cached metric names ("par.<name>.…") so the hot path never concatenates.
  std::string m_queue_depth_, m_task_ns_, m_tasks_;
};

}  // namespace hcpp::par
