#include "src/par/pool.h"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>

#include "src/obs/metrics.h"

namespace hcpp::par {

namespace {

size_t env_threads() {
  const char* v = std::getenv("HCPP_THREADS");
  if (v == nullptr || *v == '\0') return 0;
  char* end = nullptr;
  unsigned long n = std::strtoul(v, &end, 10);
  if (end == v || *end != '\0') return 0;
  return static_cast<size_t>(n);
}

/// Shard boundaries: first (n % shards) shards get one extra element, so the
/// split is a pure function of (n, shards).
void split(size_t n, size_t shards,
           const std::function<void(size_t, size_t, size_t)>& emit) {
  size_t base = n / shards;
  size_t extra = n % shards;
  size_t begin = 0;
  for (size_t s = 0; s < shards; ++s) {
    size_t len = base + (s < extra ? 1 : 0);
    emit(s, begin, begin + len);
    begin += len;
  }
}

}  // namespace

size_t ThreadPool::default_threads() {
  size_t n = env_threads();
  if (n == 0) n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// One for_shards call: counts outstanding shards and carries the first
// exception back to the submitting thread.
struct ThreadPool::Batch {
  std::mutex mu;
  std::condition_variable done;
  size_t remaining = 0;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(size_t threads, std::string name)
    : name_(std::move(name)),
      threads_(threads == 0 ? default_threads() : threads),
      m_queue_depth_("par." + name_ + ".queue_depth"),
      m_task_ns_("par." + name_ + ".task_ns"),
      m_tasks_("par." + name_ + ".tasks") {
  if (threads_ > 1) {
    // threads_ - 1 background workers: the submitting thread helps drain in
    // for_shards, so a size-N pool applies exactly N threads to a batch.
    workers_.reserve(threads_ - 1);
    for (size_t i = 0; i + 1 < threads_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::run_task(const std::function<void()>& task) {
  if (obs::recording()) {
    auto t0 = std::chrono::steady_clock::now();
    task();
    auto t1 = std::chrono::steady_clock::now();
    obs::observe(m_task_ns_,
                 static_cast<double>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         t1 - t0)
                         .count()));
    obs::count(m_tasks_);
  } else {
    task();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      obs::gauge_set(m_queue_depth_, static_cast<int64_t>(queue_.size()));
    }
    run_task(task);
  }
}

void ThreadPool::for_shards(
    size_t n, const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  size_t shards = shard_count(n);
  if (threads_ <= 1 || shards <= 1) {
    // Deterministic serial mode: ascending shard order on the caller.
    split(n, shards, [&](size_t s, size_t b, size_t e) {
      run_task([&] { fn(s, b, e); });
    });
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->remaining = shards;
  {
    std::lock_guard<std::mutex> lock(mu_);
    split(n, shards, [&](size_t s, size_t b, size_t e) {
      queue_.emplace_back([this, batch, &fn, s, b, e] {
        try {
          fn(s, b, e);
        } catch (...) {
          std::lock_guard<std::mutex> l(batch->mu);
          if (!batch->error) batch->error = std::current_exception();
        }
        std::lock_guard<std::mutex> l(batch->mu);
        if (--batch->remaining == 0) batch->done.notify_all();
      });
    });
    obs::gauge_set(m_queue_depth_, static_cast<int64_t>(queue_.size()));
  }
  cv_.notify_all();

  // Help drain the queue instead of blocking: the submitting thread is a
  // worker too, so a size-N pool really applies N threads to the batch.
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (queue_.empty()) break;
      task = std::move(queue_.front());
      queue_.pop_front();
      obs::gauge_set(m_queue_depth_, static_cast<int64_t>(queue_.size()));
    }
    run_task(task);
  }
  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->done.wait(lock, [&] { return batch->remaining == 0; });
    if (batch->error) std::rethrow_exception(batch->error);
  }
}

void ThreadPool::parallel_for(size_t n,
                              const std::function<void(size_t)>& fn) {
  for_shards(n, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

}  // namespace hcpp::par
