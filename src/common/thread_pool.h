// Fixed-size worker pool shared by the SP-side parallel passes (acc2's
// chunked key-power batches, QueryBatch).
//
// Design goals, in order: no per-query thread construction, deadlock-freedom
// under nesting, and deterministic results for callers (the pool only
// schedules; work partitioning stays with the caller). The queue is a plain
// mutex-protected FIFO — the tasks routed here are milliseconds-long proof
// computations, so work stealing would buy nothing.
//
// `ParallelFor` is caller-participating: the submitting thread drains the
// shared index counter alongside the helpers it enqueued, so it completes
// even when every worker is busy (including when a worker itself calls
// `ParallelFor`, which makes nesting safe).

#ifndef VCHAIN_COMMON_THREAD_POOL_H_
#define VCHAIN_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace vchain {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_workers) {
    if (num_workers == 0) num_workers = 1;
    workers_.reserve(num_workers);
    for (size_t i = 0; i < num_workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t NumWorkers() const { return workers_.size(); }

  /// Fire-and-forget task submission.
  void Submit(std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push(std::move(fn));
    }
    cv_.notify_one();
  }

  /// Run fn(0..n-1) with at most `max_workers` concurrent executors (the
  /// caller counts as one). Returns once every invocation has completed.
  void ParallelFor(size_t n, size_t max_workers,
                   std::function<void(size_t)> fn) {
    if (n == 0) return;
    if (n == 1 || max_workers <= 1) {
      for (size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    auto state = std::make_shared<ForState>(std::move(fn), n);
    size_t helpers = std::min({max_workers, NumWorkers() + 1, n}) - 1;
    for (size_t h = 0; h < helpers; ++h) {
      Submit([state] { Drain(*state); });
    }
    Drain(*state);
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock, [&] {
      return state->finished.load(std::memory_order_acquire) == state->n;
    });
  }

  /// The process-wide pool shared by QueryBatch and the key oracle's power
  /// batches; sized to the hardware once, on first use.
  static ThreadPool& Shared() {
    static ThreadPool pool(DefaultParallelism());
    return pool;
  }

  static size_t DefaultParallelism() {
    unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<size_t>(hc);
  }

 private:
  struct ForState {
    ForState(std::function<void(size_t)> f, size_t count)
        : fn(std::move(f)), n(count) {}
    std::function<void(size_t)> fn;
    size_t n;
    std::atomic<size_t> next{0};
    std::atomic<size_t> finished{0};
    std::mutex mu;
    std::condition_variable done_cv;
  };

  static void Drain(ForState& state) {
    for (;;) {
      size_t i = state.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= state.n) return;
      state.fn(i);
      if (state.finished.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          state.n) {
        std::lock_guard<std::mutex> lock(state.mu);
        state.done_cv.notify_all();
      }
    }
  }

  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (stop_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace vchain

#endif  // VCHAIN_COMMON_THREAD_POOL_H_
