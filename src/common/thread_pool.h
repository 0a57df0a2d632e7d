// Fixed-size worker pool with a bounded submission queue — the execution
// substrate of the concurrent query-serving engine (core/query_engine.h)
// and reusable by any component that wants queued task parallelism rather
// than the fork-join style of common/parallel.h.
//
// Semantics:
//   * `num_threads` workers are spawned eagerly and live until destruction.
//   * Submit() enqueues a task and returns a std::future for its result.
//     When a `queue_capacity` was given and the queue is full, Submit()
//     BLOCKS until a worker drains an entry — natural backpressure, so an
//     overloaded server sheds load onto its callers instead of growing an
//     unbounded backlog.
//   * TrySubmit() is the load-shedding variant: it never blocks, and
//     instead reports kQueueFull (caller sheds) or kShutdown (pool is
//     draining) — the query engine's Submit/SubmitAsync admit through it,
//     while its QueryBatch uses the blocking Submit().
//   * Shutdown() drains every already-submitted task, joins the workers,
//     and is idempotent/thread-safe; the destructor calls it. After
//     Shutdown, Submit() runs the task inline on the calling thread (the
//     returned future is always satisfied, never silently dropped) and
//     TrySubmit() reports kShutdown.
//
// Thread safety: all public members may be called from any thread. Tasks
// may not Submit() to the pool they run on while the queue is full (the
// classic self-deadlock); the query engine therefore keeps intra-query
// parallelism on ParallelFor's fork-join threads, never on its own pool.

#ifndef IMAGEPROOF_COMMON_THREAD_POOL_H_
#define IMAGEPROOF_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace imageproof {

class ThreadPool {
 public:
  // `queue_capacity` of 0 means unbounded (Submit never blocks).
  explicit ThreadPool(unsigned num_threads, size_t queue_capacity = 0)
      : capacity_(queue_capacity) {
    if (num_threads == 0) num_threads = 1;
    workers_.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this, i] {
        worker_index_ = static_cast<int>(i);
        WorkerLoop();
      });
    }
  }

  ~ThreadPool() { Shutdown(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Outcome of a TrySubmit admission attempt.
  enum class TrySubmitResult {
    kAccepted,   // task enqueued; the future will be satisfied
    kQueueFull,  // bounded queue at capacity; nothing enqueued
    kShutdown,   // pool is stopping/stopped; nothing enqueued
  };

  // Enqueues `fn` and returns a future for its result. Blocks while the
  // bounded queue is full. After Shutdown() the task runs inline on the
  // calling thread (no worker remains to drain it, but the future must
  // still be satisfied).
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using R = std::invoke_result_t<std::decay_t<Fn>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock, [this] {
        return stopping_ || capacity_ == 0 || queue_.size() < capacity_;
      });
      if (stopping_) {
        lock.unlock();
        (*task)();
        return result;
      }
      queue_.emplace_back([task] { (*task)(); });
    }
    not_empty_.notify_one();
    return result;
  }

  // Non-blocking admission: enqueues `fn` only when the pool accepts work
  // and the bounded queue has room, otherwise reports why. `*out` is set
  // only on kAccepted.
  template <typename Fn>
  TrySubmitResult TrySubmit(
      Fn&& fn, std::future<std::invoke_result_t<std::decay_t<Fn>>>* out) {
    using R = std::invoke_result_t<std::decay_t<Fn>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (stopping_) return TrySubmitResult::kShutdown;
      if (capacity_ != 0 && queue_.size() >= capacity_) {
        return TrySubmitResult::kQueueFull;
      }
      *out = task->get_future();
      queue_.emplace_back([task] { (*task)(); });
    }
    not_empty_.notify_one();
    return TrySubmitResult::kAccepted;
  }

  // Drains every already-submitted task, then joins the workers. Safe to
  // call from multiple threads and multiple times; later calls are no-ops.
  void Shutdown() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      stopping_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
    std::lock_guard<std::mutex> join_lock(join_mu_);
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
  }

  size_t QueueDepth() const {
    std::unique_lock<std::mutex> lock(mu_);
    return queue_.size();
  }

  unsigned num_threads() const {
    return static_cast<unsigned>(workers_.size());
  }

  // Index in [0, num_threads) of the pool worker running the calling
  // thread, or -1 off-pool. A task that runs on some pool sees that pool's
  // index; the query engine uses this for per-worker serving counters.
  static int CurrentWorkerIndex() { return worker_index_; }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        not_empty_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and fully drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      not_full_.notify_one();
      task();
    }
  }

  inline static thread_local int worker_index_ = -1;

  mutable std::mutex mu_;
  std::mutex join_mu_;  // serializes concurrent Shutdown() joins
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::function<void()>> queue_;
  size_t capacity_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace imageproof

#endif  // IMAGEPROOF_COMMON_THREAD_POOL_H_
