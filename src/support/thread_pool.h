#ifndef OOCQ_SUPPORT_THREAD_POOL_H_
#define OOCQ_SUPPORT_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace oocq {

class MetricsRegistry;
class MetricCounter;
class MetricHistogram;

/// A fixed pool of worker threads draining a task queue. Tasks submitted
/// after construction run on the first free worker; the destructor drains
/// the queue and joins. OocqService::ExecuteBatch runs its items on one.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers. 0 is allowed and spawns none — tasks
  /// submitted to an empty pool never run.
  explicit ThreadPool(uint32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`; the future becomes ready when it finishes (or
  /// rethrows if the task threw).
  std::future<void> Submit(std::function<void()> task);

  uint32_t num_threads() const { return static_cast<uint32_t>(workers_.size()); }

 private:
  /// Resolved-once metric handles for the pool's per-task samples. One
  /// struct per registry the pool has seen; Submit re-resolves only when
  /// the installed registry changes, so the steady state is four atomic
  /// bumps instead of four name lookups (each a shard mutex) per task.
  struct PoolMetrics {
    MetricsRegistry* registry = nullptr;
    MetricCounter* tasks = nullptr;
    MetricHistogram* queue_wait_ns = nullptr;
    MetricHistogram* task_ns = nullptr;
    MetricHistogram* queue_depth = nullptr;
  };

  /// A queued task plus the metric context captured at Submit time. The
  /// worker samples queue wait / run time from these fields directly, so
  /// instrumentation never re-wraps the task in another std::function.
  struct Entry {
    std::packaged_task<void()> task;
    uint64_t enqueue_ns = 0;
    const PoolMetrics* metrics = nullptr;  // null = no scope at Submit
  };

  void WorkerLoop();
  const PoolMetrics* ResolvePoolMetrics(MetricsRegistry* metrics);

  std::vector<std::thread> workers_;
  std::deque<Entry> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<const PoolMetrics*> pool_metrics_{nullptr};
  std::vector<std::unique_ptr<PoolMetrics>> pool_metrics_storage_;  // mu_
};

}  // namespace oocq

#endif  // OOCQ_SUPPORT_THREAD_POOL_H_
