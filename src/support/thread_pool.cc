#include "support/thread_pool.h"

#include <utility>

#include "support/failpoint.h"
#include "support/metrics.h"

namespace oocq {

ThreadPool::ThreadPool(uint32_t num_threads) {
  workers_.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

const ThreadPool::PoolMetrics* ThreadPool::ResolvePoolMetrics(
    MetricsRegistry* metrics) {
  auto handles = std::make_unique<PoolMetrics>();
  handles->registry = metrics;
  handles->tasks = metrics->Counter("pool/tasks");
  handles->queue_wait_ns = metrics->Histogram("pool/queue_wait_ns");
  handles->task_ns = metrics->Histogram("pool/task_ns");
  handles->queue_depth = metrics->Histogram("pool/queue_depth");
  const PoolMetrics* out = handles.get();
  std::lock_guard<std::mutex> lock(mu_);
  pool_metrics_storage_.push_back(std::move(handles));
  pool_metrics_.store(out, std::memory_order_release);
  return out;
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  // With a metrics scope installed, the entry carries the enqueue time
  // and resolved handles so the worker can sample queue wait and run
  // time; the registry outlives the task (the caller owns both and
  // drains the pool before the scope ends). Handles are cached per
  // registry, so the steady state never touches a registry shard mutex.
  Entry entry;
  if (MetricsRegistry* metrics = ActiveMetrics()) {
    const PoolMetrics* handles = pool_metrics_.load(std::memory_order_acquire);
    if (handles == nullptr || handles->registry != metrics) {
      handles = ResolvePoolMetrics(metrics);
    }
    handles->tasks->Add(1);
    entry.enqueue_ns = TelemetryNowNs();
    entry.metrics = handles;
  }
  entry.task = std::packaged_task<void()>(std::move(task));
  std::future<void> future = entry.task.get_future();
  const PoolMetrics* handles = entry.metrics;
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(entry));
    depth = queue_.size();
  }
  cv_.notify_one();
  if (handles != nullptr) handles->queue_depth->Record(depth);
  return future;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Entry entry;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      entry = std::move(queue_.front());
      queue_.pop_front();
    }
    // Chaos hook: delay simulates a stalled worker (the serve watchdog's
    // trigger), crash a worker death. `error` is inert here — a pool task
    // has no Status channel.
    Failpoints::Hit("pool/dispatch");
    if (entry.metrics != nullptr) {
      const uint64_t start_ns = TelemetryNowNs();
      entry.metrics->queue_wait_ns->Record(start_ns - entry.enqueue_ns);
      entry.task();
      entry.metrics->task_ns->Record(TelemetryNowNs() - start_ns);
    } else {
      entry.task();
    }
  }
}

}  // namespace oocq
