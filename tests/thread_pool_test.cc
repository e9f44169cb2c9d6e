// Unit tests for ThreadPool, which runs OocqService::ExecuteBatch's
// items: every submitted task runs, and the destructor drains the queue.

#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <vector>

namespace oocq {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 100; ++i) {
      futures.push_back(pool.Submit([&counter] {
        counter.fetch_add(1, std::memory_order_relaxed);
      }));
    }
    for (std::future<void>& future : futures) future.get();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit(
          [&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    // No explicit wait: the destructor must drain before joining.
  }
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace oocq
