#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace jstream {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, ZeroSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, DrainsAllTasksBeforeDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 200; ++i) {
      (void)pool.submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesTaskExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 8,
                            [](std::size_t i) {
                              if (i == 3) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ParallelMap, PreservesIndexOrder) {
  ThreadPool pool(4);
  const auto results =
      parallel_map(pool, 50, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(results.size(), 50u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i * i));
  }
}

TEST(ParallelMap, WaitsForEveryChunkBeforeRethrowing) {
  // The caller's state must outlive every task: when one chunk throws, the
  // exception surfaces only after the other chunks have run.
  std::atomic<int> finished{0};
  ThreadPool pool(2);
  EXPECT_THROW((void)parallel_map(pool, 8,
                                  [&finished](std::size_t i) {
                                    if (i == 0) throw std::runtime_error("boom");
                                    std::this_thread::sleep_for(
                                        std::chrono::milliseconds(5));
                                    return finished.fetch_add(1);
                                  }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 7);
}

}  // namespace
}  // namespace jstream
