#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

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

TEST(ParallelFor, NestedCallsFromEveryWorkerComplete) {
  // Every worker at once runs a task that fans out onto its own pool, so no
  // worker is idle to pick up a helper: each nested call must finish on its
  // own claims. A deadlock here fails on the test's ctest TIMEOUT.
  for (const std::size_t workers : {1U, 2U}) {
    ThreadPool pool(workers);
    std::latch all_inside(static_cast<std::ptrdiff_t>(workers));
    std::vector<std::vector<std::atomic<int>>> hits(workers);
    for (auto& row : hits) row = std::vector<std::atomic<int>>(64);
    parallel_for(pool, workers, [&](std::size_t outer) {
      all_inside.arrive_and_wait();
      parallel_for(pool, hits[outer].size(),
                   [&](std::size_t inner) { hits[outer][inner].fetch_add(1); });
    });
    for (const auto& row : hits) {
      for (const auto& h : row) EXPECT_EQ(h.load(), 1) << workers << " workers";
    }
  }
}

TEST(ParallelFor, OutsideCallerNeverRunsTheBody) {
  // A caller that is not one of the pool's workers only waits, so the pool's
  // size bounds the threads running the body: a 1-worker pool is serial.
  for (const std::size_t workers : {1U, 4U}) {
    ThreadPool pool(workers);
    std::mutex mutex;
    std::set<std::thread::id> runners;
    parallel_for(pool, 200, [&](std::size_t) {
      const std::lock_guard lock(mutex);
      runners.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(runners.count(std::this_thread::get_id()), 0U);
    EXPECT_LE(runners.size(), workers);
  }
}

TEST(ParallelFor, NestedErrorWaitsForTheCallsOtherChunks) {
  // Inside a task, with the pool's other worker free to help: the nested
  // call's exception must surface only after its other seven chunks ran.
  ThreadPool pool(2);
  std::atomic<int> finished{0};
  const int finished_at_catch =
      pool.submit([&] {
            try {
              parallel_for(pool, 8, [&finished](std::size_t i) {
                if (i == 0) throw std::runtime_error("boom");
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                finished.fetch_add(1);
              });
            } catch (const std::runtime_error&) {
              return finished.load();
            }
            return -1;
          })
          .get();
  EXPECT_EQ(finished_at_catch, 7);
}

TEST(ParallelFor, HelpersStartingAfterTheCallReturnAreHarmless) {
  // Worker B is parked, so worker A's nested call runs every chunk itself and
  // returns while its helper still waits in the queue; the body's state is
  // freed before the helper runs. A helper that called the body would touch
  // freed memory (ASan) or race the free (TSan) and overcount.
  std::atomic<int> calls{0};
  {
    ThreadPool pool(2);
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::latch parked(1);
    auto parked_task = pool.submit([&parked, released] {
      parked.count_down();
      released.wait();
    });
    parked.wait();
    pool.submit([&calls] {
          auto counts = std::make_unique<std::vector<int>>(16, 0);
          parallel_for(*ThreadPool::current(), counts->size(), [&](std::size_t i) {
            ++(*counts)[i];
            calls.fetch_add(1);
          });
          for (const int c : *counts) EXPECT_EQ(c, 1);
          counts.reset();
        })
        .get();
    release.set_value();
    parked_task.get();
  }  // the destructor runs the queued helper before joining
  EXPECT_EQ(calls.load(), 16);
}

}  // namespace
}  // namespace jstream
