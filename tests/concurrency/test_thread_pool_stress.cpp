// ThreadPool stress tests, designed to run under ThreadSanitizer: concurrent
// submitters, parallel_for over shared (index-disjoint) workspaces, and
// destruction while tasks are still queued. These complement the functional
// coverage in tests/common/test_thread_pool.cpp; here the point is the
// interleavings, not the results.

#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>
#include "common/units.hpp"

namespace jstream {
namespace {

TEST(ThreadPoolStress, ConcurrentSubmittersAllRun) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  constexpr int kSubmitters = 4;
  constexpr int kTasksPerSubmitter = 200;
  std::vector<std::thread> submitters;
  std::vector<std::future<void>> futures(
      checked_size(kSubmitters * kTasksPerSubmitter));
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &executed, &futures, s] {
      for (int i = 0; i < kTasksPerSubmitter; ++i) {
        futures[checked_size(s * kTasksPerSubmitter + i)] =
            pool.submit([&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (std::future<void>& f : futures) f.get();
  EXPECT_EQ(executed.load(), kSubmitters * kTasksPerSubmitter);
}

TEST(ThreadPoolStress, ParallelForSharedWorkspaceIsRaceFree) {
  ThreadPool pool(4);
  constexpr std::size_t kItems = 10000;
  // Shared output vector, disjoint indices: the documented contract (no
  // cross-index synchronization) means this must be race-free under TSan.
  std::vector<double> out(kItems, 0.0);
  parallel_for(pool, kItems, [&out](std::size_t i) {
    out[i] = as_double(i) * 2.0;
  });
  double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, as_double(kItems) * (kItems - 1));
}

TEST(ThreadPoolStress, RepeatedParallelForReusesWorkers) {
  ThreadPool pool(3);
  std::vector<int> hits(512, 0);
  for (int round = 0; round < 20; ++round) {
    parallel_for(pool, hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  }
  for (int h : hits) EXPECT_EQ(h, 20);
}

TEST(ThreadPoolStress, ParallelMapKeepsIndexOrderUnderContention) {
  ThreadPool pool(4);
  constexpr std::size_t kItems = 2048;
  const std::vector<std::size_t> mapped =
      parallel_map(pool, kItems, [](std::size_t i) { return i * i; });
  ASSERT_EQ(mapped.size(), kItems);
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(mapped[i], i * i);
}

TEST(ThreadPoolStress, DestructionDrainsQueuedTasks) {
  std::atomic<int> executed{0};
  constexpr int kTasks = 500;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      // Intentionally discard the futures: destruction must still run every
      // queued task before joining (the pool drains, it does not cancel).
      auto f = pool.submit(
          [&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
      (void)f;
    }
  }
  EXPECT_EQ(executed.load(), kTasks);
}

TEST(ThreadPoolStress, NestedFanOutFromEveryWorkerRepeatedly) {
  // Every outer chunk fans out onto the same pool while the other workers
  // are busy with their own outer chunks; the nested writes are disjoint.
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 256;
  std::vector<std::size_t> out(kOuter * kInner, 0);
  for (int round = 0; round < 10; ++round) {
    parallel_for(pool, kOuter, [&](std::size_t outer) {
      parallel_for(pool, kInner,
                   [&, outer](std::size_t inner) { ++out[outer * kInner + inner]; });
    });
  }
  for (const std::size_t v : out) EXPECT_EQ(v, 10U);
}

TEST(ThreadPoolStress, ThreeLevelNestingCompletes) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  parallel_for(pool, 4, [&](std::size_t) {
    parallel_for(pool, 4, [&](std::size_t) {
      parallel_for(pool, 8, [&](std::size_t) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 4 * 4 * 8);
}

TEST(ThreadPoolStress, OutsideAndNestedCallersShareOnePool) {
  // Two outside threads drive the pool while its tasks nest into it.
  ThreadPool pool(3);
  std::atomic<int> leaves{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 2; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 5; ++round) {
        parallel_for(pool, 6, [&](std::size_t) {
          parallel_for(pool, 32, [&](std::size_t) { leaves.fetch_add(1); });
        });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(leaves.load(), 2 * 5 * 6 * 32);
}

TEST(ThreadPoolStress, NestedErrorsSurfaceAfterEveryChunk) {
  // Each outer chunk's nested call throws from one chunk; the error must
  // reach its caller only after the nested call's other items ran.
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 40;
  std::vector<std::atomic<int>> ran(kOuter);
  std::vector<int> ran_at_catch(kOuter, -1);
  parallel_for(pool, kOuter, [&](std::size_t outer) {
    try {
      parallel_for(pool, kInner, [&, outer](std::size_t inner) {
        if (inner == outer) throw std::runtime_error("nested boom");
        ran[outer].fetch_add(1);
      });
    } catch (const std::runtime_error&) {
      ran_at_catch[outer] = ran[outer].load();
    }
  });
  for (std::size_t outer = 0; outer < kOuter; ++outer) {
    // Nothing ran after the catch, and only the throwing item's chunk (at
    // most three items of 40 on 16 chunks) skipped its rest.
    EXPECT_EQ(ran_at_catch[outer], ran[outer].load());
    EXPECT_GE(ran_at_catch[outer], static_cast<int>(kInner) - 3);
  }
}

TEST(ThreadPoolStress, LateHelpersNeverTouchFreedState) {
  // Nested calls on a saturated pool return before most of their helpers
  // start; each call's state is freed at once. ASan/TSan flag any helper
  // that reaches into it.
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  parallel_for(pool, 64, [&](std::size_t) {
    auto state = std::make_unique<std::vector<int>>(8, 0);
    parallel_for(pool, state->size(), [&](std::size_t i) {
      ++(*state)[i];
      calls.fetch_add(1);
    });
    state.reset();
  });
  EXPECT_EQ(calls.load(), 64 * 8);
}

}  // namespace
}  // namespace jstream
