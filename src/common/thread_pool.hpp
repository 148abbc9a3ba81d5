// Fixed-size worker pool used to run independent simulation configurations
// concurrently (parameter sweeps, replicated seeds). Tasks are type-erased
// thunks; results flow back through futures or the parallel_for helper.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace jstream {

/// A minimal task-queue thread pool. Safe to submit from multiple threads;
/// destruction drains outstanding tasks before joining.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 selects std::thread::hardware_concurrency()
  /// (at least one worker in either case).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedules `fn` and returns a future for its result.
  template <typename Fn>
  [[nodiscard]] auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using Result = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<Result()>>(std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    post([task] { (*task)(); });
    return future;
  }

  /// Schedules `task` with no future to report through; `task` must not
  /// throw.
  void post(std::function<void()> task);

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// The pool whose worker is running the calling thread, or nullptr when
  /// the caller is no pool's worker.
  [[nodiscard]] static ThreadPool* current() noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// The pool to fan work out on from the calling thread: its own pool when it
/// is a pool's worker (nested work then stays inside that pool's thread
/// budget), otherwise one process-wide pool of hardware_concurrency()
/// workers, started on first use and never torn down.
[[nodiscard]] ThreadPool& caller_or_shared_pool();

/// Number of chunks parallel_for/parallel_map split `count` items into: a
/// few chunks per worker (load balance) but never more than `count`.
[[nodiscard]] std::size_t parallel_chunk_count(const ThreadPool& pool,
                                               std::size_t count) noexcept;

/// Runs fn(i) for i in [0, count) on `pool`, blocking until all complete.
/// Indices are processed in contiguous chunks that threads claim from a
/// shared counter, so sweeps over thousands of configurations pay
/// O(workers) scheduling overhead. Iterations must therefore not
/// synchronize with each other (two indices may share a chunk and run
/// sequentially).
///
/// A caller that is one of `pool`'s workers claims chunks too and then waits
/// only for chunks other threads have already claimed, so a pool task may
/// call parallel_for on its own pool without deadlock, even when every other
/// worker is busy. Any other caller only waits, so no more than size()
/// threads ever run `fn`. Helper tasks that start after the call returned
/// find every chunk claimed and never touch `fn`.
///
/// Exceptions are rethrown (the first one encountered) once every chunk has
/// run; an exception skips the rest of its chunk.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// Maps fn over [0, count) and collects results in index order. Runs on
/// parallel_for, so the same chunking and no-cross-index synchronization rule
/// apply, and an exception surfaces only after every chunk has finished: no
/// task runs `fn` after the call returns, so the state `fn` references may be
/// freed while the error unwinds.
template <typename Fn>
[[nodiscard]] auto parallel_map(ThreadPool& pool, std::size_t count, Fn fn)
    -> std::vector<std::invoke_result_t<Fn, std::size_t>> {
  using Result = std::invoke_result_t<Fn, std::size_t>;
  std::vector<std::optional<Result>> slots(count);
  parallel_for(pool, count, [&](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<Result> results;
  results.reserve(count);
  for (std::optional<Result>& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace jstream
