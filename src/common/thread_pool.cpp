#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace jstream {

namespace {

thread_local ThreadPool* t_current_pool = nullptr;

/// The state of one parallel_for call. Helper tasks share ownership, so a
/// helper that starts after the call returned still has a counter to claim
/// from; it finds every chunk taken and leaves `fn` alone.
struct ChunkedLoop {
  ChunkedLoop(const std::function<void(std::size_t)>& body, std::size_t items,
              std::size_t chunk_count)
      : fn(&body), count(items), chunks(chunk_count) {}

  const std::function<void(std::size_t)>* fn;
  std::size_t count;
  std::size_t chunks;
  std::atomic<std::size_t> next_chunk{0};
  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t done_chunks = 0;  ///< guarded by mutex
  std::exception_ptr first_error;  ///< guarded by mutex

  /// Claims and runs chunks until none is left unclaimed.
  void run_chunks() {
    for (std::size_t c = next_chunk.fetch_add(1); c < chunks;
         c = next_chunk.fetch_add(1)) {
      // Balanced partition: the first (count % chunks) chunks take one extra.
      const std::size_t begin = c * (count / chunks) + std::min(c, count % chunks);
      const std::size_t end =
          (c + 1) * (count / chunks) + std::min(c + 1, count % chunks);
      std::exception_ptr error;
      try {
        for (std::size_t i = begin; i < end; ++i) (*fn)(i);
      } catch (...) {
        error = std::current_exception();
      }
      const std::lock_guard lock(mutex);
      if (error && !first_error) first_error = error;
      if (++done_chunks == chunks) all_done.notify_all();
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::post(std::function<void()> task) {
  {
    const std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

ThreadPool* ThreadPool::current() noexcept { return t_current_pool; }

void ThreadPool::worker_loop() {
  t_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& caller_or_shared_pool() {
  if (ThreadPool* pool = ThreadPool::current()) return *pool;
  // Deliberately never destroyed: its idle workers sleep until the process
  // ends, so exit never joins threads that a late caller may still be using.
  static ThreadPool* const shared = new ThreadPool(0);
  return *shared;
}

std::size_t parallel_chunk_count(const ThreadPool& pool, std::size_t count) noexcept {
  // A handful of chunks per worker keeps stragglers from serializing the tail
  // while bounding scheduling overhead to O(workers), not O(items).
  constexpr std::size_t kChunksPerWorker = 4;
  return std::min(count, std::max<std::size_t>(1, pool.size() * kChunksPerWorker));
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const auto loop =
      std::make_shared<ChunkedLoop>(fn, count, parallel_chunk_count(pool, count));
  // A worker of `pool` works the loop itself, so it needs one helper fewer;
  // an outside caller only waits, so at most size() threads run `fn`.
  const bool caller_is_worker = ThreadPool::current() == &pool;
  const std::size_t helpers =
      std::min(loop->chunks, pool.size()) - (caller_is_worker ? 1 : 0);
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.post([loop] { loop->run_chunks(); });
  }
  if (caller_is_worker) loop->run_chunks();
  // A worker caller gets here only once every chunk is claimed, and a
  // claimed chunk belongs to a thread already running it, so its wait never
  // depends on a task queued behind it.
  std::unique_lock lock(loop->mutex);
  loop->all_done.wait(lock, [&loop] { return loop->done_chunks == loop->chunks; });
  if (loop->first_error) std::rethrow_exception(loop->first_error);
}

}  // namespace jstream
