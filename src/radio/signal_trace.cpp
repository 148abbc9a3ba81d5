#include "radio/signal_trace.hpp"

#include <algorithm>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "telemetry/registry.hpp"

namespace jstream {

namespace {

struct SignalTraceTelemetry {
  telemetry::Counter& blocks_filled;
  telemetry::Counter& stream_blocks;
  telemetry::Counter& stream_reader_fills;

  static SignalTraceTelemetry& instance() {
    auto& registry = telemetry::global_registry();
    static SignalTraceTelemetry probes{registry.counter("trace.blocks_filled"),
                                       registry.counter("trace.stream_blocks"),
                                       registry.counter("trace.stream_reader_fills")};
    return probes;
  }
};

void require_models(const std::vector<std::unique_ptr<SignalModel>>& models,
                    const char* message) {
  require(std::ranges::none_of(models, [](const auto& model) { return model == nullptr; }),
          message);
}

}  // namespace

SignalTraceSet::SignalTraceSet(std::size_t users, std::int64_t slots, std::int64_t rows,
                               Uninitialized)
    : users_(users), slots_(slots) {
  require(users > 0, "trace set needs at least one user");
  require(slots > 0, "trace set needs at least one slot");
  signal_ = std::make_unique_for_overwrite<double[]>(users_ * checked_size(rows));
}

SignalTraceSet::SignalTraceSet(std::size_t users, std::int64_t slots)
    : SignalTraceSet(users, slots, slots, Uninitialized{}) {
  std::fill_n(signal_.get(), users_ * checked_size(slots_), 0.0);
}

std::shared_ptr<const SignalTraceSet> SignalTraceSet::generate(
    std::span<SignalModel* const> models, std::int64_t slots, ThreadPool& pool) {
  auto set = std::shared_ptr<SignalTraceSet>(
      new SignalTraceSet(models.size(), slots, slots, Uninitialized{}));
  parallel_for(pool, models.size(),
               [&](std::size_t user) { set->fill_user(user, *models[user]); });
  return set;
}

std::shared_ptr<const SignalTraceSet> SignalTraceSet::fill_on_read(
    std::vector<std::unique_ptr<SignalModel>> models, std::int64_t slots) {
  require_models(models, "fill-on-read trace set needs a model per user");
  auto set = std::shared_ptr<SignalTraceSet>(
      new SignalTraceSet(models.size(), slots, slots, Uninitialized{}));
  set->fill_ = std::make_unique<FillState>();
  set->fill_->models = std::move(models);
  return set;
}

std::int64_t SignalTraceSet::stream_block_slots(std::size_t users) noexcept {
  const std::size_t rows = kStreamBlockBytes / (sizeof(double) * std::max<std::size_t>(users, 1));
  return std::clamp<std::int64_t>(checked_index(rows), 1, kFillBlockSlots);
}

std::shared_ptr<const SignalTraceSet> SignalTraceSet::stream(
    std::vector<std::unique_ptr<SignalModel>> models, std::int64_t slots) {
  require_models(models, "signal stream needs a model per user");
  const std::size_t users = models.size();
  const std::int64_t block_slots = stream_block_slots(users);
  auto set = std::shared_ptr<SignalTraceSet>(
      new SignalTraceSet(users, slots, 2 * block_slots, Uninitialized{}));
  auto state = std::unique_ptr<StreamState, StreamRelease>(new StreamState);
  state->models = std::move(models);
  state->ring = set->signal_.get();
  state->users = users;
  state->slots = slots;
  state->block_slots = block_slots;
  set->stream_ = std::move(state);
  // Resolved here, on the run's thread, so a look-ahead's first count on a
  // pool worker never allocates the probes.
  (void)SignalTraceTelemetry::instance();
  return set;
}

void SignalTraceSet::fill_user(std::size_t user, SignalModel& model) {
  require(user < users_, "trace user index out of range");
  walk_rows(user, model, 0, slots_);
}

void SignalTraceSet::walk_rows(std::size_t user, SignalModel& model, std::int64_t begin,
                               std::int64_t end) const {
  // Strided slot-major writes: each row is written once, reads are the hot
  // path, so the layout favours InfoCollector's per-slot row scans.
  double* matrix = signal_.get();
  for (std::int64_t slot = begin; slot < end; ++slot) {
    matrix[index(user, slot)] = model.signal_dbm(slot);
  }
}

void SignalTraceSet::fill_through(std::int64_t slot) const {
  FillState& fill = *fill_;
  const std::lock_guard lock(fill.mutex);
  const std::int64_t begin = fill.frontier.load(std::memory_order_relaxed);
  const std::int64_t end = std::min(slots_, (slot / kFillBlockSlots + 1) * kFillBlockSlots);
  if (end <= begin) return;  // filled by another reader while this one waited
  for (std::size_t user = 0; user < users_; ++user) {
    walk_rows(user, *fill.models[user], begin, end);
  }
  if (end == slots_) fill.models.clear();  // complete: no walk is left to take
  fill.frontier.store(end, std::memory_order_release);
  if (telemetry::enabled()) {
    SignalTraceTelemetry::instance().blocks_filled.add(
        (end - begin + kFillBlockSlots - 1) / kFillBlockSlots);
  }
}

double* SignalTraceSet::StreamState::ring_row(std::int64_t slot) const noexcept {
  const std::int64_t half = (slot / block_slots) % 2;
  return ring + checked_size(half * block_slots + slot % block_slots) * users;
}

void SignalTraceSet::StreamState::fill(std::int64_t end, bool by_reader) {
  const std::int64_t begin = frontier.load(std::memory_order_relaxed);
  std::int64_t blocks = 0;
  std::int64_t slot = begin;
  for (; slot < end; ++slot) {
    if (!by_reader && closing.load(std::memory_order_relaxed)) break;
    double* cells = ring_row(slot);
    for (std::size_t user = 0; user < users; ++user) {
      cells[user] = models[user]->signal_dbm(slot);
    }
    frontier.store(slot + 1, std::memory_order_release);
    if ((slot + 1) % block_slots == 0 || slot + 1 == slots) ++blocks;
  }
  if (slot == slots) models.clear();  // complete: no walk is left to take
  if (telemetry::enabled()) {
    auto& probes = SignalTraceTelemetry::instance();
    if (blocks > 0) probes.stream_blocks.add(blocks);
    if (by_reader && slot > begin) probes.stream_reader_fills.add(slot - begin);
  }
}

void SignalTraceSet::StreamState::release() noexcept {
  if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
}

void SignalTraceSet::StreamRelease::operator()(StreamState* state) const noexcept {
  // A running look-ahead sees `closing` at its next row and returns the
  // lock; one that starts later finds the state detached.
  state->closing.store(true, std::memory_order_relaxed);
  {
    const std::lock_guard lock(state->mutex);
    state->attached = false;
    state->models.clear();
  }
  state->release();
}

void SignalTraceSet::look_ahead(StreamState* state, std::int64_t through_block) noexcept {
  {
    const std::lock_guard lock(state->mutex);
    if (state->attached) {
      state->fill(std::min(state->slots, (through_block + 1) * state->block_slots),
                  /*by_reader=*/false);
    }
  }
  state->release();
}

const double* SignalTraceSet::stream_row(std::int64_t slot) const {
  StreamState& stream = *stream_;
  require(slot >= 0 && slot < slots_, "trace index out of range");
  const std::int64_t block = slot / stream.block_slots;
  if (block < stream.reader_block) {
    throw Error("signal stream read behind its reader: slot " + std::to_string(slot) +
                " lies in block " + std::to_string(block) + ", but the reader has moved on to block " +
                std::to_string(stream.reader_block) +
                " and a stream keeps only its reader's block and the next");
  }
  if (block > stream.reader_block) {
    stream.reader_block = block;
    if ((block + 1) * stream.block_slots < slots_) {
      // The task captures one pointer and one index, which std::function
      // stores in place: the post allocates nothing on a warm pool.
      stream.refs.fetch_add(1, std::memory_order_relaxed);
      StreamState* state = &stream;
      const std::int64_t next = block + 1;
      caller_or_shared_pool().post([state, next] { look_ahead(state, next); });
    }
  }
  std::int64_t frontier = stream.frontier.load(std::memory_order_acquire);
  while (frontier <= slot) {
    if (stream.mutex.try_lock()) {
      // No look-ahead is walking: fill up to this row here, as the live
      // per-slot path would, rather than wait for a queued task.
      const std::lock_guard lock(stream.mutex, std::adopt_lock);
      stream.fill(slot + 1, /*by_reader=*/true);
      frontier = stream.frontier.load(std::memory_order_relaxed);
      break;
    }
    // A look-ahead holds the walk and publishes each row as it completes:
    // this one is at most a row's walk away.
    std::this_thread::yield();
    frontier = stream.frontier.load(std::memory_order_acquire);
  }
  stream.window_first = block * stream.block_slots;
  stream.window_end = std::min(frontier, stream.window_first + stream.block_slots);
  stream.window_base = stream.ring_row(stream.window_first);
  return stream.window_base + checked_size(slot - stream.window_first) * users_;
}

double SignalTraceSet::signal_dbm(std::size_t user, std::int64_t slot) const {
  require(user < users_ && slot >= 0 && slot < slots_, "trace index out of range");
  return row(slot)[user];
}

const double* SignalTraceSet::signal_data() const {
  require(stream_ == nullptr, "a signal stream holds two blocks of rows, not the whole matrix");
  if (fill_ != nullptr && filled_slots() < slots_) fill_through(slots_ - 1);
  return signal_.get();
}

std::size_t SignalTraceSet::total_bytes() const noexcept {
  if (stream_ != nullptr) return estimate_bytes(users_, 2 * stream_->block_slots);
  return estimate_bytes(users_, slots_);
}

std::size_t SignalTraceSet::estimate_bytes(std::size_t users,
                                           std::int64_t slots) noexcept {
  if (slots <= 0) return 0;
  return sizeof(double) * users * checked_size(slots);
}

}  // namespace jstream
