// Differential correctness of batched trace generation: for every signal
// model kind, filling a SignalTraceSet row must be bit-identical (EXPECT_EQ
// on the doubles, no tolerance) to querying an identically-constructed model
// slot-by-slot — the cached campaign path is only sound if the batch and the
// incremental path read the exact same RNG stream in the exact same order.
// A fill-on-read set must equal the eager generate byte for byte however its
// rows are read, and fill no further than the block of the furthest row read.
// So must a stream's rows, read in slot order while its look-ahead fills on
// the shared pool, and a stream must refuse a read behind its reader's block.

#include "radio/signal_trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "radio/signal_model.hpp"
#include "telemetry/registry.hpp"

namespace jstream {
namespace {

constexpr std::int64_t kSlots = 400;

// Fills row 0 of a fresh single-user set from `batch` and checks it against
// slot-by-slot queries of `incremental` (an identically-seeded twin).
void expect_batch_matches_incremental(SignalModel& batch, SignalModel& incremental) {
  SignalTraceSet set(/*users=*/1, kSlots);
  set.fill_user(0, batch);
  for (std::int64_t slot = 0; slot < kSlots; ++slot) {
    EXPECT_EQ(set.signal_dbm(0, slot), incremental.signal_dbm(slot))
        << "slot " << slot;
  }
}

TEST(SignalTraceSet, SineBatchBitIdenticalToIncremental) {
  SineSignalParams params;
  params.phase_radians = 1.25;
  const Rng rng(2024);
  SineSignalModel batch(params, rng.split(7));
  SineSignalModel incremental(params, rng.split(7));
  expect_batch_matches_incremental(batch, incremental);
}

TEST(SignalTraceSet, GaussMarkovBatchBitIdenticalToIncremental) {
  GaussMarkovSignalModel::Params params;
  const Rng rng(99);
  GaussMarkovSignalModel batch(params, rng.split(3));
  GaussMarkovSignalModel incremental(params, rng.split(3));
  expect_batch_matches_incremental(batch, incremental);
}

TEST(SignalTraceSet, TraceBatchBitIdenticalToIncremental) {
  const std::vector<double> trace{-60.0, -72.5, -81.25, -99.0, -105.5};
  TraceSignalModel batch(trace);
  TraceSignalModel incremental(trace);
  expect_batch_matches_incremental(batch, incremental);
}

TEST(SignalTraceSet, ConstantBatchBitIdenticalToIncremental) {
  ConstantSignalModel batch(-77.0);
  ConstantSignalModel incremental(-77.0);
  expect_batch_matches_incremental(batch, incremental);
}

TEST(SignalTraceSet, SlotMajorLayoutAndAccounting) {
  SignalTraceSet set(/*users=*/3, /*slots=*/5);
  // index() is slot-major: consecutive users of one slot are adjacent.
  EXPECT_EQ(set.index(0, 0), 0u);
  EXPECT_EQ(set.index(2, 0), 2u);
  EXPECT_EQ(set.index(0, 1), 3u);
  // One matrix of sig_i(n): 8 bytes per cell, no derived link matrices.
  EXPECT_EQ(set.total_bytes(), 8u * 3u * 5u);
  EXPECT_EQ(SignalTraceSet::estimate_bytes(3, 5), set.total_bytes());
}

TEST(SignalTraceSet, ConstructedSetReadsZeroUntilFilled) {
  // The public constructor hands out storage for the caller to fill, so no
  // cell may read anything but 0 before fill_user writes it.
  const SignalTraceSet set(/*users=*/7, /*slots=*/300);
  const std::size_t cells = 7 * 300;
  for (std::size_t i = 0; i < cells; ++i) {
    ASSERT_EQ(set.signal_data()[i], 0.0) << i;
  }
}

TEST(SignalTraceSet, GenerateEqualsTheSerialWalkByteForByte) {
  constexpr std::size_t kUsers = 5;
  const Rng rng(77);
  std::vector<std::unique_ptr<SignalModel>> parallel_models;
  SignalTraceSet serial(kUsers, kSlots);
  for (std::size_t user = 0; user < kUsers; ++user) {
    GaussMarkovSignalModel twin({}, rng.split(user));
    serial.fill_user(user, twin);
    parallel_models.push_back(
        std::make_unique<GaussMarkovSignalModel>(GaussMarkovSignalModel::Params{},
                                                 rng.split(user)));
  }

  std::vector<SignalModel*> models;
  for (const auto& model : parallel_models) models.push_back(model.get());
  ThreadPool pool(3);
  const std::shared_ptr<const SignalTraceSet> generated =
      SignalTraceSet::generate(models, kSlots, pool);
  ASSERT_EQ(generated->users(), kUsers);
  ASSERT_EQ(generated->total_bytes(), serial.total_bytes());
  EXPECT_EQ(std::memcmp(generated->signal_data(), serial.signal_data(), serial.total_bytes()),
            0);

  EXPECT_THROW((void)SignalTraceSet::generate({}, kSlots, pool), Error);
}

// ---------------------------------------------------------------------------
// Fill-on-read sets.
// ---------------------------------------------------------------------------

constexpr std::size_t kFillUsers = 6;
// Five whole blocks and a partial sixth, so reads cross block boundaries and
// the last fill stops at the horizon.
constexpr std::int64_t kFillSlots = 5 * SignalTraceSet::kFillBlockSlots + 37;

using ModelFactory = std::function<std::unique_ptr<SignalModel>(std::size_t user)>;

/// One factory per walked signal kind, each user on its own stream or data.
std::vector<std::pair<const char*, ModelFactory>> model_kinds() {
  return {
      {"sine",
       [](std::size_t user) -> std::unique_ptr<SignalModel> {
         SineSignalParams params;
         params.phase_radians = 0.7 * as_double(user);
         return std::make_unique<SineSignalModel>(params, Rng(2024).split(user));
       }},
      {"gauss-markov",
       [](std::size_t user) -> std::unique_ptr<SignalModel> {
         return std::make_unique<GaussMarkovSignalModel>(GaussMarkovSignalModel::Params{},
                                                         Rng(99).split(user));
       }},
      {"trace",
       [](std::size_t user) -> std::unique_ptr<SignalModel> {
         std::vector<double> trace;
         for (int i = 0; i < 301; ++i) {
           trace.push_back(-100.0 + std::fmod(7.25 * i + 3.5 * as_double(user), 45.0));
         }
         return std::make_unique<TraceSignalModel>(std::move(trace));
       }},
  };
}

std::shared_ptr<const SignalTraceSet> eager_set(const ModelFactory& make) {
  std::vector<std::unique_ptr<SignalModel>> owned;
  std::vector<SignalModel*> models;
  for (std::size_t user = 0; user < kFillUsers; ++user) {
    owned.push_back(make(user));
    models.push_back(owned.back().get());
  }
  ThreadPool pool(2);
  return SignalTraceSet::generate(models, kFillSlots, pool);
}

std::shared_ptr<const SignalTraceSet> lazy_set(const ModelFactory& make) {
  std::vector<std::unique_ptr<SignalModel>> models;
  for (std::size_t user = 0; user < kFillUsers; ++user) models.push_back(make(user));
  return SignalTraceSet::fill_on_read(std::move(models), kFillSlots);
}

/// The block-rounded frontier a read of `furthest` must leave.
std::int64_t frontier_after(std::int64_t furthest) {
  const std::int64_t block = SignalTraceSet::kFillBlockSlots;
  return std::min(kFillSlots, (furthest / block + 1) * block);
}

bool same_row(const SignalTraceSet& a, const SignalTraceSet& b, std::int64_t slot) {
  return std::memcmp(a.row(slot), b.row(slot), kFillUsers * sizeof(double)) == 0;
}

TEST(SignalTraceSet, FillOnReadForwardReadsEqualGenerate) {
  for (const auto& [kind, make] : model_kinds()) {
    const auto eager = eager_set(make);
    const auto lazy = lazy_set(make);
    EXPECT_EQ(lazy->filled_slots(), 0) << kind;
    for (std::int64_t slot = 0; slot < kFillSlots; ++slot) {
      ASSERT_TRUE(same_row(*lazy, *eager, slot)) << kind << " slot " << slot;
      ASSERT_EQ(lazy->filled_slots(), frontier_after(slot)) << kind << " slot " << slot;
    }
    EXPECT_EQ(std::memcmp(lazy->signal_data(), eager->signal_data(), eager->total_bytes()),
              0)
        << kind;
  }
}

TEST(SignalTraceSet, FillOnReadJumpsEqualGenerate) {
  const std::int64_t block = SignalTraceSet::kFillBlockSlots;
  for (const auto& [kind, make] : model_kinds()) {
    const auto eager = eager_set(make);
    const auto lazy = lazy_set(make);
    // Forward within a block, a jump past three blocks, back into filled
    // rows, a read through the accessor, then the last row.
    for (const std::int64_t slot :
         {std::int64_t{3}, 4 * block + 5, std::int64_t{10}, block + 1, kFillSlots - 1}) {
      ASSERT_TRUE(same_row(*lazy, *eager, slot)) << kind << " slot " << slot;
    }
    EXPECT_EQ(lazy->signal_dbm(kFillUsers - 1, 2 * block),
              eager->signal_dbm(kFillUsers - 1, 2 * block))
        << kind;
    EXPECT_EQ(lazy->filled_slots(), kFillSlots) << kind;
    EXPECT_EQ(std::memcmp(lazy->signal_data(), eager->signal_data(), eager->total_bytes()),
              0)
        << kind;
  }
  // A jump straight to the whole matrix fills every row in one go.
  const auto eager = eager_set(model_kinds().front().second);
  const auto lazy = lazy_set(model_kinds().front().second);
  EXPECT_EQ(std::memcmp(lazy->signal_data(), eager->signal_data(), eager->total_bytes()), 0);
  EXPECT_EQ(lazy->filled_slots(), kFillSlots);
}

TEST(SignalTraceSet, FillFrontierStopsAtTheFurthestReadBlock) {
  const std::int64_t block = SignalTraceSet::kFillBlockSlots;
  const auto lazy = lazy_set(model_kinds().front().second);
  telemetry::Counter& blocks = telemetry::global_registry().counter("trace.blocks_filled");
  std::int64_t furthest = -1;
  for (const std::int64_t slot : {std::int64_t{0}, block - 1, std::int64_t{7}, block,
                                  3 * block + 2, 2 * block, 4 * block - 1}) {
    const std::int64_t frontier_before = lazy->filled_slots();
    const std::int64_t blocks_before = blocks.value();
    (void)lazy->row(slot);
    furthest = std::max(furthest, slot);
    EXPECT_EQ(lazy->filled_slots(), frontier_after(furthest)) << "slot " << slot;
    // One counter step per filled block, none for a read of filled rows.
    if (telemetry::enabled()) {
      EXPECT_EQ(blocks.value() - blocks_before,
                (lazy->filled_slots() - frontier_before) / block)
          << "slot " << slot;
    }
  }
  EXPECT_EQ(lazy->filled_slots(), 4 * block);
  // Complete sets report every row filled.
  EXPECT_EQ(eager_set(model_kinds().front().second)->filled_slots(), kFillSlots);
  EXPECT_EQ(SignalTraceSet(kFillUsers, kFillSlots).filled_slots(), kFillSlots);
}

// ---------------------------------------------------------------------------
// Streams.
// ---------------------------------------------------------------------------

std::shared_ptr<const SignalTraceSet> stream_set(const ModelFactory& make) {
  std::vector<std::unique_ptr<SignalModel>> models;
  for (std::size_t user = 0; user < kFillUsers; ++user) models.push_back(make(user));
  return SignalTraceSet::stream(std::move(models), kFillSlots);
}

TEST(SignalTraceSet, StreamBlockSizeFollowsTheByteBudget) {
  EXPECT_EQ(SignalTraceSet::stream_block_slots(1), SignalTraceSet::kFillBlockSlots);
  EXPECT_EQ(SignalTraceSet::stream_block_slots(kFillUsers), SignalTraceSet::kFillBlockSlots);
  EXPECT_EQ(SignalTraceSet::stream_block_slots(1000), 32);  // 256 KB / 8000 B
  EXPECT_EQ(SignalTraceSet::stream_block_slots(2048), 16);
  EXPECT_EQ(SignalTraceSet::stream_block_slots(110000), 1);  // one row is 880 KB
}

TEST(SignalTraceSet, StreamReadsInSlotOrderEqualGenerate) {
  const std::int64_t block = SignalTraceSet::stream_block_slots(kFillUsers);
  ASSERT_GE(kFillSlots, 3 * block + 1);  // the reads cross at least 3 block boundaries
  for (const auto& [kind, make] : model_kinds()) {
    const auto eager = eager_set(make);
    const auto stream = stream_set(make);
    EXPECT_EQ(stream->filled_slots(), 0) << kind;  // nothing filled before the first read
    EXPECT_EQ(stream->total_bytes(), 2 * checked_size(block) * kFillUsers * sizeof(double));
    for (std::int64_t slot = 0; slot < kFillSlots; ++slot) {
      ASSERT_TRUE(same_row(*stream, *eager, slot)) << kind << " slot " << slot;
      // The look-ahead never runs past the end of the block after the reader's.
      ASSERT_LE(stream->filled_slots(), std::min(kFillSlots, (slot / block + 2) * block))
          << kind << " slot " << slot;
      ASSERT_GT(stream->filled_slots(), slot) << kind << " slot " << slot;
    }
    // Rows of the reader's block stay readable, in any order.
    EXPECT_EQ(stream->signal_dbm(0, kFillSlots - 2), eager->signal_dbm(0, kFillSlots - 2))
        << kind;
  }
}

TEST(SignalTraceSet, StreamJumpsForwardEqualGenerate) {
  const std::int64_t block = SignalTraceSet::stream_block_slots(kFillUsers);
  for (const auto& [kind, make] : model_kinds()) {
    const auto eager = eager_set(make);
    const auto stream = stream_set(make);
    // Within a block, a jump over two blocks, back inside the new block,
    // then the last row.
    for (const std::int64_t slot : {std::int64_t{3}, std::int64_t{7}, 3 * block + 5,
                                    3 * block + 1, 4 * block, kFillSlots - 1}) {
      ASSERT_TRUE(same_row(*stream, *eager, slot)) << kind << " slot " << slot;
    }
    EXPECT_EQ(stream->filled_slots(), kFillSlots) << kind;
  }
}

/// Waits (bounded) for a stream's look-ahead to publish `rows` rows.
bool frontier_reaches(const SignalTraceSet& stream, std::int64_t rows) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (stream.filled_slots() < rows) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(SignalTraceSet, StreamLookAheadStopsAtTheEndOfTheNextBlock) {
  // A reader that pauses after entering each block lets the look-ahead run
  // as far as it will: it must stop at the end of the next block, so the
  // reader's own block, which shares a ring half with the block after next,
  // is never overwritten.
  const std::int64_t block = SignalTraceSet::stream_block_slots(kFillUsers);
  const auto make = model_kinds().front().second;
  const auto eager = eager_set(make);
  const auto stream = stream_set(make);
  for (std::int64_t entered = 0; entered + 2 < kFillSlots / block; ++entered) {
    ASSERT_TRUE(same_row(*stream, *eager, entered * block)) << "block " << entered;
    ASSERT_TRUE(frontier_reaches(*stream, (entered + 2) * block)) << "block " << entered;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(stream->filled_slots(), (entered + 2) * block) << "block " << entered;
    for (std::int64_t slot = entered * block + 1; slot < (entered + 1) * block; ++slot) {
      ASSERT_TRUE(same_row(*stream, *eager, slot)) << "slot " << slot;
    }
  }
}

TEST(SignalTraceSet, StreamRefusesAReadBehindItsBlock) {
  const std::int64_t block = SignalTraceSet::stream_block_slots(kFillUsers);
  const auto stream = stream_set(model_kinds().front().second);
  (void)stream->row(2);
  (void)stream->row(block + 3);
  (void)stream->row(block);  // earlier, but in the reader's block
  try {
    (void)stream->row(block - 1);
    FAIL() << "a read behind the reader's block must throw";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("behind its reader"), std::string::npos) << what;
    EXPECT_NE(what.find("slot " + std::to_string(block - 1)), std::string::npos) << what;
  }
  EXPECT_THROW((void)stream->signal_dbm(0, 0), Error);
  EXPECT_THROW((void)stream->row(kFillSlots), Error);
  EXPECT_THROW((void)stream->signal_data(), Error);  // a stream holds no whole matrix
}

TEST(SignalTraceSet, StreamRejectsMissingModels) {
  std::vector<std::unique_ptr<SignalModel>> models;
  EXPECT_THROW((void)SignalTraceSet::stream(std::move(models), kFillSlots), Error);
  std::vector<std::unique_ptr<SignalModel>> with_null;
  with_null.push_back(std::make_unique<ConstantSignalModel>(-70.0));
  with_null.push_back(nullptr);
  EXPECT_THROW((void)SignalTraceSet::stream(std::move(with_null), kFillSlots), Error);
}

TEST(SignalTraceSet, FillOnReadRejectsMissingModels) {
  std::vector<std::unique_ptr<SignalModel>> models;
  EXPECT_THROW((void)SignalTraceSet::fill_on_read(std::move(models), kFillSlots), Error);
  std::vector<std::unique_ptr<SignalModel>> with_null;
  with_null.push_back(std::make_unique<ConstantSignalModel>(-70.0));
  with_null.push_back(nullptr);
  EXPECT_THROW((void)SignalTraceSet::fill_on_read(std::move(with_null), kFillSlots), Error);
}

TEST(SignalTraceSet, RejectsInvalidUse) {
  EXPECT_THROW(SignalTraceSet(0, 10), Error);
  EXPECT_THROW(SignalTraceSet(1, 0), Error);
  SignalTraceSet set(/*users=*/1, /*slots=*/4);
  ConstantSignalModel model(-70.0);
  EXPECT_THROW(set.fill_user(1, model), Error);
  EXPECT_THROW((void)set.signal_dbm(0, 4), Error);
  EXPECT_THROW((void)set.signal_dbm(0, -1), Error);
}

}  // namespace
}  // namespace jstream
