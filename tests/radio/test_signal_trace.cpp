// Differential correctness of batched trace generation: for every signal
// model kind, filling a SignalTraceSet row must be bit-identical (EXPECT_EQ
// on the doubles, no tolerance) to querying an identically-constructed model
// slot-by-slot — the cached campaign path is only sound if the batch and the
// incremental path read the exact same RNG stream in the exact same order.

#include "radio/signal_trace.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "radio/signal_model.hpp"

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
