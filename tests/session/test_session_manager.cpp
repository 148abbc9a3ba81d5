// SessionManager: stable-id recycling over a fixed population, bind/release
// bookkeeping, the tail-drain window for completed sessions, the shared
// departure path for aborts, and the population's channel (a handed trace or
// its own stream).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "media/bitrate_profile.hpp"
#include "session/session_manager.hpp"
#include "sim/trace_cache.hpp"

namespace jstream {
namespace {

constexpr std::int64_t kTailFlush = 3;

ScenarioConfig small_cell() {
  ScenarioConfig cell = paper_scenario(/*users=*/4, /*seed=*/123);
  cell.max_slots = 200;
  return cell;
}

VideoSession make_session(double size_kb = 5000.0, double bitrate = 400.0) {
  return VideoSession(size_kb, std::make_shared<ConstantBitrate>(bitrate), 1.0);
}

/// Rewrites a bound endpoint to look completed: nothing left to deliver and
/// playback done (a sub-epsilon buffer is finished by construction).
void force_completion(UserEndpoint& endpoint) {
  endpoint.delivered_kb = endpoint.session.size_kb();
  endpoint.buffer = PlaybackBuffer(kPlaybackCompletionEps_s / 2.0, 1.0);
}

TEST(SessionManager, StartsWithEverySlotFreeAndParkedDeparted) {
  SessionManager manager(small_cell(), kTailFlush);
  EXPECT_EQ(manager.capacity(), 4u);
  EXPECT_EQ(manager.active_sessions(), 0u);
  EXPECT_TRUE(manager.has_free_slot());
  EXPECT_EQ(manager.mean_active_bitrate_kbps(), 0.0);
  for (std::size_t id = 0; id < manager.capacity(); ++id) {
    EXPECT_FALSE(manager.occupied(id));
    // Parked free slots read as departed from slot 0 on — zero demand for
    // the collector, gone for the invariant checker.
    EXPECT_TRUE(manager.endpoints()[id].departed(0));
  }
}

TEST(SessionManager, BindRecyclesLowIdsFirstAndStampsTheEndpoint) {
  SessionManager manager(small_cell(), kTailFlush);
  EXPECT_EQ(manager.peek_free(), 0u);
  const std::int32_t epoch_before = manager.endpoints()[0].session_epoch;

  const std::size_t id =
      manager.bind(/*slot=*/10, make_session(5000.0, 450.0), UserEndpoint::kNeverSlot);
  EXPECT_EQ(id, 0u);
  EXPECT_TRUE(manager.occupied(0));
  EXPECT_EQ(manager.active_sessions(), 1u);
  EXPECT_EQ(manager.peek_free(), 1u);
  EXPECT_DOUBLE_EQ(manager.mean_active_bitrate_kbps(), 450.0);

  const UserEndpoint& endpoint = manager.endpoints()[0];
  EXPECT_EQ(endpoint.start_slot, 10);
  EXPECT_EQ(endpoint.session_epoch, epoch_before + 1);
  EXPECT_EQ(endpoint.delivered_kb, 0.0);
  EXPECT_TRUE(endpoint.arrived(10));
  EXPECT_FALSE(endpoint.departed(10));
  EXPECT_TRUE(endpoint.active());
  EXPECT_DOUBLE_EQ(endpoint.session.size_kb(), 5000.0);
}

TEST(SessionManager, BindRequiresAFutureDeparture) {
  SessionManager manager(small_cell(), kTailFlush);
  EXPECT_THROW(manager.bind(10, make_session(), /*departure_slot=*/10), Error);
  EXPECT_THROW(manager.bind(10, make_session(), /*departure_slot=*/5), Error);
  EXPECT_NO_THROW(manager.bind(10, make_session(), /*departure_slot=*/11));
}

TEST(SessionManager, AbortReleasesAtTheDepartureSlot) {
  SessionManager manager(small_cell(), kTailFlush);
  const std::size_t id = manager.bind(0, make_session(), /*departure_slot=*/25);

  std::vector<std::int64_t> ends;
  for (std::int64_t slot = 0; slot < 25; ++slot) {
    manager.scan_releases(slot, [&](std::size_t, std::int64_t end, bool) {
      ends.push_back(end);
    });
  }
  EXPECT_TRUE(ends.empty());
  EXPECT_EQ(manager.active_sessions(), 1u);

  bool completed = true;
  manager.scan_releases(25, [&](std::size_t released, std::int64_t end, bool done) {
    EXPECT_EQ(released, id);
    ends.push_back(end);
    completed = done;
  });
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0], 25);
  EXPECT_FALSE(completed);
  EXPECT_EQ(manager.active_sessions(), 0u);
  EXPECT_FALSE(manager.occupied(id));
  EXPECT_EQ(manager.mean_active_bitrate_kbps(), 0.0);
}

TEST(SessionManager, CompletionWaitsOutTheTailDrainWindow) {
  SessionManager manager(small_cell(), kTailFlush);
  const std::size_t id = manager.bind(0, make_session(), UserEndpoint::kNeverSlot);
  force_completion(manager.endpoints()[id]);

  // Slot 10 notices the finished session and opens the drain window; the
  // session stays bound (and charged for its RRC tail) until it elapses.
  int releases = 0;
  for (std::int64_t slot = 10; slot < 10 + kTailFlush; ++slot) {
    manager.scan_releases(slot, [&](std::size_t, std::int64_t, bool) { ++releases; });
    EXPECT_EQ(releases, 0) << "released during the drain window at slot " << slot;
    EXPECT_EQ(manager.active_sessions(), 1u);
  }
  bool completed = false;
  std::int64_t end = -1;
  manager.scan_releases(10 + kTailFlush, [&](std::size_t, std::int64_t e, bool done) {
    ++releases;
    completed = done;
    end = e;
  });
  EXPECT_EQ(releases, 1);
  EXPECT_TRUE(completed);
  EXPECT_EQ(end, 10 + kTailFlush);
  EXPECT_EQ(manager.active_sessions(), 0u);
  // The freed slot parks as departed again.
  EXPECT_TRUE(manager.endpoints()[id].departed(10 + kTailFlush));
}

TEST(SessionManager, ReleasedSlotsAreReboundWithAFreshEpoch) {
  SessionManager manager(small_cell(), kTailFlush);
  const std::size_t id = manager.bind(0, make_session(), /*departure_slot=*/5);
  const std::int32_t first_epoch = manager.endpoints()[id].session_epoch;
  manager.scan_releases(5, [](std::size_t, std::int64_t, bool) {});
  ASSERT_FALSE(manager.occupied(id));

  // The freed id is handed out again (low ids first) with a bumped epoch so
  // the invariant checker resynchronizes its per-slot state.
  EXPECT_EQ(manager.peek_free(), id);
  const std::size_t again = manager.bind(6, make_session(), UserEndpoint::kNeverSlot);
  EXPECT_EQ(again, id);
  EXPECT_EQ(manager.endpoints()[id].session_epoch, first_epoch + 1);
  EXPECT_EQ(manager.endpoints()[id].start_slot, 6);
  EXPECT_FALSE(manager.endpoints()[id].departed(6));
}

TEST(SessionManager, StreamsItsChannelUnlessHandedATrace) {
  const ScenarioConfig cell = small_cell();
  SessionManager streamed(cell, kTailFlush);
  const SignalTraceSet* stream = streamed.endpoints()[0].trace;
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->slots(), cell.max_slots);
  const std::shared_ptr<const SignalTraceSet> trace = generate_signal_trace_set(cell);
  SessionManager traced(cell, kTailFlush, trace);
  for (std::size_t i = 0; i < cell.users; ++i) {
    EXPECT_EQ(streamed.endpoints()[i].trace, stream) << i;
    EXPECT_EQ(streamed.endpoints()[i].trace_user, i) << i;
    EXPECT_EQ(streamed.endpoints()[i].signal, nullptr) << i;  // moved into the stream
    EXPECT_EQ(traced.endpoints()[i].trace, trace.get()) << i;
    EXPECT_EQ(traced.endpoints()[i].trace_user, i) << i;
  }
  for (std::int64_t slot = 0; slot < cell.max_slots; ++slot) {
    ASSERT_EQ(std::memcmp(stream->row(slot), trace->row(slot), cell.users * sizeof(double)), 0)
        << "slot " << slot;
  }

  ScenarioConfig other = cell;
  other.users += 1;
  EXPECT_THROW(SessionManager(cell, kTailFlush, generate_signal_trace_set(other)), Error);
  other = cell;
  other.max_slots -= 1;
  EXPECT_THROW(SessionManager(cell, kTailFlush, generate_signal_trace_set(other)), Error);
}

TEST(SessionManager, FillsToCapacityAndTracksMeanBitrate) {
  SessionManager manager(small_cell(), kTailFlush);
  const double bitrates[] = {300.0, 400.0, 500.0, 600.0};
  for (double bitrate : bitrates) {
    manager.bind(0, make_session(5000.0, bitrate), UserEndpoint::kNeverSlot);
  }
  EXPECT_FALSE(manager.has_free_slot());
  EXPECT_EQ(manager.active_sessions(), 4u);
  EXPECT_DOUBLE_EQ(manager.mean_active_bitrate_kbps(), 450.0);
  EXPECT_THROW(manager.bind(0, make_session(), UserEndpoint::kNeverSlot), Error);
}

}  // namespace
}  // namespace jstream
