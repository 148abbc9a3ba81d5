#include "radio/signal_trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace jstream {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// A small trace set with varied, reproducible content.
SignalTraceSet make_set(std::size_t users = 3, std::int64_t slots = 17) {
  SignalTraceSet set(users, slots);
  SineSignalParams params;
  const Rng rng(42);
  for (std::size_t user = 0; user < users; ++user) {
    params.phase_radians = 0.37 * as_double(user + 1);
    SineSignalModel model(params, rng.split(user));
    set.fill_user(user, model);
  }
  return set;
}

// Flips one byte at `offset` in the file.
void corrupt_byte(const std::string& path, std::int64_t offset) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open());
  file.seekg(offset);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  file.seekp(offset);
  file.write(&byte, 1);
}

TEST(SignalTraceIo, RoundTripsThroughDisk) {
  const std::vector<double> trace{-50.0, -73.25, -110.0, -88.125};
  const std::string path = temp_path("jstream_trace_rt.txt");
  save_signal_trace(path, trace);
  const std::vector<double> loaded = load_signal_trace(path);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i], trace[i]);
  }
  std::filesystem::remove(path);
}

TEST(SignalTraceIo, SkipsCommentsAndBlanks) {
  const std::string path = temp_path("jstream_trace_comments.txt");
  {
    std::ofstream out(path);
    out << "# header\n\n  -60.5\n# mid comment\n-70\n   \n";
  }
  const std::vector<double> loaded = load_signal_trace(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded[0], -60.5);
  EXPECT_DOUBLE_EQ(loaded[1], -70.0);
  std::filesystem::remove(path);
}

TEST(SignalTraceIo, RejectsGarbageAndEmpty) {
  const std::string path = temp_path("jstream_trace_bad.txt");
  {
    std::ofstream out(path);
    out << "-60.5 trailing\n";
  }
  EXPECT_THROW((void)load_signal_trace(path), Error);
  {
    std::ofstream out(path);
    out << "not-a-number\n";
  }
  EXPECT_THROW((void)load_signal_trace(path), Error);
  {
    std::ofstream out(path);
    out << "# only comments\n";
  }
  EXPECT_THROW((void)load_signal_trace(path), Error);
  EXPECT_THROW((void)load_signal_trace("/no/such/dir/trace.txt"), Error);
  EXPECT_THROW(save_signal_trace(path, {}), Error);
  std::filesystem::remove(path);
}

TEST(TraceSetFile, RoundTripsBitExactAndZeroCopy) {
  const SignalTraceSet set = make_set();
  const std::string path = temp_path("jstream_traceset_rt.jst");
  const std::uint64_t fingerprint = 0xfeedface12345678ULL;
  save_trace_set(path, set, fingerprint);

  const TraceSetFileInfo info = probe_trace_set(path);
  EXPECT_EQ(info.version, kTraceSetFileVersion);
  EXPECT_EQ(info.fingerprint, fingerprint);
  EXPECT_EQ(info.users, set.users());
  EXPECT_EQ(info.slots, set.slots());
  EXPECT_EQ(info.payload_bytes, set.total_bytes());

  const std::shared_ptr<const SignalTraceSet> loaded =
      load_trace_set(path, fingerprint);
  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(loaded->mapped());
  ASSERT_EQ(loaded->users(), set.users());
  ASSERT_EQ(loaded->slots(), set.slots());
  for (std::size_t user = 0; user < set.users(); ++user) {
    for (std::int64_t slot = 0; slot < set.slots(); ++slot) {
      EXPECT_EQ(loaded->signal_dbm(user, slot), set.signal_dbm(user, slot));
    }
  }
  // The file is the header plus the one signal matrix, nothing derived.
  EXPECT_EQ(std::filesystem::file_size(path), 64u + set.total_bytes());
  std::filesystem::remove(path);
}

TEST(TraceSetFile, MappedSetOutlivesTheFileAndRefusesMutation) {
  const SignalTraceSet set = make_set();
  const std::string path = temp_path("jstream_traceset_unlink.jst");
  save_trace_set(path, set, 1);
  const std::shared_ptr<const SignalTraceSet> loaded = load_trace_set(path, 1);
  // POSIX keeps the mapping alive after the unlink; reads must still work.
  std::filesystem::remove(path);
  EXPECT_EQ(loaded->signal_dbm(0, 0), set.signal_dbm(0, 0));
  EXPECT_EQ(loaded->signal_dbm(2, 16), set.signal_dbm(2, 16));
}

TEST(TraceSetFile, SaveRejectsBadPaths) {
  const SignalTraceSet set = make_set();
  EXPECT_THROW(save_trace_set("/no/such/dir/set.jst", set, 1), Error);
}

TEST(TraceSetFile, RejectsFingerprintMismatch) {
  const std::string path = temp_path("jstream_traceset_fp.jst");
  save_trace_set(path, make_set(), /*fingerprint=*/7);
  EXPECT_THROW((void)load_trace_set(path, /*expected_fingerprint=*/8),
               TraceFileError);
  // The right fingerprint still loads: the reject above did not destroy it.
  EXPECT_NE(load_trace_set(path, 7), nullptr);
  std::filesystem::remove(path);
}

TEST(TraceSetFile, RejectsCorruptMagicVersionAndHeader) {
  const std::string path = temp_path("jstream_traceset_hdr.jst");
  for (const std::int64_t offset : {0,   // magic
                                    8,   // schema version
                                    12,  // endianness tag
                                    24,  // users
                                    56}) {  // header checksum
    save_trace_set(path, make_set(), 1);
    corrupt_byte(path, offset);
    EXPECT_THROW((void)probe_trace_set(path), TraceFileError) << "offset " << offset;
    EXPECT_THROW((void)load_trace_set(path, 1), TraceFileError)
        << "offset " << offset;
  }
  std::filesystem::remove(path);
}

TEST(TraceSetFile, RejectsPayloadCorruption) {
  const std::string path = temp_path("jstream_traceset_bits.jst");
  save_trace_set(path, make_set(), 1);
  // Header (incl. payload checksum) intact, one payload byte flipped.
  corrupt_byte(path, 64 + 11);
  EXPECT_NO_THROW((void)probe_trace_set(path));  // header-only probe can't see it
  EXPECT_THROW((void)load_trace_set(path, 1), TraceFileError);
  std::filesystem::remove(path);
}

TEST(TraceSetFile, RejectsTruncation) {
  const std::string path = temp_path("jstream_traceset_trunc.jst");
  save_trace_set(path, make_set(), 1);
  const std::uintmax_t full = std::filesystem::file_size(path);
  // Cut mid-payload, then mid-header.
  std::filesystem::resize_file(path, full - 16);
  EXPECT_THROW((void)probe_trace_set(path), TraceFileError);
  EXPECT_THROW((void)load_trace_set(path, 1), TraceFileError);
  std::filesystem::resize_file(path, 32);
  EXPECT_THROW((void)probe_trace_set(path), TraceFileError);
  EXPECT_THROW((void)load_trace_set(path, 1), TraceFileError);
  std::filesystem::remove(path);
  // Missing file is an Error (open failure), not silent.
  EXPECT_THROW((void)load_trace_set(path, 1), Error);
}

TEST(SignalTraceIo, RecordsFromAModel) {
  SineSignalParams params;
  params.noise_stddev_db = 0.0;
  SineSignalModel model(params, Rng(1));
  const std::vector<double> trace = record_signal_trace(model, 50);
  ASSERT_EQ(trace.size(), 50u);
  // Replay matches the source model sample for sample.
  TraceSignalModel replay(trace);
  SineSignalModel fresh(params, Rng(1));
  for (std::int64_t slot = 0; slot < 50; ++slot) {
    EXPECT_DOUBLE_EQ(replay.signal_dbm(slot), fresh.signal_dbm(slot));
  }
  EXPECT_THROW((void)record_signal_trace(model, 0), Error);
}

}  // namespace
}  // namespace jstream
