#include "radio/signal_trace_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace jstream {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
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

TEST(SignalTraceIo, RejectsNonFiniteSamplesWithTheirLine) {
  const std::string path = temp_path("jstream_trace_nonfinite.txt");
  for (const char* bad : {"inf", "-inf", "nan"}) {
    {
      std::ofstream out(path);
      out << "-80\n" << bad << "\n-90\n";
    }
    std::string error;
    try {
      (void)load_signal_trace(path);
    } catch (const Error& e) {
      error = e.what();
    }
    EXPECT_NE(error.find(path + ":2: sample is not finite"), std::string::npos)
        << bad << ": got \"" << error << "\"";
  }
  std::filesystem::remove(path);
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
