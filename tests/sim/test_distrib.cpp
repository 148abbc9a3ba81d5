// Multi-process sharded campaign runner. The headline requirement is
// differential: a >= 4-shard distributed run must be bit-identical — digest
// equality over the canonical encoding of every field, per-slot series
// included — to the serial campaign over the same specs, for every factory
// scheduler, with faults on, and in service mode. Around that sit the
// mechanics: shard-range geometry, frame encode/decode round trips, CPU-list
// parsing, and worker-failure propagation.

#include "sim/distrib.hpp"

#include <gtest/gtest.h>

#include "baselines/factory.hpp"
#include "common/error.hpp"
#include "session/service_campaign.hpp"
#include "sim/scenario.hpp"

namespace jstream {
namespace {

ScenarioConfig small_scenario(std::uint64_t seed = 51) {
  ScenarioConfig config = paper_scenario(/*users=*/6, seed);
  config.max_slots = 200;
  return config;
}

// Service cell small enough that sessions arrive, complete, and recycle
// population slots within the horizon (so session records exist).
ScenarioConfig service_cell(std::uint64_t seed) {
  ScenarioConfig config = small_scenario(seed);
  config.max_slots = 300;
  config.video_min_mb = 2.0;
  config.video_max_mb = 4.0;
  return config;
}

std::vector<CampaignSeries> all_scheduler_series() {
  std::vector<CampaignSeries> series;
  for (const std::string& name : scheduler_names()) {
    series.push_back(CampaignSeries{name, name, {}});
  }
  return series;
}

TEST(ShardRanges, PartitionIsContiguousOrderedAndBalanced) {
  for (const std::size_t cells : {1u, 2u, 7u, 16u, 100u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 4u, 8u}) {
      const std::vector<ShardRange> ranges = shard_ranges(cells, shards);
      ASSERT_EQ(ranges.size(), std::min(cells, shards));
      std::size_t expect_begin = 0;
      std::size_t min_size = cells;
      std::size_t max_size = 0;
      for (const ShardRange& range : ranges) {
        EXPECT_EQ(range.begin, expect_begin);
        EXPECT_GT(range.size(), 0u);
        min_size = std::min(min_size, range.size());
        max_size = std::max(max_size, range.size());
        expect_begin = range.end;
      }
      EXPECT_EQ(expect_begin, cells);
      EXPECT_LE(max_size - min_size, 1u);
    }
  }
  EXPECT_EQ(shard_ranges(5, 0).size(), 1u);  // 0 shards treated as 1
  EXPECT_EQ(shard_ranges(5, 0)[0], (ShardRange{0, 5}));
}

TEST(ParseCpuList, AcceptsSysfsShapes) {
  EXPECT_EQ(parse_cpu_list("0-3"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(parse_cpu_list("0-2,8,10-11"), (std::vector<int>{0, 1, 2, 8, 10, 11}));
  EXPECT_EQ(parse_cpu_list(" 4 , 6-7 \n"), (std::vector<int>{4, 6, 7}));
  EXPECT_EQ(parse_cpu_list("12"), (std::vector<int>{12}));
  EXPECT_TRUE(parse_cpu_list("").empty());
  EXPECT_THROW((void)parse_cpu_list("a-b"), Error);
  EXPECT_THROW((void)parse_cpu_list("3-1"), Error);
  EXPECT_THROW((void)parse_cpu_list("1-"), Error);
  EXPECT_THROW((void)parse_cpu_list("-5"), Error);
  EXPECT_THROW((void)parse_cpu_list("1.5"), Error);
}

TEST(FrameCodec, ScalarsRoundTripAndTruncationThrows) {
  ByteWriter out;
  out.u32(0xdeadbeefU);
  out.u64(0x0123456789abcdefULL);
  out.i64(-42);
  out.f64(-0.0);
  out.f64(1e-308);
  out.boolean(true);
  out.doubles(std::vector<double>{1.5, -2.25, 3.75});
  out.doubles(std::vector<double>{});

  ByteReader in(out.bytes());
  EXPECT_EQ(in.u32(), 0xdeadbeefU);
  EXPECT_EQ(in.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(in.i64(), -42);
  const double negative_zero = in.f64();
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero));  // bit-exact, not just value-equal
  EXPECT_EQ(in.f64(), 1e-308);
  EXPECT_TRUE(in.boolean());
  EXPECT_EQ(in.doubles(), (std::vector<double>{1.5, -2.25, 3.75}));
  EXPECT_TRUE(in.doubles().empty());
  EXPECT_NO_THROW(in.finish());
  EXPECT_THROW((void)in.u32(), Error);  // past the end

  ByteWriter trailing;
  trailing.u64(1);
  trailing.u64(2);
  ByteReader short_read(trailing.bytes());
  (void)short_read.u64();
  EXPECT_THROW(short_read.finish(), Error);
}

TEST(FrameCodec, RunMetricsRoundTripIsBitExact) {
  ExperimentSpec spec;
  spec.label = "ema";
  spec.scheduler = "ema";
  spec.scenario = small_scenario();
  const RunMetrics original = run_experiment(spec, /*keep_series=*/true);
  ASSERT_FALSE(original.slot_fairness.empty());

  ByteWriter out;
  encode_run_metrics(out, original);
  ByteReader in(out.bytes());
  const RunMetrics decoded = decode_run_metrics(in);
  EXPECT_NO_THROW(in.finish());
  EXPECT_EQ(metrics_digest(decoded), metrics_digest(original));

  // The digest moves when any field moves by even one ULP.
  RunMetrics perturbed = decoded;
  perturbed.per_user[0].trans_mj =
      std::nextafter(perturbed.per_user[0].trans_mj, 1e300);
  EXPECT_NE(metrics_digest(perturbed), metrics_digest(original));

  // Truncated payloads throw instead of decoding garbage.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{40}, out.bytes().size() - 1}) {
    ByteReader cut(std::span(out.bytes().data(), keep));
    EXPECT_THROW((void)decode_run_metrics(cut), Error) << "keep " << keep;
  }
}

TEST(FrameCodec, ServiceResultRoundTripIsBitExact) {
  ServiceExperimentSpec spec;
  spec.label = "default";
  spec.scheduler = "default";
  spec.config.cell = service_cell(55);
  spec.config.arrivals.kind = ArrivalKind::kPoisson;
  spec.config.arrivals.rate_per_slot = 0.2;
  spec.config.warmup_slots = 40;
  spec.config.keep_session_records = true;  // exercises the records payload
  const ServiceResult original = run_service_experiment(spec);
  ASSERT_GT(original.service.offered, 0);
  ASSERT_FALSE(original.service.records.empty());

  ByteWriter out;
  encode_service_result(out, original);
  ByteReader in(out.bytes());
  const ServiceResult decoded = decode_service_result(in);
  EXPECT_NO_THROW(in.finish());
  EXPECT_EQ(service_digest(decoded), service_digest(original));
  EXPECT_EQ(decoded.service.records.size(), original.service.records.size());

  ServiceResult perturbed = decoded;
  perturbed.service.concurrency_sum += 1.0;
  EXPECT_NE(service_digest(perturbed), service_digest(original));
}

TEST(Distrib, ShardedMatchesSerialForEveryScheduler) {
  const std::vector<ExperimentSpec> specs =
      make_campaign_grid(small_scenario(), all_scheduler_series(),
                         /*replications=*/2);
  CampaignOptions serial_options;
  serial_options.threads = 2;
  serial_options.keep_series = true;
  const std::vector<RunMetrics> serial = run_campaign(specs, serial_options);

  DistribOptions distrib;
  distrib.processes = 4;
  distrib.campaign = serial_options;
  const std::vector<RunMetrics> sharded = run_campaign_distributed(specs, distrib);

  ASSERT_EQ(sharded.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(metrics_digest(sharded[i]), metrics_digest(serial[i]))
        << specs[i].label << " seed " << specs[i].scenario.seed;
  }
  EXPECT_EQ(metrics_digest(std::span<const RunMetrics>(sharded)),
            metrics_digest(std::span<const RunMetrics>(serial)));
}

TEST(Distrib, ShardedMatchesSerialUnderFaults) {
  ScenarioConfig faulted = small_scenario(61);
  faulted.faults.outage_rate_per_kslot = 8.0;
  faulted.faults.staleness_rate_per_kslot = 12.0;
  faulted.faults.departure_fraction = 0.25;
  const std::vector<CampaignSeries> series = {
      {"default", "default", {}}, {"rtma", "rtma", {}}, {"ema-fast", "ema-fast", {}}};
  const std::vector<ExperimentSpec> specs =
      make_campaign_grid(faulted, series, /*replications=*/3);

  CampaignOptions options;
  options.keep_series = true;
  const std::vector<RunMetrics> serial = run_campaign(specs, options);
  DistribOptions distrib;
  distrib.processes = 4;
  distrib.campaign = options;
  const std::vector<RunMetrics> sharded = run_campaign_distributed(specs, distrib);
  ASSERT_EQ(sharded.size(), serial.size());
  EXPECT_EQ(metrics_digest(std::span<const RunMetrics>(sharded)),
            metrics_digest(std::span<const RunMetrics>(serial)));
}

TEST(Distrib, ShardedMatchesSerialInServiceMode) {
  ServiceConfig base;
  base.cell = service_cell(71);
  base.arrivals.kind = ArrivalKind::kPoisson;
  base.arrivals.rate_per_slot = 0.2;
  base.warmup_slots = 40;
  base.keep_session_records = true;
  std::vector<ServiceExperimentSpec> specs;
  for (const std::string& name : scheduler_names()) {
    ServiceExperimentSpec spec;
    spec.label = name;
    spec.scheduler = name;
    spec.config = base;
    specs.push_back(std::move(spec));
  }

  const std::vector<ServiceResult> serial = run_service_campaign(specs);
  DistribOptions distrib;
  distrib.processes = 4;
  const std::vector<ServiceResult> sharded =
      run_service_campaign_distributed(specs, distrib);
  ASSERT_EQ(sharded.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(service_digest(sharded[i]), service_digest(serial[i]))
        << specs[i].label;
  }
  EXPECT_EQ(service_digest(std::span<const ServiceResult>(sharded)),
            service_digest(std::span<const ServiceResult>(serial)));
}

TEST(Distrib, MoreShardsThanCellsAndSingleShardBothWork) {
  const std::vector<CampaignSeries> series = {{"default", "default", {}}};
  const std::vector<ExperimentSpec> specs =
      make_campaign_grid(small_scenario(81), series, /*replications=*/3);
  const std::vector<RunMetrics> serial = run_campaign(specs, {});

  for (const std::size_t processes : {1u, 16u}) {
    DistribOptions distrib;
    distrib.processes = processes;
    const std::vector<RunMetrics> sharded = run_campaign_distributed(specs, distrib);
    ASSERT_EQ(sharded.size(), serial.size()) << processes << " processes";
    EXPECT_EQ(metrics_digest(std::span<const RunMetrics>(sharded)),
              metrics_digest(std::span<const RunMetrics>(serial)))
        << processes << " processes";
  }
  EXPECT_TRUE(run_campaign_distributed({}, {}).empty());
}

TEST(Distrib, NumaBindRunsAndStaysBitIdentical) {
  // Placement must never change results — on single-node machines it is a
  // no-op; on NUMA machines it only pins workers.
  const std::vector<CampaignSeries> series = {{"default", "default", {}}};
  const std::vector<ExperimentSpec> specs =
      make_campaign_grid(small_scenario(91), series, /*replications=*/2);
  const std::vector<RunMetrics> serial = run_campaign(specs, {});
  DistribOptions distrib;
  distrib.processes = 2;
  distrib.numa_bind = true;
  const std::vector<RunMetrics> sharded = run_campaign_distributed(specs, distrib);
  EXPECT_EQ(metrics_digest(std::span<const RunMetrics>(sharded)),
            metrics_digest(std::span<const RunMetrics>(serial)));
}

class ThrowingEncoder final : public ShardEncoder {
 public:
  std::vector<std::uint8_t> encode_slice(std::size_t shard, ShardRange) override {
    if (shard == 1) throw Error("synthetic shard failure");
    return {};
  }
};

TEST(Distrib, WorkerExceptionSurfacesWithItsMessage) {
  ThrowingEncoder encoder;
  try {
    (void)run_forked_shards(/*cells=*/8, /*processes=*/4, /*numa_bind=*/false,
                            encoder);
    FAIL() << "expected the shard failure to propagate";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("shard 1"), std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("synthetic shard failure"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace jstream
