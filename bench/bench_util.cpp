#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>

#include "analysis/invariant_checker.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "telemetry/registry.hpp"
#include "common/units.hpp"

namespace jstream::bench {

namespace {

// Telemetry output destinations for the current process, captured by
// parse_common so guarded_main can finish the run without the body threading
// them through.
std::string g_telemetry_csv_dir;       // NOLINT(runtime/string)
bool g_print_telemetry = false;

}  // namespace

Cli make_cli(const std::string& program, const std::string& description,
             std::int64_t default_slots, std::size_t default_users) {
  Cli cli(program, description);
  cli.add_flag("users", std::to_string(default_users), "number of concurrent users");
  cli.add_flag("slots", std::to_string(default_slots),
               "simulation horizon in slots (REPRO_SLOTS env overrides)");
  cli.add_flag("seed", "42", "scenario RNG seed");
  cli.add_flag("csv", "", "directory for CSV export of the series (empty = off)");
  cli.add_flag("threads", "0", "sweep worker threads (0 = hardware concurrency)");
  cli.add_flag("telemetry", "false",
               "print the telemetry registry dump after the run");
  cli.add_flag("validate", "false",
               "check every slot against the paper invariants (Eq. 1/2/7/8/16, RRC); "
               "the run aborts on the first violation");
  return cli;
}

CommonArgs parse_common(Cli& cli, int argc, const char* const* argv) {
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::fputs(cli.help().c_str(), stdout);
    std::exit(0);
  }
  CommonArgs args;
  args.users = checked_size(cli.get_int("users"));
  args.slots = cli.get_int("slots");
  if (!cli.provided("slots")) {
    args.slots = env_int("REPRO_SLOTS", args.slots);
  }
  args.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  args.csv_dir = cli.get_string("csv");
  args.threads = checked_size(cli.get_int("threads"));
  args.telemetry = cli.get_bool("telemetry");
  args.validate = cli.get_bool("validate");
  require(args.users > 0, "--users must be positive");
  require(args.slots > 0, "--slots must be positive");
  if (args.validate) analysis::set_validation_enabled(true);
  g_telemetry_csv_dir = args.csv_dir;
  g_print_telemetry = args.telemetry;
  return args;
}

std::vector<RunMetrics> run_grid(const CommonArgs& args,
                                 std::span<const ExperimentSpec> specs,
                                 bool keep_series) {
  CampaignOptions options;
  options.threads = args.threads;
  options.keep_series = keep_series;
  options.cache = &global_trace_cache();
  return run_campaign(specs, options);
}

void maybe_write_csv(const std::string& csv_dir, const std::string& file,
                     const std::vector<std::string>& header,
                     const std::vector<std::vector<std::string>>& rows) {
  if (csv_dir.empty()) return;
  std::filesystem::create_directories(csv_dir);
  CsvWriter writer(csv_dir + "/" + file, header);
  for (const auto& row : rows) writer.row(row);
  std::printf("[csv] wrote %s/%s (%zu rows)\n", csv_dir.c_str(), file.c_str(),
              rows.size());
}

void print_cdf_table(const std::string& title, const std::string& value_label,
                     const std::vector<double>& samples, std::size_t points) {
  Table table(title, {value_label, "cdf"});
  for (const CdfPoint& point : empirical_cdf(samples, points)) {
    table.row({format_double(point.value, 4), format_double(point.fraction, 4)});
  }
  table.print();
}

int guarded_main(const std::string& program, int argc, const char* const* argv,
                 int (*body)(int, const char* const*)) {
  try {
    const int status = body(argc, argv);
    if (status == 0) {
      if (!g_telemetry_csv_dir.empty()) {
        std::filesystem::create_directories(g_telemetry_csv_dir);
        const std::string path =
            g_telemetry_csv_dir + "/" + program + "_telemetry.json";
        telemetry::global_registry().write_json(path);
        std::printf("[telemetry] wrote %s\n", path.c_str());
      }
      if (g_print_telemetry) {
        std::printf("\n%s", telemetry::global_registry().render_text().c_str());
      }
    }
    return status;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: error: %s\n", program.c_str(), e.what());
    return 1;
  }
}

const std::vector<FaultLevel>& fault_sweep_levels() {
  static const std::vector<FaultLevel> levels = [] {
    FaultConfig low;
    low.outage_rate_per_kslot = 2.0;
    low.outage_min_slots = 5;
    low.outage_max_slots = 20;
    low.staleness_rate_per_kslot = 4.0;
    low.departure_fraction = 0.10;
    low.capacity_rate_per_kslot = 1.0;
    low.capacity_scale = 0.8;

    FaultConfig medium;
    medium.outage_rate_per_kslot = 5.0;
    medium.outage_min_slots = 5;
    medium.outage_max_slots = 30;
    medium.staleness_rate_per_kslot = 10.0;
    medium.staleness_max_slots = 30;
    medium.departure_fraction = 0.25;
    medium.capacity_rate_per_kslot = 2.0;
    medium.capacity_scale = 0.5;

    FaultConfig high;
    high.outage_rate_per_kslot = 12.0;
    high.outage_min_slots = 10;
    high.outage_max_slots = 40;
    high.staleness_rate_per_kslot = 25.0;
    high.staleness_min_slots = 5;
    high.staleness_max_slots = 40;
    high.departure_fraction = 0.5;
    high.capacity_rate_per_kslot = 4.0;
    high.capacity_scale = 0.3;
    return std::vector<FaultLevel>{
        {"none", {}}, {"low", low}, {"medium", medium}, {"high", high}};
  }();
  return levels;
}

const std::vector<std::string>& fault_sweep_schedulers() {
  static const std::vector<std::string> names{"default", "throttling", "onoff", "salsa",
                                              "estreamer", "rtma",       "ema"};
  return names;
}

}  // namespace jstream::bench
