// Command line shared by both benchmark programs:
//   --workload <name> --seed <n> --seconds <s> [--spans <file>]
// (--spans is read by the traced program only).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace perfbench {

struct Args {
  std::string workload_name;
  Workload workload = Workload::kEmaCongested;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string spans_path;
};

[[nodiscard]] inline Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload_name = value;
      args.workload = parse_workload(value);
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      have_seconds = true;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    throw std::invalid_argument("usage: --workload <name> --seed <n> --seconds <s>");
  }
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

}  // namespace perfbench
