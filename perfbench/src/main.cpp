// perfbench — one end-to-end benchmark of the on-device serving stack.
//
//   perfbench --workload <tenants|session_exact|session_pruned|cold_start>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// Prints a human-readable log, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The metrics are the
// end-to-end sheet, or with --trace 1 the per-layer sheet. Exits 0 only
// when every operation passed its check; 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> --workdir <dir>\n";
  return 2;
}

bool parse_number(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0' && std::isfinite(*out);
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      return usage("missing value for " + key);
    }
    const std::string value = argv[++i];
    double number = 0.0;
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--workdir") {
      options.workdir = value;
    } else if (!parse_number(value, &number)) {
      return usage("bad value for " + key + ": " + value);
    } else if (key == "--seed" && number >= 0 && number == std::floor(number)) {
      options.seed = static_cast<std::uint64_t>(number);
    } else if (key == "--seconds" && number >= 1 && number <= 60) {
      options.seconds = number;
    } else if (key == "--trace" && (number == 0 || number == 1)) {
      options.trace = number == 1;
    } else {
      return usage("unknown or out-of-range argument " + key + " " + value);
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) {
    known = known || name == options.workload;
  }
  if (!known) {
    return usage("unknown workload '" + options.workload + "'");
  }
  if (options.workdir.empty()) {
    return usage("--workdir is required");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);
  if (ec) {
    return usage("cannot create " + options.workdir + ": " + ec.message());
  }

  perfbench::RunResult result;
  const perfbench::CpuTimes cpu0 = perfbench::read_cpu_times();
  try {
    result = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  const perfbench::CpuTimes cpu1 = perfbench::read_cpu_times();

  std::cout << "workload " << options.workload << " seed " << options.seed
            << " seconds " << options.seconds << " trace "
            << (options.trace ? 1 : 0) << "\n";
  std::cout << "host " << perfbench::host_tag(cpu0, cpu1) << "\n";
  for (const std::string& line : result.notes) {
    std::cout << line << "\n";
  }
  // The traced run's own end-to-end figures: their difference from an
  // untraced run of the same seed is the tracing overhead.
  if (options.trace) {
    for (const perfbench::Metric& m : result.end_to_end) {
      std::cout << "traced " << m.name << " " << json_number(m.value) << " "
                << m.unit << "\n";
    }
  }
  const bool correct = result.failed == 0 && !result.checks_broken &&
                       result.attempted > 0;
  const auto& sheet = options.trace ? result.per_layer : result.end_to_end;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < sheet.size(); ++i) {
    json += (i > 0 ? ", " : "") + std::string("\"") + sheet[i].name +
            "\": {\"value\": " + json_number(sheet[i].value) +
            ", \"unit\": \"" + sheet[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}
