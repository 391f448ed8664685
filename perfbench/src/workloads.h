// The four workloads. Each builds its models from the run seed, serves
// them through the public ondevice API, checks every answer against the
// independent reference (reference.h) and fills a RunResult.
#pragma once

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

const std::vector<std::string>& workload_names();

// Runs `options.workload`; the name must be one of workload_names().
RunResult run_workload(const Options& options);

}  // namespace perfbench
