// The three workloads. Each builds its inputs from the seed, sets up several
// times (setup_s is the median), measures for the requested seconds, checks
// the outputs, and fills the report: end-to-end metrics from untraced runs,
// or with --trace 1 the per-layer metrics of a separate traced run.
#pragma once

#include "common.hpp"

namespace e2ebench {

void run_train_kron(const Args& args, Report& report);
void run_dist_er(const Args& args, Report& report);
void run_serve_zipf(const Args& args, Report& report);

// Per-layer metric names, so every --trace 1 run reports the same set; a
// module that does no work on a workload reports 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace e2ebench
