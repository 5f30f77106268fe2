// The metric contract: which metrics the final JSON line reports, with
// their units and better directions. perfbench/BENCHMARK.json at the
// repository root must list the same names and units; `perfbench
// --list-metrics` prints them so run.py --selftest can compare.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher".
};

/// End-to-end metrics reported in the JSON line of an untraced run.
const std::vector<MetricSpec>& EndToEndSpec();
/// Per-layer metrics reported in the JSON line of a traced run.
const std::vector<MetricSpec>& PerLayerSpec();

/// Every end-to-end metric, JSON-reported or not, in report order.
const std::vector<MetricSpec>& AllEndToEndSpec();

/// True for every end-to-end metric name, JSON-reported or not.
bool IsEndToEnd(const std::string& name);
/// "lower"/"higher" for end-to-end metrics.
const char* BetterOf(const std::string& name);

/// Prints both lists as JSON; returns 0.
int PrintMetricSpec();

}  // namespace perfbench
