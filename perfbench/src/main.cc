// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload gnutella_flood|pier_search|hybrid_qrs --seed N
//             --seconds S --trace 0|1 [--scale F] [--trace-out FILE]
//             [--commit SHA]
//   perfbench --selftest
//   perfbench --list-metrics
//
// One process, one thread, sim::SerialExecutor underneath. A run repeats
// rounds (set-up + one fixed block of operations) until `--seconds` of
// wall time are spent. Round 1 is the warm-up: its answers set the
// fingerprint every later round must reproduce, but its wall times (paid
// once per process: heap growth, page faults) are not reported. With
// `--trace 0` at least 3 more rounds follow, untraced, and the run reports
// the end-to-end metrics; with `--trace 1` traced and untraced rounds
// alternate (at least 2 of each), and the run reports the per-layer
// metrics.
// The last line of standard output is one JSON object; it is printed only
// when every check passed. Exit codes: 0 ok, 1 check failed, 2 usage.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"
#include "metrics_spec.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

int RunSelfTests();  // selftest.cc

namespace {

using WorkloadFn = Round (*)(const Options&, Checks*);

struct Workload {
  const char* name;
  WorkloadFn fn;
};

constexpr Workload kWorkloads[] = {
    {"gnutella_flood", RunGnutellaFlood},
    {"pier_search", RunPierSearch},
    {"hybrid_qrs", RunHybridQrs},
};

/// Rounds after the warm-up, at least.
constexpr size_t kMinRounds = 3;
constexpr size_t kMinTracedRounds = 4;
constexpr size_t kMaxRounds = 64;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scale F] [--trace-out FILE] "
               "[--commit SHA]\n       perfbench --selftest | "
               "--list-metrics\n",
               why);
  return 2;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB.
}

double OpsPerSecond(const Round& r) {
  return r.measure_s > 0 ? double(r.ops) / r.measure_s : 0.0;
}

/// Aggregates a metric over rounds: span-derived numbers as the median over
/// traced rounds, other wall numbers over untraced ones (both skipping the
/// warm-up), deterministic numbers from the first round.
Metric Aggregate(const std::vector<Round>& rounds, const std::string& name) {
  const Metric* first = FindMetric(rounds.front(), name);
  Metric out = *first;
  if (first->kind != Kind::kWall && !first->from_trace) return out;
  std::vector<double> values;
  for (size_t i = 1; i < rounds.size(); ++i) {
    if (rounds[i].traced == first->from_trace) {
      values.push_back(FindMetric(rounds[i], name)->value);
    }
  }
  out.value = Median(values);
  return out;
}

void PrintRow(const Metric& m, const char* better) {
  char value[64];
  if (!m.present) {
    std::snprintf(value, sizeof(value), "n/a");
  } else {
    std::snprintf(value, sizeof(value), "%.6g", m.value);
  }
  std::printf("  %-36s %14s  %-13s %-9s %s\n", m.name.c_str(), value,
              m.unit.c_str(), KindName(m.kind), better);
}

void PrintJsonMetric(bool first, const Metric& m) {
  double v = std::isfinite(m.value) ? m.value : 0.0;
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              first ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
}

int Run(const Workload& workload, const Options& base, double seconds,
        bool trace, const std::string& commit) {
  Checks checks;
  std::vector<Round> rounds;
  double elapsed = 0;
  bool traced_written = false;
  const size_t min_rounds = 1 + (trace ? kMinTracedRounds : kMinRounds);
  while (rounds.size() < min_rounds ||
         (elapsed < seconds && rounds.size() < kMaxRounds)) {
    Options o = base;
    o.traced = trace && rounds.size() % 2 == 1;
    if (!o.traced || traced_written) o.trace_out.clear();
    traced_written = traced_written || o.traced;
    Round r = workload.fn(o, &checks);
    r.traced = o.traced;
    elapsed += r.setup_s + r.measure_s;
    if (!checks.ok()) break;
    if (!rounds.empty() && r.fingerprint != rounds.front().fingerprint) {
      checks.Fail(std::string("fingerprint of round ") +
                  std::to_string(rounds.size() + 1) +
                  (o.traced ? " (traced)" : "") +
                  " differs from round 1: the run is not deterministic" +
                  (o.traced ? " or the tracer perturbs it" : ""));
      break;
    }
    rounds.push_back(std::move(r));
  }
  if (!checks.ok()) {
    std::fprintf(stderr, "perfbench: %s: %llu check(s) failed\n",
                 workload.name, (unsigned long long)checks.count());
    for (const auto& s : checks.samples()) {
      std::fprintf(stderr, "  %s\n", s.c_str());
    }
    return 1;
  }

  const Round& r0 = rounds.front();
  std::vector<double> setup, ops_untraced, ops_traced;
  for (size_t i = 1; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    if (!r.traced) setup.push_back(r.setup_s);
    (r.traced ? ops_traced : ops_untraced).push_back(OpsPerSecond(r));
  }
  std::vector<Metric> e2e;
  for (const MetricSpec& spec : AllEndToEndSpec()) {
    std::string name = spec.name;
    if (name == "setup_s") {
      e2e.push_back(Metric{name, Median(setup), spec.unit, Kind::kWall});
    } else if (name == "ops_per_s") {
      e2e.push_back(Metric{name, Median(ops_untraced), spec.unit, Kind::kWall});
    } else if (name == "peak_rss_mb") {
      e2e.push_back(Metric{name, PeakRssMb(), spec.unit, Kind::kWall});
    } else {
      e2e.push_back(*FindMetric(r0, name));
    }
  }
  std::vector<Metric> layers;
  for (const Metric& m : r0.metrics) {
    if (!IsEndToEnd(m.name)) layers.push_back(Aggregate(rounds, m.name));
  }
  if (trace) {
    double untraced = Median(ops_untraced);
    double traced = Median(ops_traced);
    layers.push_back(Metric{"trace.overhead_frac",
                            untraced > 0 ? 1.0 - traced / untraced : 0.0,
                            "fraction", Kind::kWall});
  }

  long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"cpus\": %ld, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\", "
      "\"rounds\": %zu, \"traced_rounds\": %zu, \"ops_per_round\": %llu, "
      "\"fingerprint\": \"%016llx\", \"round_setup_s\": [",
      workload.name, (unsigned long long)base.seed, cpus, PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, commit.c_str(), rounds.size(), ops_traced.size(),
      (unsigned long long)r0.ops, (unsigned long long)r0.fingerprint);
  for (size_t i = 0; i < rounds.size(); ++i) {
    std::printf("%s%.4f", i ? ", " : "", rounds[i].setup_s);
  }
  std::printf("], \"round_ops_per_s\": [");
  for (size_t i = 0; i < rounds.size(); ++i) {
    std::printf("%s%.1f", i ? ", " : "", OpsPerSecond(rounds[i]));
  }
  std::printf("]}}\n");
  std::printf("%s end-to-end (%zu rounds)\n", workload.name, rounds.size());
  for (const Metric& m : e2e) PrintRow(m, BetterOf(m.name));
  if (trace) {
    std::printf("%s per-layer (%zu traced rounds)\n", workload.name,
                ops_traced.size());
    for (const Metric& m : layers) PrintRow(m, "");
  }

  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              (unsigned long long)r0.attempted, (unsigned long long)r0.failed);
  bool first = true;
  const std::vector<Metric>& reported = trace ? layers : e2e;
  for (const MetricSpec& spec : trace ? PerLayerSpec() : EndToEndSpec()) {
    for (const Metric& m : reported) {
      if (m.name != spec.name) continue;
      PrintJsonMetric(first, m);
      first = false;
    }
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, commit = "unknown", trace_out;
  long long seed = -1;
  double seconds = -1, scale = 1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selftest") return RunSelfTests();
    if (arg == "--list-metrics") return PrintMetricSpec();
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoll(value, &end, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      trace = int(std::strtol(value, &end, 10));
    } else if (arg == "--scale") {
      scale = std::strtod(value, &end);
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("malformed value for " + arg).c_str());
    }
  }
  if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1) || scale <= 0) {
    return Usage("--seed, --seconds and --trace are required");
  }
  for (const Workload& w : kWorkloads) {
    if (workload != w.name) continue;
    Options o;
    o.seed = static_cast<uint64_t>(seed);
    o.scale = scale;
    o.trace_out = trace_out;
    return Run(w, o, seconds, trace == 1, commit);
  }
  return Usage(("unknown workload '" + workload + "'").c_str());
}
