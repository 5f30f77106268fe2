// Shared types of the end-to-end benchmark: metric records, one round's
// output, the determinism fingerprint and the run-wide check list.
//
// A run of the benchmark is a sequence of *rounds*. Each round builds the
// workload from the seed (set-up), runs one fixed block of operations (the
// measured phase) and checks every answer. Simulated-time and count
// metrics are deterministic under the seed, so every round must reproduce
// the first round's fingerprint; wall-clock metrics are medians over the
// rounds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// What a number measures: wall-clock time on this host, simulated time
/// (deterministic under the seed), or a count (deterministic too).
enum class Kind { kWall, kSim, kCount };

const char* KindName(Kind kind);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Kind kind = Kind::kCount;
  /// False where the workload has no such operation ("n/a").
  bool present = true;
  /// Derived from the tracer's spans: only traced rounds carry a real
  /// value, so it stays out of the fingerprint.
  bool from_trace = false;
};

/// FNV-1a digest over answer sets and deterministic counters.
class Fingerprint {
 public:
  void Add(uint64_t v);
  void Add(double v);
  void Add(const std::string& s);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Digest of every deterministic (simulated or count) metric, by name.
uint64_t DigestMetrics(const std::vector<Metric>& metrics);

/// Violations found by the answer oracle and the engagement guards. Any
/// entry makes the run fail: it is never reported as a metric.
class Checks {
 public:
  void Fail(const std::string& what);
  /// Records `what` unless `ok`.
  void Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  bool ok() const { return count_ == 0; }
  uint64_t count() const { return count_; }
  /// The first few violations (the total is in count()).
  const std::vector<std::string>& samples() const { return samples_; }

 private:
  uint64_t count_ = 0;
  std::vector<std::string> samples_;
};

/// Knobs shared by all workloads.
struct Options {
  uint64_t seed = 1;
  /// Size multiplier: 1 is the stated workload size; the self-tests run
  /// the same code at a tiny scale.
  double scale = 1.0;
  bool traced = false;
  /// When non-empty (traced rounds only), the spans are written here as
  /// Chrome trace JSON.
  std::string trace_out;
};

/// Everything one round produces.
struct Round {
  double setup_s = 0.0;
  double measure_s = 0.0;  ///< Wall time of the measured phase.
  uint64_t ops = 0;        ///< Operations completed in the measured phase.
  uint64_t attempted = 0;  ///< Operations issued.
  uint64_t failed = 0;     ///< Queries non-OK / timed out / partial / shed.
  bool traced = false;
  /// Answer-set digest folded with DigestMetrics of the deterministic
  /// metrics below.
  uint64_t fingerprint = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit,
           Kind kind) {
    metrics.push_back(Metric{name, value, unit, kind, true});
  }
  void AddNa(const std::string& name, const std::string& unit, Kind kind) {
    metrics.push_back(Metric{name, 0.0, unit, kind, false});
  }
  void AddTraced(const std::string& name, double value,
                 const std::string& unit, Kind kind) {
    metrics.push_back(Metric{name, value, unit, kind, true, true});
  }
};

/// The metric called `name` in `round`, or null.
const Metric* FindMetric(const Round& round, const std::string& name);

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);
/// Nearest-rank percentile p in [0, 100] of `v` (0 when empty).
double Percentile(std::vector<double> v, double p);

}  // namespace perfbench
