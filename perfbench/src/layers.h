// Per-layer metric export and per-query answer accounting, shared by the
// three workloads.
//
// Every workload reports the same metric names; a layer a workload never
// runs reports zeros (per-layer) or "n/a" (end-to-end), so the bypass
// property is visible in the numbers.
#pragma once

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "dht/node.h"
#include "gnutella/types.h"
#include "oracle.h"
#include "pier/node.h"
#include "sim/network.h"
#include "tracing.h"

namespace perfbench {

/// Wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  /// Seconds since the last Lap (or construction), then restarts.
  double Lap() {
    double s = Seconds();
    start_ = std::chrono::steady_clock::now();
    return s;
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// `n` scaled by the size multiplier, at least `floor`.
inline size_t Scaled(size_t n, double scale, size_t floor) {
  return std::max(floor, static_cast<size_t>(n * scale));
}

/// Network totals copied at a phase boundary.
struct NetSnapshot {
  pierstack::sim::TrafficCounter total;
  std::map<std::string, pierstack::sim::TrafficCounter> by_tag;
  uint64_t dropped = 0;
  uint64_t refused = 0;
};
NetSnapshot SnapNet(const pierstack::sim::Network& net);

/// Set-up phase timings (seconds; phases a workload lacks stay 0).
struct SetupTimes {
  double trace_s = 0, topology_s = 0, dht_s = 0, publish_s = 0, settle_s = 0;
  double total() const {
    return trace_s + topology_s + dht_s + publish_s + settle_s;
  }
};
void AddSetupMetrics(Round* round, const SetupTimes& t);

/// sim.* metrics: event counts always; core/handler timings and queue
/// statistics from the tracer when the round is traced.
void AddSimMetrics(Round* round, uint64_t events, uint64_t ops,
                   double measure_s, const TracingExecutor* tracer);

/// net.* metrics over the measured phase.
void AddNetMetrics(Round* round, const NetSnapshot& before,
                   const NetSnapshot& after,
                   const pierstack::sim::Network& net);

/// gnutella.* metrics; null `after` = the layer is idle in this workload.
void AddGnutellaMetrics(Round* round,
                        const pierstack::gnutella::GnutellaMetrics* before,
                        const pierstack::gnutella::GnutellaMetrics* after,
                        double start_query_us, double handler_s);

/// dht.* metrics; null `after` = idle.
void AddDhtMetrics(Round* round, const pierstack::dht::DhtMetrics* before,
                   const pierstack::dht::DhtMetrics* after,
                   double handler_s);

/// pier.* metrics; null `after` = idle.
void AddPierMetrics(Round* round, const pierstack::pier::PierMetrics* before,
                    const pierstack::pier::PierMetrics* after,
                    uint64_t queries);

/// piersearch.* metrics (wall timings of the benchmark's own calls).
struct PierSearchCalls {
  std::vector<double> search_call_us;
  double publish_call_s = 0;
  uint64_t files = 0;
  uint64_t tuples = 0;
  uint64_t tuple_bytes = 0;
};
void AddPierSearchMetrics(Round* round, const PierSearchCalls* calls);

/// hybrid.* metrics; null = idle.
struct HybridTotals {
  uint64_t queries = 0, gnutella_answered = 0, reissued = 0,
           dht_answered = 0, dht_partial = 0, qrs_published = 0;
  double query_call_s = 0;
};
void AddHybridMetrics(Round* round, const HybridTotals* totals);

/// One hit as the benchmark received it.
struct RawHit {
  std::string filename;
  pierstack::sim::HostId host = 0;
  pierstack::sim::SimTime arrival = 0;
};

/// One query of the measured phase.
struct QueryRecord {
  const pierstack::workload::TraceQuery* query = nullptr;
  pierstack::sim::SimTime issued = 0;  ///< Scheduled issue time.
  std::vector<RawHit> hits;
  /// The strategy's match rule (hits are checked under it).
  MatchRule rule = MatchRule::kKeywords;
  uint64_t truth = 0;   ///< Ground-truth copies available to the query.
  size_t limit = 0;     ///< Result limit the truth is capped at.
  bool failed = false;  ///< Non-OK, timed out, partial or shed.
};

/// Accumulates the end-to-end answer-quality metrics and the answer-set
/// digest over a workload's queries.
class QueryTally {
 public:
  /// Checks every hit of `q` with the oracle (violations go to `checks`)
  /// and folds the query in. Returns the distinct copies the hits name;
  /// only those matching every term as a keyword count toward recall.
  std::vector<uint64_t> Add(const QueryRecord& q, const AnswerOracle& oracle,
                            Checks* checks);

  /// Failures known only as a count (not per query).
  void AddFailed(uint64_t n) { failed_ += n; }

  /// recall, empty_frac, first_result_ms_p50/p99, failed_frac, and the
  /// InvertedCache hits the keyword truth does not contain.
  void Report(Round* round) const;

  uint64_t issued() const { return issued_; }
  uint64_t failed() const { return failed_; }
  uint64_t with_results() const { return with_results_; }
  uint64_t answer_digest() const { return answers_.value(); }

 private:
  uint64_t issued_ = 0, failed_ = 0, with_truth_ = 0, empty_ = 0,
           with_results_ = 0, substring_only_ = 0;
  double recall_sum_ = 0;
  std::vector<double> first_ms_;
  Fingerprint answers_;
};

/// msgs_per_op, bytes_per_op and publish_bytes_per_file (< 0 = n/a).
void AddTrafficMetrics(Round* round, const NetSnapshot& before,
                       const NetSnapshot& after, uint64_t ops,
                       double publish_bytes_per_file);

/// Seals a round: counts ops, derives the fingerprint from the answer
/// digest and every deterministic metric.
void Seal(Round* round, uint64_t answer_digest);

}  // namespace perfbench
