// TracingExecutor: a sim::Executor decorator that records one span per
// executed handler, for the benchmark's traced run.
//
// It forwards every call to the wrapped SerialExecutor and wraps each
// scheduled handler in a span carrying its wall-clock start and end, the
// owner host (mapped to a layer), the parent span (the one running when
// the event was scheduled) and a query id inherited from the driver event
// that issued the query. Ordering is untouched — the inner executor keys
// the wrapped closure exactly as it would have keyed the bare one — so a
// traced round must reproduce the untraced fingerprint.
//
// Spans stay in memory; WriteChromeTrace dumps them at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/executor.h"

namespace perfbench {

/// The layer a span's owner host belongs to.
enum class Layer : uint8_t { kDriver = 0, kGnutella = 1, kDht = 2 };
constexpr int kNumLayers = 3;
const char* LayerName(Layer layer);

struct Span {
  double start_s = 0.0;  ///< Wall seconds since the tracer was created.
  double end_s = 0.0;
  pierstack::sim::HostId owner = pierstack::sim::kDriverHost;
  Layer layer = Layer::kDriver;
  uint32_t parent = 0;  ///< Span index + 1; 0 = scheduled from driver code.
  uint32_t query = 0;   ///< 0 = not part of any query.
};

class TracingExecutor : public pierstack::sim::Executor {
 public:
  explicit TracingExecutor(pierstack::sim::Executor* inner);

  /// Maps an owner host to its layer (hosts not set are kDriver).
  void SetLayer(pierstack::sim::HostId host, Layer layer);

  /// Spans are recorded only while recording (the measured phase); set-up
  /// events pass straight through.
  void set_recording(bool on) { recording_ = on; }

  /// Tags the running span (the driver event issuing a query) and
  /// everything scheduled from the current context with query id `q`.
  void SetQuery(uint32_t q) {
    current_query_ = q;
    if (current_span_ != 0) spans_[current_span_ - 1].query = q;
  }

  // --- sim::Executor -------------------------------------------------------
  pierstack::sim::SimTime now() const override { return inner_->now(); }
  pierstack::sim::EventId ScheduleAt(pierstack::sim::HostId owner,
                                     pierstack::sim::SimTime t,
                                     std::function<void()> fn) override;
  bool Cancel(pierstack::sim::EventId id) override;
  size_t Run(size_t limit = SIZE_MAX) override;
  size_t RunUntil(pierstack::sim::SimTime t) override;
  size_t pending() const override { return inner_->pending(); }
  uint64_t events_executed() const override {
    return inner_->events_executed();
  }

  // --- Recorded data ---------------------------------------------------------
  const std::vector<Span>& spans() const { return spans_; }
  /// Wall seconds spent inside Run/RunUntil while recording.
  double run_wall_s() const { return run_wall_s_; }
  /// Σ span durations per layer.
  double HandlerSeconds(Layer layer) const;
  /// Run wall time not covered by any handler span: the event core's own
  /// cost (queue operations, closure moves) plus the tracer's.
  double CoreSelfSeconds() const;
  uint64_t schedules() const { return schedules_; }
  uint64_t cancels() const { return cancels_; }
  size_t pending_peak() const { return pending_peak_; }

  /// Writes Chrome trace-event JSON (viewable in Perfetto or
  /// chrome://tracing) with at most `max_spans` spans. Returns false on an
  /// I/O error.
  bool WriteChromeTrace(const std::string& path, size_t max_spans) const;

 private:
  double Elapsed() const;
  void RunSpan(pierstack::sim::HostId owner, uint32_t parent, uint32_t query,
               std::function<void()>* fn);

  pierstack::sim::Executor* inner_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Layer> layer_of_;
  bool recording_ = false;
  uint32_t current_span_ = 0;
  uint32_t current_query_ = 0;
  std::vector<Span> spans_;
  double run_wall_s_ = 0.0;
  uint64_t schedules_ = 0;
  uint64_t cancels_ = 0;
  size_t pending_peak_ = 0;
};

}  // namespace perfbench
