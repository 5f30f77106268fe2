#include "tracing.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

using pierstack::sim::EventId;
using pierstack::sim::HostId;
using pierstack::sim::SimTime;

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kGnutella:
      return "gnutella";
    case Layer::kDht:
      return "dht";
    case Layer::kDriver:
      break;
  }
  return "driver";
}

TracingExecutor::TracingExecutor(pierstack::sim::Executor* inner)
    : inner_(inner), epoch_(std::chrono::steady_clock::now()) {}

void TracingExecutor::SetLayer(HostId host, Layer layer) {
  if (host == pierstack::sim::kDriverHost) return;
  if (layer_of_.size() <= host) layer_of_.resize(host + 1, Layer::kDriver);
  layer_of_[host] = layer;
}

double TracingExecutor::Elapsed() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

EventId TracingExecutor::ScheduleAt(HostId owner, SimTime t,
                                    std::function<void()> fn) {
  if (!recording_) return inner_->ScheduleAt(owner, t, std::move(fn));
  ++schedules_;
  uint32_t parent = current_span_;
  uint32_t query = current_query_;
  EventId id = inner_->ScheduleAt(
      owner, t,
      [this, owner, parent, query, fn = std::move(fn)]() mutable {
        RunSpan(owner, parent, query, &fn);
      });
  pending_peak_ = std::max(pending_peak_, inner_->pending());
  return id;
}

bool TracingExecutor::Cancel(EventId id) {
  bool cancelled = inner_->Cancel(id);
  if (cancelled && recording_) ++cancels_;
  return cancelled;
}

void TracingExecutor::RunSpan(HostId owner, uint32_t parent, uint32_t query,
                              std::function<void()>* fn) {
  Span span;
  span.owner = owner;
  span.layer = owner < layer_of_.size() ? layer_of_[owner] : Layer::kDriver;
  span.parent = parent;
  span.query = query;
  size_t index = spans_.size();
  uint32_t saved_span = current_span_;
  uint32_t saved_query = current_query_;
  current_span_ = static_cast<uint32_t>(index + 1);
  current_query_ = query;
  span.start_s = Elapsed();
  spans_.push_back(span);
  (*fn)();
  spans_[index].end_s = Elapsed();
  current_span_ = saved_span;
  current_query_ = saved_query;
}

size_t TracingExecutor::Run(size_t limit) {
  double start = Elapsed();
  size_t n = inner_->Run(limit);
  if (recording_) run_wall_s_ += Elapsed() - start;
  return n;
}

size_t TracingExecutor::RunUntil(SimTime t) {
  double start = Elapsed();
  size_t n = inner_->RunUntil(t);
  if (recording_) run_wall_s_ += Elapsed() - start;
  return n;
}

double TracingExecutor::HandlerSeconds(Layer layer) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.layer == layer) total += s.end_s - s.start_s;
  }
  return total;
}

double TracingExecutor::CoreSelfSeconds() const {
  // Handlers never nest on a serial executor, so the spans are disjoint
  // and their sum is the covered part of the Run interval.
  double covered = 0.0;
  for (const Span& s : spans_) covered += s.end_s - s.start_s;
  return std::max(0.0, run_wall_s_ - covered);
}

bool TracingExecutor::WriteChromeTrace(const std::string& path,
                                       size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  size_t n = std::min(max_spans, spans_.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    long long tid = s.owner == pierstack::sim::kDriverHost
                        ? -1
                        : static_cast<long long>(s.owner);
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%lld,"
                 "\"args\":{\"span\":%zu,\"parent\":%u,\"query\":%u}}\n",
                 i ? "," : "", LayerName(s.layer), LayerName(s.layer),
                 s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, tid, i + 1,
                 s.parent, s.query);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
