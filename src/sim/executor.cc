#include "sim/executor.h"

#include <cassert>
#include <cstdlib>
#include <stdexcept>

#include "sim/shard.h"

namespace pierstack::sim {
namespace detail {

EventId CanonicalQueue::Push(CanonicalEvent ev) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (generation_.size() > kSlotMask) {
      throw std::length_error("CanonicalQueue: too many pending events");
    }
    slot = static_cast<uint32_t>(generation_.size());
    generation_.push_back(1);
  }
  ev.id = (EventId{generation_[slot]} << kSlotBits) | slot;
  EventId handle = ev.id;
  heap_.push(std::move(ev));
  ++live_;
  return handle;
}

void CanonicalQueue::Retire(EventId handle) {
  uint32_t slot = static_cast<uint32_t>(handle & kSlotMask);
  uint32_t& gen = generation_[slot];
  if (++gen == 0) gen = 1;  // 0 is never a live generation
  free_slots_.push_back(slot);
}

void CanonicalQueue::SkipCancelled() {
  while (!heap_.empty() && !Live(heap_.top().id)) heap_.pop();
}

bool CanonicalQueue::PopUpTo(SimTime bound, CanonicalEvent* out) {
  SkipCancelled();
  if (heap_.empty() || heap_.top().time > bound) return false;
  *out = PopTop();
  return true;
}

const CanonicalEvent* CanonicalQueue::Peek() {
  SkipCancelled();
  return heap_.empty() ? nullptr : &heap_.top();
}

CanonicalEvent CanonicalQueue::PopTop() {
  // The container element is not actually const; moving the closure out
  // before pop avoids a per-event std::function copy. The comparator only
  // reads the trivially-copied key fields, which a move leaves intact.
  CanonicalEvent ev = std::move(const_cast<CanonicalEvent&>(heap_.top()));
  heap_.pop();
  Retire(ev.id);
  --live_;
  return ev;
}

bool CanonicalQueue::PeekTime(SimTime* t) {
  SkipCancelled();
  if (heap_.empty()) return false;
  *t = heap_.top().time;
  return true;
}

bool CanonicalQueue::Cancel(EventId handle) {
  if ((handle & kSlotMask) >= generation_.size() || !Live(handle)) {
    return false;
  }
  // Lazy deletion: the heap entry no longer matches its slot's generation
  // and is skipped when it surfaces.
  Retire(handle);
  --live_;
  return true;
}

}  // namespace detail

EventId SerialExecutor::ScheduleAt(HostId owner, SimTime t,
                                   std::function<void()> fn) {
  assert(t >= now_);
  detail::CanonicalEvent ev;
  ev.time = t;
  ev.origin = current_origin_;
  if (current_origin_ == kDriverHost) {
    ev.origin_seq = driver_seq_++;
  } else {
    if (current_origin_ >= origin_seq_.size()) {
      origin_seq_.resize(current_origin_ + 1, 0);
    }
    ev.origin_seq = origin_seq_[current_origin_]++;
  }
  ev.owner = owner;
  ev.fn = std::move(fn);
  return queue_.Push(std::move(ev));
}

bool SerialExecutor::Cancel(EventId id) { return queue_.Cancel(id); }

bool SerialExecutor::RunOne(SimTime bound) {
  detail::CanonicalEvent ev;
  if (!queue_.PopUpTo(bound, &ev)) return false;
  now_ = ev.time;
  current_origin_ = ev.owner;
  ++executed_;
  ev.fn();
  current_origin_ = kDriverHost;
  return true;
}

size_t SerialExecutor::Run(size_t limit) {
  size_t n = 0;
  while (n < limit && RunOne(SIZE_MAX)) ++n;
  return n;
}

size_t SerialExecutor::RunUntil(SimTime t) {
  size_t n = 0;
  while (RunOne(t)) ++n;
  if (now_ < t) now_ = t;
  return n;
}

std::unique_ptr<Executor> MakeEnvExecutor(SimTime lookahead) {
  const char* env = std::getenv("PIERSTACK_SHARDS");
  long shards = env != nullptr ? std::strtol(env, nullptr, 10) : 0;
  if (shards > 1 && lookahead > 0) {
    ShardedExecutor::Options opts;
    opts.shards = static_cast<uint32_t>(shards);
    opts.lookahead = lookahead;
    return std::make_unique<ShardedExecutor>(opts);
  }
  return std::make_unique<SerialExecutor>();
}

}  // namespace pierstack::sim
