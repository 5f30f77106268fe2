// pier_search: PIERSearch over a 1024-node Bamboo DHT with replication 3.
//
// Set-up: every node publishes its trace library (Item + Inverted +
// InvertedCache tuples) except a seeded sample of copies held back. Load:
// an open loop in simulated time — seeded Poisson arrivals of keyword
// searches from random nodes, interleaved with publishes of the held-back
// copies (the write path). Most
// searches run the distributed join with posting-size ordering and an
// owner-coalesced item fetch; a share use InvertedCache and a share get a
// TopK plan rewrite. Light message loss and one fail-slow node keep the
// failover and hedging paths running. Gnutella stays idle.
#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/hashing.h"
#include "common/rng.h"
#include "dht/builder.h"
#include "layers.h"
#include "piersearch/publisher.h"
#include "piersearch/schemas.h"
#include "piersearch/search_engine.h"
#include "sim/fault.h"
#include "workloads.h"

namespace perfbench {

using namespace pierstack;

namespace {

constexpr size_t kNodes = 1024;
constexpr size_t kDistinctFiles = 1600;
constexpr size_t kQueries = 4000;
/// Query arrivals per simulated second (Poisson).
constexpr double kQueryRate = 20.0;
/// Copies published during the measured phase, interleaved with the
/// searches (a seeded random choice among all copies); the rest are
/// published at set-up.
constexpr size_t kWrites = 500;
constexpr size_t kResultLimit = 200;
constexpr size_t kTopK = 10;
/// Strategy mix: below kJoinShare the distributed join, below kCacheShare
/// InvertedCache, the rest the distributed join with a TopK rewrite.
constexpr double kJoinShare = 0.70;
constexpr double kCacheShare = 0.85;
constexpr double kMessageLoss = 0.0001;
constexpr sim::SimTime kFailSlowExtra = 400 * sim::kMillisecond;

/// Deterministic per-file size, so TopK by size has something to order.
uint64_t FileSize(uint32_t file) {
  return (uint64_t{1} << 20) + (Mix64(file) % (uint64_t{1} << 23));
}

/// One scheduled write: a copy of a new file published by its node.
struct PublishOp {
  uint32_t file;
  uint32_t node;
  sim::SimTime at;
};

}  // namespace

Round RunPierSearch(const Options& o, Checks* checks) {
  const size_t n = Scaled(kNodes, o.scale, 16);
  const size_t num_queries = Scaled(kQueries, o.scale, 60);
  Round round;
  SetupTimes setup;
  Stopwatch sw;

  workload::WorkloadConfig wc;
  wc.num_nodes = n;
  wc.num_distinct_files = Scaled(kDistinctFiles, o.scale, 100);
  wc.vocab_size = std::max<size_t>(600, wc.num_distinct_files);
  // A light replica tail (no file on more than 1/32 of the nodes): with a
  // heavier one a few queries dominate the traffic and the numbers swing
  // with the seed.
  wc.max_replicas = std::max<size_t>(2, n / 32);
  wc.num_queries = num_queries;
  // Few hot-term queries: each ships a posting list holding a large share
  // of the files, so how many the seed draws would swing the traffic.
  wc.query_popular_terms = 0.05;
  wc.query_from_file = 0.89;
  wc.seed = o.seed;
  workload::Trace trace = workload::GenerateTrace(wc);
  setup.trace_s = sw.Lap();

  sim::SerialExecutor serial;
  TracingExecutor tracer(&serial);
  sim::Executor* exec = o.traced ? static_cast<sim::Executor*>(&tracer)
                                 : static_cast<sim::Executor*>(&serial);
  sim::Network net(exec,
                   std::make_unique<sim::UniformLatency>(
                       15 * sim::kMillisecond, 150 * sim::kMillisecond),
                   o.seed + 11);
  dht::DhtOptions dopt;
  dopt.overlay = dht::OverlayKind::kBamboo;
  dopt.replication = 3;
  dopt.routing_policy = dht::RoutingPolicyKind::kCongestionAware;
  dht::DhtDeployment dht(&net, n, dopt, o.seed + 3);
  pier::PierMetrics pier_metrics;
  std::vector<std::unique_ptr<pier::PierNode>> piers;
  std::vector<std::unique_ptr<piersearch::Publisher>> publishers;
  std::vector<std::unique_ptr<piersearch::SearchEngine>> engines;
  for (size_t i = 0; i < n; ++i) {
    piers.push_back(
        std::make_unique<pier::PierNode>(dht.node(i), &pier_metrics));
    publishers.push_back(
        std::make_unique<piersearch::Publisher>(piers.back().get()));
    engines.push_back(
        std::make_unique<piersearch::SearchEngine>(piers.back().get()));
  }
  setup.dht_s = sw.Lap();

  // --- Base publish: every library minus the held-back copies. -----------
  piersearch::PublishOptions popt;
  popt.inverted = true;
  popt.inverted_cache = true;
  PierSearchCalls calls;
  auto publish = [&](size_t node, std::vector<piersearch::FileToPublish> fs) {
    Stopwatch call;
    publishers[node]->PublishFiles(fs, popt);
    calls.publish_call_s += call.Seconds();
  };
  auto to_publish = [&](uint32_t file, size_t node) {
    return piersearch::FileToPublish{trace.files[file].filename,
                                     FileSize(file), dht.node(node)->host(),
                                     6346};
  };
  Rng rng(o.seed * 0x9E3779B97F4A7C15ull + 5);
  std::vector<PublishOp> writes;
  for (uint32_t node = 0; node < n; ++node) {
    for (uint32_t f : trace.node_files[node]) {
      writes.push_back(PublishOp{f, node, 0});
    }
  }
  for (size_t i = writes.size(); i > 1; --i) {
    std::swap(writes[i - 1], writes[rng.NextBelow(i)]);
  }
  writes.resize(std::min(writes.size() / 4, Scaled(kWrites, o.scale, 10)));
  std::unordered_set<uint64_t> is_new;
  for (const PublishOp& w : writes) is_new.insert(CopyKey(w.file, w.node));

  const NetSnapshot publish_before = SnapNet(net);
  uint64_t base_copies = 0;
  for (size_t i = 0; i < n; ++i) {
    std::vector<piersearch::FileToPublish> fs;
    for (uint32_t f : trace.node_files[i]) {
      if (!is_new.count(CopyKey(f, static_cast<uint32_t>(i)))) {
        fs.push_back(to_publish(f, i));
      }
    }
    base_copies += fs.size();
    publish(i, std::move(fs));
  }
  for (auto& p : piers) p->FlushPublishQueues();
  setup.publish_s = sw.Lap();
  exec->Run();
  setup.settle_s = sw.Lap();
  AddSetupMetrics(&round, setup);
  const NetSnapshot publish_after = SnapNet(net);
  const double publish_bytes_per_file =
      base_copies ? double(publish_after.total.bytes -
                           publish_before.total.bytes) /
                        double(base_copies)
                  : 0.0;

  AnswerOracle oracle(&trace);
  for (size_t i = 0; i < n; ++i) {
    oracle.MapHost(dht.node(i)->host(), static_cast<uint32_t>(i));
    tracer.SetLayer(dht.node(i)->host(), Layer::kDht);
  }

  // --- Faults: light loss plus one fail-slow node. ------------------------
  sim::FaultPlan faults(o.seed + 7);
  faults.set_message_loss(kMessageLoss);
  faults.AddFailSlow(dht.node(rng.NextBelow(n))->host(), exec->now(),
                     24 * 60 * sim::kMinute, kFailSlowExtra);
  net.set_fault_plan(&faults);

  // --- The open-loop schedule: Poisson searches and publishes. -----------
  const sim::SimTime start = exec->now() + sim::kSecond;
  const double span_s = double(num_queries) / kQueryRate;
  auto arrivals = [&](size_t count) {
    std::vector<sim::SimTime> at(count);
    double t = 0, mean = count ? span_s / double(count) : 0;
    for (size_t i = 0; i < count; ++i) {
      t += -mean * std::log(1.0 - rng.NextDouble());
      at[i] = start + static_cast<sim::SimTime>(t * sim::kSecond);
    }
    return at;
  };
  std::vector<sim::SimTime> query_at = arrivals(num_queries);
  std::vector<sim::SimTime> write_at = arrivals(writes.size());
  for (size_t i = 0; i < writes.size(); ++i) writes[i].at = write_at[i];

  std::vector<QueryRecord> records(num_queries);
  std::vector<bool> exact(num_queries, false);
  std::vector<bool> resolved(num_queries, false);

  const NetSnapshot net_before = SnapNet(net);
  const dht::DhtMetrics dht_before = dht.metrics();
  const pier::PierMetrics pier_before = pier_metrics;
  const uint64_t events_before = exec->events_executed();
  net.ResetLoadWatermarks();
  // Driver events are spans too: the roots each query's spans descend from.
  tracer.set_recording(o.traced);

  for (size_t i = 0; i < writes.size(); ++i) {
    exec->ScheduleAt(sim::kDriverHost, writes[i].at, [&, i]() {
      const PublishOp& w = writes[i];
      publish(w.node, {to_publish(w.file, w.node)});
    });
  }
  for (size_t q = 0; q < num_queries; ++q) {
    const workload::TraceQuery& tq = trace.queries[q % trace.queries.size()];
    QueryRecord& rec = records[q];
    rec.query = &tq;
    rec.issued = query_at[q];
    size_t origin = rng.NextBelow(n);
    double mix = rng.NextDouble();
    piersearch::SearchOptions sopt;
    sopt.max_results = kResultLimit;
    sopt.order_by_posting_size = true;
    rec.limit = kResultLimit;
    if (mix < kJoinShare) {
      sopt.strategy = piersearch::SearchStrategy::kDistributedJoin;
    } else if (mix < kCacheShare) {
      sopt.strategy = piersearch::SearchStrategy::kInvertedCache;
      rec.rule = MatchRule::kInvertedCache;
    } else {
      sopt.strategy = piersearch::SearchStrategy::kDistributedJoin;
      rec.limit = kTopK;
      sopt.plan_rewrite = [](pier::QueryPlan* plan) {
        pier::PlanNode top;
        top.kind = pier::PlanNode::Kind::kTopK;
        top.sort_col = piersearch::kItemFilesize;
        top.n = kTopK;
        top.descending = true;
        top.children.push_back(plan->root);
        plan->nodes.push_back(std::move(top));
        plan->root = static_cast<uint32_t>(plan->nodes.size() - 1);
      };
    }
    exec->ScheduleAt(sim::kDriverHost, rec.issued,
                     [&, q, origin, sopt = std::move(sopt)]() {
      tracer.SetQuery(static_cast<uint32_t>(q + 1));
      Stopwatch call;
      engines[origin]->Search(
          records[q].query->text, sopt,
          [&, q](Status s, std::vector<piersearch::SearchHit> hits,
                 const pier::Completeness& c) {
            QueryRecord& r = records[q];
            for (const auto& h : hits) {
              r.hits.push_back(RawHit{h.filename, h.address, exec->now()});
            }
            r.failed = !s.ok() || !c.exact || c.shed;
            resolved[q] = true;
            exact[q] = s.ok() && c.exact;
          });
      calls.search_call_us.push_back(call.Seconds() * 1e6);
    });
  }
  Stopwatch measure;
  exec->Run();
  round.measure_s = measure.Seconds();
  tracer.set_recording(false);
  net.set_fault_plan(nullptr);
  const uint64_t events = exec->events_executed() - events_before;
  const NetSnapshot net_after = SnapNet(net);
  const dht::DhtMetrics dht_after = dht.metrics();
  const pier::PierMetrics pier_after = pier_metrics;

  // --- Checks and metrics. ------------------------------------------------
  std::vector<std::vector<uint32_t>> holders(trace.files.size());
  for (uint32_t node = 0; node < n; ++node) {
    for (uint32_t f : trace.node_files[node]) holders[f].push_back(node);
  }
  std::unordered_map<uint64_t, sim::SimTime> write_time;
  for (const PublishOp& w : writes) write_time[CopyKey(w.file, w.node)] = w.at;

  QueryTally tally;
  size_t unresolved = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    QueryRecord& rec = records[q];
    if (!resolved[q]) ++unresolved;
    // Required: the base copies matching every term as a keyword. Allowed:
    // any copy the strategy's rule admits, published at set-up or later.
    std::unordered_set<uint64_t> required, allowed;
    for (uint32_t f : oracle.Match(rec.query->terms, rec.rule)) {
      for (uint32_t node : holders[f]) allowed.insert(CopyKey(f, node));
    }
    for (uint32_t f : oracle.Match(rec.query->terms)) {
      for (uint32_t node : holders[f]) {
        uint64_t key = CopyKey(f, node);
        if (!is_new.count(key)) {
          required.insert(key);
          ++rec.truth;
        } else if (write_time[key] < rec.issued) {
          ++rec.truth;
        }
      }
    }
    std::vector<uint64_t> copies = tally.Add(rec, oracle, checks);
    if (exact[q]) {
      std::string why =
          CheckExactAnswer(copies, required, allowed, rec.limit);
      if (!why.empty()) {
        checks->Fail("pier_search query '" + rec.query->text + "': " + why);
      }
    }
  }
  round.ops = round.attempted = num_queries + writes.size();
  calls.files = base_copies + writes.size();
  for (const auto& p : publishers) {
    calls.tuples += p->stats().tuples_published;
    calls.tuple_bytes += p->stats().tuple_bytes;
  }
  const TracingExecutor* tr = o.traced ? &tracer : nullptr;
  tally.Report(&round);
  AddTrafficMetrics(&round, net_before, net_after, round.ops,
                    publish_bytes_per_file);
  AddSimMetrics(&round, events, round.ops, round.measure_s, tr);
  AddNetMetrics(&round, net_before, net_after, net);
  AddGnutellaMetrics(&round, nullptr, nullptr, 0.0,
                     tr ? tr->HandlerSeconds(Layer::kGnutella) : 0.0);
  AddDhtMetrics(&round, &dht_before, &dht_after,
                tr ? tr->HandlerSeconds(Layer::kDht) : 0.0);
  AddPierMetrics(&round, &pier_before, &pier_after, num_queries);
  AddPierSearchMetrics(&round, &calls);
  AddHybridMetrics(&round, nullptr);

  checks->Expect(unresolved == 0, "pier_search: " +
                                     std::to_string(unresolved) +
                                     " searches never called back");
  checks->Expect(pier_after.tuples_dropped_deserialize == 0,
                 "pier_search: stored tuples failed to deserialize");
  checks->Expect(pier_after.hedges_sent > pier_before.hedges_sent,
                 "pier_search: no hedged fetch was sent, so the fail-slow "
                 "path never engaged");
  if (o.scale >= 1.0) {
    checks->Expect(tally.with_results() >= 1000,
                   "pier_search: fewer than 1000 queries got results");
  }
  if (tr && !o.trace_out.empty() &&
      !tr->WriteChromeTrace(o.trace_out, kMaxTraceSpans)) {
    checks->Fail("cannot write trace file " + o.trace_out);
  }
  Seal(&round, tally.answer_digest());
  return round;
}

}  // namespace perfbench
