// hybrid_qrs: the Section 7 hybrid deployment at full deployment.
//
// Set-up: 4000 trace-loaded Gnutella nodes under dynamic querying; every
// ultrapeer (800) is a HybridUltrapeer on one shared Bamboo DHT, and each
// publishes the rare files (at most kRareReplicas copies network-wide) of
// itself and the leaves it is primary parent of. Load: leaf queries arrive
// open loop (seeded Poisson, simulated time) at random hybrid ultrapeers.
// The proxies snoop results and QRS-publish rare ones, so reads drive
// writes; queries still empty after the 30 s timeout reissue through
// PIERSearch. It is the only workload that runs `hybrid`, dynamic querying
// and long-lived timers.
#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "common/rng.h"
#include "dht/builder.h"
#include "gnutella/topology.h"
#include "hybrid/hybrid_ultrapeer.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

using namespace pierstack;

namespace {

constexpr size_t kNodes = 4000;
/// One node in five is an ultrapeer, and every ultrapeer is hybrid: with
/// a fixed handful of hybrid ultrapeers in a network this size the DHT
/// fallback answers nothing.
constexpr size_t kUltrapeerShare = 5;
constexpr size_t kQueries = 3000;
/// Query arrivals per simulated second (Poisson).
constexpr double kQueryRate = 10.0;
/// Files with at most this many copies are published at set-up.
constexpr uint32_t kRareReplicas = 2;
/// Results a query is credited for at most: the dynamic-query target.
constexpr size_t kResultLimit = 150;

HybridTotals Sum(
    const std::vector<std::unique_ptr<hybrid::HybridUltrapeer>>& hybrids) {
  HybridTotals t;
  for (const auto& h : hybrids) {
    const hybrid::HybridStats& s = h->stats();
    t.queries += s.hybrid_queries;
    t.gnutella_answered += s.gnutella_answered;
    t.reissued += s.dht_reissued;
    t.dht_answered += s.dht_answered;
    t.dht_partial += s.dht_partial;
    t.qrs_published += s.rare_results_published;
  }
  return t;
}

}  // namespace

Round RunHybridQrs(const Options& o, Checks* checks) {
  const size_t nodes = Scaled(kNodes, o.scale, 100);
  const size_t ups = nodes / kUltrapeerShare;
  const size_t num_queries = Scaled(kQueries, o.scale, 60);
  Round round;
  SetupTimes setup;
  Stopwatch sw;

  workload::WorkloadConfig wc;
  wc.num_nodes = nodes;
  wc.num_distinct_files = nodes * 3 / 2;
  // A light replica tail keeps a few very popular files from swinging the
  // numbers with the seed.
  wc.max_replicas = nodes / 32;
  // Queries are drawn with replacement from a pool twice their number:
  // some repeat (a rare query asked again after QRS published its
  // results), most are fresh.
  wc.num_queries = 2 * num_queries;
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
  gnutella::TopologyConfig tc;
  tc.num_ultrapeers = ups;
  tc.num_leaves = nodes - ups;
  tc.protocol.ultrapeer_degree = 16;
  tc.protocol.query_mode = gnutella::QueryMode::kDynamic;
  tc.protocol.dynamic.desired_results = kResultLimit;
  // Each widening round covers ~16 ultrapeers, so rare items are often
  // out of reach, as in the real network (the sec7 bench's setting).
  tc.protocol.dynamic.max_ttl = 2;
  tc.protocol.dynamic.probe_ttl = 2;
  tc.protocol.dynamic.probe_neighbors = 6;
  tc.seed = o.seed + 1;
  gnutella::GnutellaNetwork gnet(&net, tc);
  for (size_t i = 0; i < nodes; ++i) {
    auto* node = gnet.node(i);
    node->SetSharedFiles(trace.FilenamesOfNode(i));
    if (node->role() == gnutella::Role::kLeaf) {
      for (sim::HostId up : node->parent_ultrapeers()) node->RepublishTo(up);
    }
  }
  setup.topology_s = sw.Lap();

  dht::DhtOptions dopt;
  dopt.overlay = dht::OverlayKind::kBamboo;
  dopt.routing_policy = dht::RoutingPolicyKind::kCongestionAware;
  dht::DhtDeployment dht(&net, ups, dopt, o.seed + 3);
  pier::PierMetrics pier_metrics;
  hybrid::HybridConfig hc;
  hc.gnutella_timeout = 30 * sim::kSecond;
  hc.qrs_threshold = 20;
  hc.publish.inverted = true;
  hc.search.strategy = piersearch::SearchStrategy::kDistributedJoin;
  hc.search.order_by_posting_size = true;
  std::vector<std::unique_ptr<pier::PierNode>> piers;
  std::vector<std::unique_ptr<hybrid::HybridUltrapeer>> hybrids;
  for (size_t i = 0; i < ups; ++i) {
    piers.push_back(
        std::make_unique<pier::PierNode>(dht.node(i), &pier_metrics));
    hybrids.push_back(std::make_unique<hybrid::HybridUltrapeer>(
        gnet.ultrapeer(i), piers.back().get(), hc));
  }
  setup.dht_s = sw.Lap();

  // Leaf libraries reach their ultrapeers by protocol messages.
  exec->Run();
  setup.settle_s = sw.Lap();

  AnswerOracle oracle(&trace);
  std::unordered_map<std::string, uint32_t> replicas_of;
  for (const auto& f : trace.files) replicas_of[f.filename] = f.replicas;
  for (size_t i = 0; i < nodes; ++i) {
    oracle.MapHost(gnet.node(i)->host(), static_cast<uint32_t>(i));
    tracer.SetLayer(gnet.node(i)->host(), Layer::kGnutella);
  }
  for (size_t i = 0; i < ups; ++i) {
    tracer.SetLayer(dht.node(i)->host(), Layer::kDht);
  }

  // --- Base publish: rare files, each copy by exactly one ultrapeer (its
  // own, or its leaf's primary parent).
  const NetSnapshot publish_before = SnapNet(net);
  uint64_t base_files = 0;
  for (size_t i = 0; i < ups; ++i) {
    sim::HostId self = gnet.ultrapeer(i)->host();
    base_files += hybrids[i]->PublishLocalFiles(
        [&](const gnutella::KeywordIndex::Entry& e) {
          if (replicas_of[e.filename] > kRareReplicas) return false;
          if (e.owner == self) return true;
          const auto* owner = gnet.by_host(e.owner);
          return owner != nullptr && !owner->parent_ultrapeers().empty() &&
                 owner->parent_ultrapeers().front() == self;
        });
  }
  for (auto& p : piers) p->FlushPublishQueues();
  double publish_call_s = sw.Lap();
  exec->Run();
  setup.publish_s = publish_call_s + sw.Lap();
  AddSetupMetrics(&round, setup);
  const NetSnapshot publish_after = SnapNet(net);
  const double publish_bytes_per_file =
      base_files ? double(publish_after.total.bytes -
                          publish_before.total.bytes) /
                       double(base_files)
                 : 0.0;

  // --- Open-loop leaf queries at random hybrid ultrapeers. ----------------
  Rng rng(o.seed * 0x9E3779B97F4A7C15ull + 9);
  std::vector<QueryRecord> records(num_queries);
  std::vector<bool> done(num_queries, false);
  const NetSnapshot net_before = SnapNet(net);
  const gnutella::GnutellaMetrics g_before = gnet.metrics();
  const dht::DhtMetrics dht_before = dht.metrics();
  const pier::PierMetrics pier_before = pier_metrics;
  const HybridTotals h_before = Sum(hybrids);
  const uint64_t events_before = exec->events_executed();
  net.ResetLoadWatermarks();
  // Driver events are spans too: the roots each query's spans descend from.
  tracer.set_recording(o.traced);

  double query_call_s = 0;
  double t = 0;
  const sim::SimTime start = exec->now() + sim::kSecond;
  for (size_t q = 0; q < num_queries; ++q) {
    t += -std::log(1.0 - rng.NextDouble()) / kQueryRate;
    QueryRecord& rec = records[q];
    rec.query = &trace.queries[rng.NextBelow(trace.queries.size())];
    rec.issued = start + static_cast<sim::SimTime>(t * sim::kSecond);
    rec.truth = rec.query->total_results;
    rec.limit = kResultLimit;
    size_t up = rng.NextBelow(ups);
    exec->ScheduleAt(sim::kDriverHost, rec.issued, [&, q, up]() {
      tracer.SetQuery(static_cast<uint32_t>(q + 1));
      Stopwatch call;
      hybrids[up]->Query(
          records[q].query->text,
          [&, q](const hybrid::HybridHit& h) {
            records[q].hits.push_back(RawHit{h.filename, h.address,
                                             h.arrival});
          },
          [&, q]() { done[q] = true; });
      query_call_s += call.Seconds();
    });
  }
  Stopwatch measure;
  exec->Run();
  round.measure_s = measure.Seconds();
  tracer.set_recording(false);
  const uint64_t events = exec->events_executed() - events_before;
  const NetSnapshot net_after = SnapNet(net);
  const gnutella::GnutellaMetrics g_after = gnet.metrics();
  const dht::DhtMetrics dht_after = dht.metrics();
  const pier::PierMetrics pier_after = pier_metrics;
  HybridTotals h = Sum(hybrids);
  h.queries -= h_before.queries;
  h.gnutella_answered -= h_before.gnutella_answered;
  h.reissued -= h_before.reissued;
  h.dht_answered -= h_before.dht_answered;
  h.dht_partial -= h_before.dht_partial;
  h.qrs_published -= h_before.qrs_published;
  h.query_call_s = query_call_s;

  // --- Checks and metrics. ------------------------------------------------
  QueryTally tally;
  size_t unfinished = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    tally.Add(records[q], oracle, checks);
    if (!done[q]) ++unfinished;
  }
  // A reissue that settled with an inexact label is a failed query.
  tally.AddFailed(h.dht_partial);
  checks->Expect(unfinished == 0,
                 "hybrid_qrs: " + std::to_string(unfinished) +
                     " queries never settled");
  round.ops = round.attempted = num_queries;
  const TracingExecutor* tr = o.traced ? &tracer : nullptr;
  tally.Report(&round);
  AddTrafficMetrics(&round, net_before, net_after, round.ops,
                    publish_bytes_per_file);
  AddSimMetrics(&round, events, round.ops, round.measure_s, tr);
  AddNetMetrics(&round, net_before, net_after, net);
  AddGnutellaMetrics(&round, &g_before, &g_after, 0.0,
                     tr ? tr->HandlerSeconds(Layer::kGnutella) : 0.0);
  AddDhtMetrics(&round, &dht_before, &dht_after,
                tr ? tr->HandlerSeconds(Layer::kDht) : 0.0);
  AddPierMetrics(&round, &pier_before, &pier_after, h.reissued);
  AddPierSearchMetrics(&round, nullptr);
  AddHybridMetrics(&round, &h);

  checks->Expect(pier_after.tuples_dropped_deserialize == 0,
                 "hybrid_qrs: stored tuples failed to deserialize");
  checks->Expect(h.dht_answered > 0,
                 "hybrid_qrs: no reissued query was answered by the DHT, so "
                 "the hybrid fallback never engaged");
  if (o.scale >= 1.0) {
    checks->Expect(tally.with_results() >= 1000,
                   "hybrid_qrs: fewer than 1000 queries got results");
  }
  if (tr && !o.trace_out.empty() &&
      !tr->WriteChromeTrace(o.trace_out, kMaxTraceSpans)) {
    checks->Fail("cannot write trace file " + o.trace_out);
  }
  Seal(&round, tally.answer_digest());
  return round;
}

}  // namespace perfbench
