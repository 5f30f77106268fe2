// gnutella_flood: the Fig. 4–6 measurement replay at quarter scale.
//
// Set-up: a trace-loaded Gnutella network of 825 ultrapeers (degree 24)
// and 4175 leaves in flood mode with TTL 2. Load: a closed loop — 30
// monitor ultrapeers take turns flooding one trace query, and the executor
// drains before the next query starts. It carries the most messages per
// unit of work, so it isolates the event core, Network::Send with its
// per-tag metrics, and Gnutella flooding and index matching.
#include <algorithm>
#include <memory>

#include "gnutella/topology.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

using namespace pierstack;

namespace {

constexpr size_t kUltrapeers = 825;
constexpr size_t kLeaves = 4175;
constexpr size_t kQueries = 2000;
constexpr size_t kMonitors = 30;
/// Results a query is credited for at most (recall's truth cap).
constexpr size_t kResultLimit = 200;

}  // namespace

Round RunGnutellaFlood(const Options& o, Checks* checks) {
  const size_t ups = Scaled(kUltrapeers, o.scale, 8);
  const size_t leaves = Scaled(kLeaves, o.scale, 40);
  const size_t num_queries = Scaled(kQueries, o.scale, 60);
  const size_t monitors = std::min(kMonitors, ups);
  Round round;
  SetupTimes setup;
  Stopwatch sw;

  // The measurement-trace shape of the figure benches: ~4.2 files per
  // node, and a query mix skewed toward popular content.
  workload::WorkloadConfig wc;
  wc.num_nodes = ups + leaves;
  wc.num_distinct_files = std::max<size_t>(100, wc.num_nodes * 42 / 31);
  wc.vocab_size = std::max<size_t>(600, wc.num_distinct_files / 3);
  wc.num_queries = num_queries;
  wc.query_file_bias = 1.3;
  wc.query_popular_terms = 0.17;
  wc.query_from_file = 0.80;
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
  tc.num_leaves = leaves;
  tc.protocol.ultrapeer_degree = 24;
  tc.protocol.flood_ttl = 2;
  tc.protocol.query_mode = gnutella::QueryMode::kFlood;
  tc.seed = o.seed + 1;
  gnutella::GnutellaNetwork gnet(&net, tc);
  setup.topology_s = sw.Lap();

  for (size_t i = 0; i < gnet.size(); ++i) {
    auto* node = gnet.node(i);
    node->SetSharedFiles(trace.FilenamesOfNode(i));
    if (node->role() == gnutella::Role::kLeaf) {
      for (sim::HostId up : node->parent_ultrapeers()) node->RepublishTo(up);
    }
  }
  setup.publish_s = sw.Lap();
  exec->Run();
  setup.settle_s = sw.Lap();
  AddSetupMetrics(&round, setup);

  AnswerOracle oracle(&trace);
  for (size_t i = 0; i < gnet.size(); ++i) {
    oracle.MapHost(gnet.node(i)->host(), static_cast<uint32_t>(i));
    tracer.SetLayer(gnet.node(i)->host(), Layer::kGnutella);
  }

  // --- Measured phase: one flood at a time, drained in between. ----------
  std::vector<QueryRecord> records(num_queries);
  const NetSnapshot net_before = SnapNet(net);
  const gnutella::GnutellaMetrics g_before = gnet.metrics();
  const uint64_t events_before = exec->events_executed();
  net.ResetLoadWatermarks();
  tracer.set_recording(o.traced);
  double start_query_s = 0;
  Stopwatch measure;
  for (size_t q = 0; q < num_queries; ++q) {
    const workload::TraceQuery& tq = trace.queries[q % trace.queries.size()];
    QueryRecord& rec = records[q];
    rec.query = &tq;
    rec.issued = exec->now();
    rec.truth = tq.total_results;
    rec.limit = kResultLimit;
    gnutella::GnutellaNode* monitor = gnet.ultrapeer(q % monitors);
    tracer.SetQuery(static_cast<uint32_t>(q + 1));
    Stopwatch call;
    gnutella::Guid guid = monitor->StartQuery(
        tq.text, [&rec, exec](const std::vector<gnutella::QueryResult>& rs) {
          for (const auto& r : rs) {
            rec.hits.push_back(RawHit{r.filename, r.owner, exec->now()});
          }
        });
    start_query_s += call.Seconds();
    tracer.SetQuery(0);
    exec->Run();
    monitor->EndQuery(guid);
  }
  round.measure_s = measure.Seconds();
  tracer.set_recording(false);
  const uint64_t events = exec->events_executed() - events_before;
  const NetSnapshot net_after = SnapNet(net);
  const gnutella::GnutellaMetrics g_after = gnet.metrics();

  // --- Checks and metrics (outside the timed phase). ----------------------
  QueryTally tally;
  for (const QueryRecord& rec : records) tally.Add(rec, oracle, checks);
  round.ops = round.attempted = num_queries;
  const TracingExecutor* tr = o.traced ? &tracer : nullptr;
  tally.Report(&round);
  AddTrafficMetrics(&round, net_before, net_after, round.ops, -1.0);
  AddSimMetrics(&round, events, round.ops, round.measure_s, tr);
  AddNetMetrics(&round, net_before, net_after, net);
  AddGnutellaMetrics(&round, &g_before, &g_after,
                     start_query_s * 1e6 / double(num_queries),
                     tr ? tr->HandlerSeconds(Layer::kGnutella) : 0.0);
  AddDhtMetrics(&round, nullptr, nullptr,
                tr ? tr->HandlerSeconds(Layer::kDht) : 0.0);
  AddPierMetrics(&round, nullptr, nullptr, 0);
  AddPierSearchMetrics(&round, nullptr);
  AddHybridMetrics(&round, nullptr);

  checks->Expect(g_after.duplicate_queries > g_before.duplicate_queries,
                 "gnutella_flood: no duplicate query was suppressed, so the "
                 "flood never overlapped itself");
  if (o.scale >= 1.0) {
    checks->Expect(tally.with_results() >= 1000,
                   "gnutella_flood: fewer than 1000 queries got results");
  }
  if (tr && !o.trace_out.empty() &&
      !tr->WriteChromeTrace(o.trace_out, kMaxTraceSpans)) {
    checks->Fail("cannot write trace file " + o.trace_out);
  }
  Seal(&round, tally.answer_digest());
  return round;
}

}  // namespace perfbench
