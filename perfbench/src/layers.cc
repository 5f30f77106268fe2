#include "layers.h"

#include <algorithm>
#include <unordered_set>

namespace perfbench {

namespace {

/// The message tags reported one by one (the rest only count in totals).
const char* const kMainTags[] = {
    "gnutella.query", "gnutella.hit", "dht.route",   "dht.reply",
    "dht.hint",       "dht.replica",  "pier.answer", "pier.credit",
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

uint64_t TagMessages(const NetSnapshot& s, const std::string& tag) {
  auto it = s.by_tag.find(tag);
  return it == s.by_tag.end() ? 0 : it->second.messages;
}

}  // namespace

NetSnapshot SnapNet(const pierstack::sim::Network& net) {
  const auto& m = net.metrics();
  NetSnapshot s;
  s.total = m.total;
  s.by_tag = m.by_tag;
  s.dropped = m.dropped_messages;
  s.refused = m.refused_sends;
  return s;
}

void AddSetupMetrics(Round* round, const SetupTimes& t) {
  round->setup_s = t.total();
  round->Add("setup.trace_s", t.trace_s, "s", Kind::kWall);
  round->Add("setup.topology_s", t.topology_s, "s", Kind::kWall);
  round->Add("setup.dht_s", t.dht_s, "s", Kind::kWall);
  round->Add("setup.publish_s", t.publish_s, "s", Kind::kWall);
  round->Add("setup.settle_s", t.settle_s, "s", Kind::kWall);
}

void AddSimMetrics(Round* round, uint64_t events, uint64_t ops,
                   double measure_s, const TracingExecutor* tracer) {
  round->Add("sim.events", double(events), "count", Kind::kCount);
  round->Add("sim.events_per_op", Ratio(double(events), double(ops)),
             "events/op", Kind::kCount);
  round->Add("sim.events_per_s", Ratio(double(events), measure_s), "1/s",
             Kind::kWall);
  double core = tracer ? tracer->CoreSelfSeconds() : 0.0;
  double run = tracer ? tracer->run_wall_s() : 0.0;
  round->AddTraced("sim.core_self_s", core, "s", Kind::kWall);
  round->AddTraced("sim.core_self_frac", Ratio(core, run), "fraction",
                   Kind::kWall);
  double schedules = tracer ? double(tracer->schedules()) : 0.0;
  double cancels = tracer ? double(tracer->cancels()) : 0.0;
  round->AddTraced("sim.schedules", schedules, "count", Kind::kCount);
  round->AddTraced("sim.cancels", cancels, "count", Kind::kCount);
  round->AddTraced("sim.cancel_frac", Ratio(cancels, schedules), "fraction",
                   Kind::kCount);
  round->AddTraced("sim.pending_peak",
                   tracer ? double(tracer->pending_peak()) : 0.0, "count",
                   Kind::kCount);
  round->AddTraced("trace.spans", tracer ? double(tracer->spans().size()) : 0,
                   "count", Kind::kCount);
  round->AddTraced("driver.handler_s",
                   tracer ? tracer->HandlerSeconds(Layer::kDriver) : 0.0, "s",
                   Kind::kWall);
}

void AddNetMetrics(Round* round, const NetSnapshot& before,
                   const NetSnapshot& after,
                   const pierstack::sim::Network& net) {
  round->Add("net.messages",
             double(after.total.messages - before.total.messages), "count",
             Kind::kCount);
  round->Add("net.bytes", double(after.total.bytes - before.total.bytes), "B",
             Kind::kCount);
  for (const char* tag : kMainTags) {
    round->Add(std::string("net.msgs.") + tag,
               double(TagMessages(after, tag) - TagMessages(before, tag)),
               "count", Kind::kCount);
  }
  round->Add("net.dropped", double(after.dropped - before.dropped), "count",
             Kind::kCount);
  round->Add("net.refused", double(after.refused - before.refused), "count",
             Kind::kCount);
  size_t peak = 0;
  for (pierstack::sim::HostId h = 0; h < net.host_count(); ++h) {
    peak = std::max(peak, net.LoadOf(h).peak_in_flight_bytes);
  }
  round->Add("net.inflight_peak_bytes", double(peak), "B", Kind::kCount);
}

void AddGnutellaMetrics(Round* round,
                        const pierstack::gnutella::GnutellaMetrics* before,
                        const pierstack::gnutella::GnutellaMetrics* after,
                        double start_query_us, double handler_s) {
  pierstack::gnutella::GnutellaMetrics zero;
  if (after == nullptr) before = after = &zero;
  double queries = double(after->query_messages - before->query_messages);
  round->AddTraced("gnutella.handler_s", handler_s, "s", Kind::kWall);
  round->Add("gnutella.start_query_us", start_query_us, "us", Kind::kWall);
  round->Add("gnutella.query_messages", queries, "count", Kind::kCount);
  round->Add("gnutella.query_hit_messages",
             double(after->query_hit_messages - before->query_hit_messages),
             "count", Kind::kCount);
  round->Add("gnutella.dup_frac",
             Ratio(double(after->duplicate_queries -
                          before->duplicate_queries),
                   queries),
             "fraction", Kind::kCount);
  round->Add("gnutella.ttl_expired",
             double(after->ttl_expired - before->ttl_expired), "count",
             Kind::kCount);
  round->Add("gnutella.results_delivered",
             double(after->results_delivered - before->results_delivered),
             "count", Kind::kCount);
}

void AddDhtMetrics(Round* round, const pierstack::dht::DhtMetrics* before,
                   const pierstack::dht::DhtMetrics* after,
                   double handler_s) {
  pierstack::dht::DhtMetrics zero;
  if (after == nullptr) before = after = &zero;
  auto delta = [&](const pierstack::RelaxedCounter& a,
                   const pierstack::RelaxedCounter& b) {
    return double(a.value() - b.value());
  };
  double delivered = delta(after->routes_delivered, before->routes_delivered);
  double hits = delta(after->route_cache_hits, before->route_cache_hits);
  double misses = delta(after->route_cache_misses, before->route_cache_misses);
  round->AddTraced("dht.handler_s", handler_s, "s", Kind::kWall);
  round->Add("dht.routes_delivered", delivered, "count", Kind::kCount);
  round->Add("dht.mean_hops",
             Ratio(delta(after->total_hops, before->total_hops), delivered),
             "hops", Kind::kCount);
  round->Add("dht.route_cache_hit_frac", Ratio(hits, hits + misses),
             "fraction", Kind::kCount);
  round->Add("dht.route_cache_stale",
             delta(after->route_cache_stale, before->route_cache_stale),
             "count", Kind::kCount);
  round->Add("dht.congestion_detours",
             delta(after->congestion_detours, before->congestion_detours),
             "count", Kind::kCount);
  round->Add("dht.get_retries",
             delta(after->get_retries, before->get_retries), "count",
             Kind::kCount);
  round->Add("dht.hedge_redirects",
             delta(after->hedge_redirects, before->hedge_redirects), "count",
             Kind::kCount);
}

void AddPierMetrics(Round* round, const pierstack::pier::PierMetrics* before,
                    const pierstack::pier::PierMetrics* after,
                    uint64_t queries) {
  pierstack::pier::PierMetrics zero;
  if (after == nullptr) before = after = &zero;
  auto delta = [&](const pierstack::RelaxedCounter& a,
                   const pierstack::RelaxedCounter& b) {
    return double(a.value() - b.value());
  };
  double hedges = delta(after->hedges_sent, before->hedges_sent);
  double publish_msgs =
      delta(after->publish_messages, before->publish_messages);
  round->Add("pier.plans_executed",
             delta(after->plans_executed, before->plans_executed), "count",
             Kind::kCount);
  round->Add("pier.posting_entries_per_query",
             Ratio(delta(after->posting_entries_shipped,
                         before->posting_entries_shipped),
                   double(queries)),
             "entries/query", Kind::kCount);
  round->Add("pier.join_stage_messages",
             delta(after->join_stage_messages, before->join_stage_messages),
             "count", Kind::kCount);
  round->Add("pier.multi_fetches",
             delta(after->multi_fetches, before->multi_fetches), "count",
             Kind::kCount);
  round->Add("pier.tuples_per_publish_msg",
             Ratio(delta(after->tuples_published, before->tuples_published),
                   publish_msgs),
             "tuples/msg", Kind::kCount);
  round->Add("pier.adaptive_flushes",
             delta(after->adaptive_flushes, before->adaptive_flushes),
             "count", Kind::kCount);
  round->Add("pier.credits_stalled",
             delta(after->credits_stalled, before->credits_stalled), "count",
             Kind::kCount);
  round->Add("pier.stage_failovers",
             delta(after->stage_failovers, before->stage_failovers), "count",
             Kind::kCount);
  round->Add("pier.hedges_sent", hedges, "count", Kind::kCount);
  round->Add("pier.hedge_win_frac",
             Ratio(delta(after->hedges_won, before->hedges_won), hedges),
             "fraction", Kind::kCount);
  round->Add("pier.plans_shed", delta(after->plans_shed, before->plans_shed),
             "count", Kind::kCount);
  round->Add("pier.partial_results",
             delta(after->partial_results, before->partial_results), "count",
             Kind::kCount);
  round->Add("pier.tuples_dropped_deserialize",
             double(after->tuples_dropped_deserialize.value()), "count",
             Kind::kCount);
}

void AddPierSearchMetrics(Round* round, const PierSearchCalls* calls) {
  PierSearchCalls zero;
  if (calls == nullptr) calls = &zero;
  double files = double(calls->files);
  round->Add("piersearch.search_call_us_p50",
             Percentile(calls->search_call_us, 50), "us", Kind::kWall);
  round->Add("piersearch.search_call_us_p99",
             Percentile(calls->search_call_us, 99), "us", Kind::kWall);
  round->Add("piersearch.publish_call_us_per_file",
             Ratio(calls->publish_call_s * 1e6, files), "us", Kind::kWall);
  round->Add("piersearch.tuples_per_file", Ratio(double(calls->tuples), files),
             "tuples", Kind::kCount);
  round->Add("piersearch.tuple_bytes_per_file",
             Ratio(double(calls->tuple_bytes), files), "B", Kind::kCount);
}

void AddHybridMetrics(Round* round, const HybridTotals* totals) {
  HybridTotals zero;
  if (totals == nullptr) totals = &zero;
  double queries = double(totals->queries);
  double reissued = double(totals->reissued);
  round->Add("hybrid.query_call_us",
             Ratio(totals->query_call_s * 1e6, queries), "us", Kind::kWall);
  round->Add("hybrid.gnutella_answered_frac",
             Ratio(double(totals->gnutella_answered), queries), "fraction",
             Kind::kCount);
  round->Add("hybrid.reissue_frac", Ratio(reissued, queries), "fraction",
             Kind::kCount);
  round->Add("hybrid.dht_answer_frac",
             Ratio(double(totals->dht_answered), reissued), "fraction",
             Kind::kCount);
  round->Add("hybrid.dht_partial", double(totals->dht_partial), "count",
             Kind::kCount);
  round->Add("hybrid.qrs_published_per_query",
             Ratio(double(totals->qrs_published), queries), "files/query",
             Kind::kCount);
}

std::vector<uint64_t> QueryTally::Add(const QueryRecord& q,
                                      const AnswerOracle& oracle,
                                      Checks* checks) {
  ++issued_;
  if (q.failed) ++failed_;
  std::vector<uint64_t> copies;
  std::unordered_set<uint64_t> seen;
  size_t correct = 0;
  bool any = false;
  pierstack::sim::SimTime first = 0;
  for (const RawHit& hit : q.hits) {
    uint64_t copy = 0;
    std::string why;
    if (!oracle.CheckHit(q.query->terms, hit.filename, hit.host, q.rule,
                         &copy, &why)) {
      checks->Fail("query '" + q.query->text + "': " + why);
      continue;
    }
    if (!seen.insert(copy).second) continue;
    copies.push_back(copy);
    if (!oracle.HasAllKeywords(CopyFile(copy), q.query->terms)) {
      ++substring_only_;
      continue;
    }
    ++correct;
    if (!any || hit.arrival < first) first = hit.arrival;
    any = true;
  }
  if (any) {
    ++with_results_;
    first_ms_.push_back(double(first - q.issued) / 1000.0);
  }
  if (q.truth > 0) {
    ++with_truth_;
    if (!any) ++empty_;
    double cap = double(std::min<uint64_t>(q.truth, q.limit));
    recall_sum_ += std::min(1.0, double(correct) / cap);
  }
  std::vector<uint64_t> sorted = copies;
  std::sort(sorted.begin(), sorted.end());
  answers_.Add(uint64_t(sorted.size()));
  for (uint64_t c : sorted) answers_.Add(c);
  answers_.Add(any ? uint64_t(first - q.issued) : ~uint64_t{0});
  answers_.Add(uint64_t(q.failed));
  return copies;
}

void QueryTally::Report(Round* round) const {
  round->Add("recall", Ratio(recall_sum_, double(with_truth_)), "fraction",
             Kind::kCount);
  round->Add("empty_frac", Ratio(double(empty_), double(with_truth_)),
             "fraction", Kind::kCount);
  round->Add("first_result_ms_p50", Percentile(first_ms_, 50), "ms",
             Kind::kSim);
  round->Add("first_result_ms_p99", Percentile(first_ms_, 99), "ms",
             Kind::kSim);
  round->Add("failed_frac", Ratio(double(failed_), double(issued_)),
             "fraction", Kind::kCount);
  round->Add("queries_with_results", double(with_results_), "count",
             Kind::kCount);
  round->Add("piersearch.ic_substring_hits", double(substring_only_), "count",
             Kind::kCount);
  round->failed = failed_;
}

void AddTrafficMetrics(Round* round, const NetSnapshot& before,
                       const NetSnapshot& after, uint64_t ops,
                       double publish_bytes_per_file) {
  round->Add("msgs_per_op",
             Ratio(double(after.total.messages - before.total.messages),
                   double(ops)),
             "msgs", Kind::kCount);
  round->Add("bytes_per_op",
             Ratio(double(after.total.bytes - before.total.bytes), double(ops)),
             "B", Kind::kCount);
  if (publish_bytes_per_file < 0) {
    round->AddNa("publish_bytes_per_file", "B", Kind::kCount);
  } else {
    round->Add("publish_bytes_per_file", publish_bytes_per_file, "B",
               Kind::kCount);
  }
}

void Seal(Round* round, uint64_t answer_digest) {
  Fingerprint fp;
  fp.Add(answer_digest);
  fp.Add(DigestMetrics(round->metrics));
  round->fingerprint = fp.value();
}

}  // namespace perfbench
