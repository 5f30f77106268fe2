#include "metrics_spec.h"

#include <cstdio>

namespace perfbench {

const std::vector<MetricSpec>& AllEndToEndSpec() {
  static const std::vector<MetricSpec> spec = {
      {"setup_s", "s", "lower"},
      {"ops_per_s", "ops/s", "higher"},
      {"peak_rss_mb", "MB", "lower"},
      {"recall", "fraction", "higher"},
      {"empty_frac", "fraction", "lower"},
      {"first_result_ms_p50", "ms", "lower"},
      {"first_result_ms_p99", "ms", "lower"},
      {"msgs_per_op", "msgs", "lower"},
      {"bytes_per_op", "B", "lower"},
      {"publish_bytes_per_file", "B", "lower"},
      {"failed_frac", "fraction", "lower"},
  };
  return spec;
}

// The JSON line carries the end-to-end metrics that every workload has and
// that are never 0. empty_frac and failed_frac can be 0, and
// publish_bytes_per_file is n/a on gnutella_flood, so those three are
// printed in the table only.
const std::vector<MetricSpec>& EndToEndSpec() {
  static const std::vector<MetricSpec> spec = {
      {"setup_s", "s", "lower"},
      {"ops_per_s", "ops/s", "higher"},
      {"peak_rss_mb", "MB", "lower"},
      {"recall", "fraction", "higher"},
      {"first_result_ms_p50", "ms", "lower"},
      {"first_result_ms_p99", "ms", "lower"},
      {"msgs_per_op", "msgs", "lower"},
      {"bytes_per_op", "B", "lower"},
  };
  return spec;
}

const std::vector<MetricSpec>& PerLayerSpec() {
  static const std::vector<MetricSpec> spec = {
      {"sim.events", "count", "lower"},
      {"sim.events_per_op", "events/op", "lower"},
      {"sim.events_per_s", "1/s", "higher"},
      {"sim.core_self_s", "s", "lower"},
      {"sim.core_self_frac", "fraction", "lower"},
      {"sim.schedules", "count", "lower"},
      {"sim.cancels", "count", "lower"},
      {"sim.cancel_frac", "fraction", "lower"},
      {"sim.pending_peak", "count", "lower"},
      {"net.messages", "count", "lower"},
      {"net.bytes", "B", "lower"},
      {"net.msgs.gnutella.query", "count", "lower"},
      {"net.msgs.gnutella.hit", "count", "lower"},
      {"net.msgs.dht.route", "count", "lower"},
      {"net.msgs.dht.reply", "count", "lower"},
      {"net.msgs.dht.hint", "count", "lower"},
      {"net.msgs.dht.replica", "count", "lower"},
      {"net.msgs.pier.answer", "count", "lower"},
      {"net.msgs.pier.credit", "count", "lower"},
      {"net.dropped", "count", "lower"},
      {"net.refused", "count", "lower"},
      {"net.inflight_peak_bytes", "B", "lower"},
      {"setup.trace_s", "s", "lower"},
      {"setup.topology_s", "s", "lower"},
      {"setup.dht_s", "s", "lower"},
      {"setup.publish_s", "s", "lower"},
      {"setup.settle_s", "s", "lower"},
      {"gnutella.handler_s", "s", "lower"},
      {"gnutella.start_query_us", "us", "lower"},
      {"gnutella.query_messages", "count", "lower"},
      {"gnutella.query_hit_messages", "count", "lower"},
      {"gnutella.dup_frac", "fraction", "lower"},
      {"gnutella.ttl_expired", "count", "lower"},
      {"gnutella.results_delivered", "count", "higher"},
      {"dht.handler_s", "s", "lower"},
      {"dht.routes_delivered", "count", "lower"},
      {"dht.mean_hops", "hops", "lower"},
      {"dht.route_cache_hit_frac", "fraction", "higher"},
      {"dht.route_cache_stale", "count", "lower"},
      {"dht.congestion_detours", "count", "lower"},
      {"dht.get_retries", "count", "lower"},
      {"dht.hedge_redirects", "count", "lower"},
      {"pier.plans_executed", "count", "lower"},
      {"pier.posting_entries_per_query", "entries/query", "lower"},
      {"pier.join_stage_messages", "count", "lower"},
      {"pier.multi_fetches", "count", "lower"},
      {"pier.tuples_per_publish_msg", "tuples/msg", "higher"},
      {"pier.adaptive_flushes", "count", "lower"},
      {"pier.credits_stalled", "count", "lower"},
      {"pier.stage_failovers", "count", "lower"},
      {"pier.hedges_sent", "count", "lower"},
      {"pier.hedge_win_frac", "fraction", "higher"},
      {"pier.plans_shed", "count", "lower"},
      {"pier.partial_results", "count", "lower"},
      {"pier.tuples_dropped_deserialize", "count", "lower"},
      {"piersearch.search_call_us_p50", "us", "lower"},
      {"piersearch.search_call_us_p99", "us", "lower"},
      {"piersearch.publish_call_us_per_file", "us", "lower"},
      {"piersearch.tuples_per_file", "tuples", "lower"},
      {"piersearch.tuple_bytes_per_file", "B", "lower"},
      {"piersearch.ic_substring_hits", "count", "lower"},
      {"hybrid.query_call_us", "us", "lower"},
      {"hybrid.gnutella_answered_frac", "fraction", "higher"},
      {"hybrid.reissue_frac", "fraction", "lower"},
      {"hybrid.dht_answer_frac", "fraction", "higher"},
      {"hybrid.dht_partial", "count", "lower"},
      {"hybrid.qrs_published_per_query", "files/query", "lower"},
      {"driver.handler_s", "s", "lower"},
      {"trace.spans", "count", "lower"},
      {"trace.overhead_frac", "fraction", "lower"},
  };
  return spec;
}

bool IsEndToEnd(const std::string& name) {
  for (const MetricSpec& m : AllEndToEndSpec()) {
    if (name == m.name) return true;
  }
  return false;
}

const char* BetterOf(const std::string& name) {
  for (const MetricSpec& m : AllEndToEndSpec()) {
    if (name == m.name) return m.better;
  }
  return "";
}

int PrintMetricSpec() {
  auto print = [](const char* key, const std::vector<MetricSpec>& list) {
    std::printf("\"%s\": [", key);
    for (size_t i = 0; i < list.size(); ++i) {
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}",
                  i ? ", " : "", list[i].name, list[i].unit, list[i].better);
    }
    std::printf("]");
  };
  std::printf("{");
  print("end_to_end", EndToEndSpec());
  std::printf(", ");
  print("per_layer", PerLayerSpec());
  std::printf("}\n");
  return 0;
}

}  // namespace perfbench
