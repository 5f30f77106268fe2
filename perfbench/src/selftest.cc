// The benchmark's self-tests (`perfbench --selftest`):
//  * a tiny-scale smoke run of all three workloads — untraced twice and
//    traced once, all three fingerprints equal, every reported metric
//    present with the unit metrics_spec declares;
//  * the answer oracle rejects planted wrong hits and wrong exact answers;
//  * a changed deterministic counter changes the fingerprint, while wall
//    times and trace-only numbers do not.
#include <cstdio>
#include <string>
#include <unordered_set>

#include "metrics_spec.h"
#include "oracle.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kSmokeScale = 0.1;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("  FAIL: %s\n", what.c_str());
  }
}

void SmokeTest(const char* name, Round (*fn)(const Options&, Checks*)) {
  std::printf("smoke: %s\n", name);
  Options o;
  o.seed = 7;
  o.scale = kSmokeScale;
  Checks checks;
  Round first = fn(o, &checks);
  Round again = fn(o, &checks);
  o.traced = true;
  Round traced = fn(o, &checks);
  for (const auto& s : checks.samples()) {
    Expect(false, std::string(name) + ": " + s);
  }
  Expect(first.ops > 0 && first.measure_s > 0, "no operations measured");
  Expect(first.fingerprint == again.fingerprint,
         "two untraced rounds on one seed differ");
  Expect(first.fingerprint == traced.fingerprint,
         "the traced round differs from the untraced one");
  Expect(FindMetric(traced, "trace.spans")->value > 0, "the tracer saw no spans");
  for (const MetricSpec& spec : EndToEndSpec()) {
    std::string n = spec.name;
    if (n == "setup_s" || n == "ops_per_s" || n == "peak_rss_mb") continue;
    const Metric* m = FindMetric(first, n);
    Expect(m != nullptr && m->unit == spec.unit && m->present,
           "end-to-end metric " + n + " missing or mis-united");
  }
  for (const MetricSpec& spec : PerLayerSpec()) {
    std::string n = spec.name;
    if (n == "trace.overhead_frac") continue;
    const Metric* m = FindMetric(traced, n);
    Expect(m != nullptr && m->unit == spec.unit,
           "per-layer metric " + n + " missing or mis-united");
  }
}

void OracleTest() {
  std::printf("oracle: rejects planted wrong answers\n");
  pierstack::workload::WorkloadConfig wc;
  wc.num_nodes = 40;
  wc.num_distinct_files = 120;
  wc.vocab_size = 600;
  wc.num_queries = 40;
  wc.seed = 3;
  pierstack::workload::Trace trace = pierstack::workload::GenerateTrace(wc);
  AnswerOracle oracle(&trace);
  // Host ids are offset from node indices, as in a real network.
  for (uint32_t node = 0; node < wc.num_nodes; ++node) {
    oracle.MapHost(node + 100, node);
  }
  const pierstack::workload::TraceQuery* query = nullptr;
  for (const auto& q : trace.queries) {
    if (!q.matches.empty() && q.matches.size() < trace.files.size()) {
      query = &q;
      break;
    }
  }
  Expect(query != nullptr, "trace has no selective query");
  if (query == nullptr) return;
  uint32_t file = query->matches.front();
  uint32_t holder = UINT32_MAX, stranger = UINT32_MAX;
  for (uint32_t node = 0; node < wc.num_nodes; ++node) {
    bool has = false;
    for (uint32_t f : trace.node_files[node]) has = has || f == file;
    if (has && holder == UINT32_MAX) holder = node;
    if (!has && stranger == UINT32_MAX) stranger = node;
  }
  std::unordered_set<uint32_t> matching(query->matches.begin(),
                                        query->matches.end());
  uint32_t non_match = 0;
  while (matching.count(non_match)) ++non_match;

  uint64_t copy = 0;
  std::string why;
  const auto& terms = query->terms;
  const auto& name = trace.files[file].filename;
  Expect(oracle.CheckHit(terms, name, holder + 100, MatchRule::kKeywords,
                          &copy, &why),
         "a correct hit was rejected: " + why);
  Expect(copy == CopyKey(file, holder), "wrong copy key for a correct hit");
  Expect(!oracle.CheckHit(terms, trace.files[non_match].filename,
                          holder + 100, MatchRule::kKeywords,
                          &copy, &why),
         "a hit lacking a query term was accepted");
  Expect(!oracle.CheckHit(terms, name, stranger + 100,
                          MatchRule::kKeywords, &copy, &why),
         "a hit naming a host that does not share the file was accepted");
  Expect(!oracle.CheckHit(terms, "no such file.mp3", holder + 100,
                          MatchRule::kKeywords, &copy, &why),
         "a hit outside the trace was accepted");

  std::unordered_set<uint64_t> truth = {CopyKey(file, holder),
                                        CopyKey(non_match, holder)};
  std::vector<uint64_t> full(truth.begin(), truth.end());
  Expect(CheckExactAnswer(full, truth, truth, 10).empty(),
         "a full exact answer was rejected");
  Expect(!CheckExactAnswer({CopyKey(file, holder)}, truth, truth, 10).empty(),
         "an exact answer missing a copy was accepted");
  Expect(CheckExactAnswer({CopyKey(file, holder)}, truth, truth, 1).empty(),
         "an exact answer cut at its limit was rejected");
  std::vector<uint64_t> foreign = full;
  foreign.push_back(CopyKey(file, stranger));
  Expect(!CheckExactAnswer(foreign, truth, truth, 10).empty(),
         "an exact answer holding an unpublished copy was accepted");
}

void FingerprintTest() {
  std::printf("fingerprint: tracks deterministic counters only\n");
  Round r;
  r.Add("net.messages", 1000, "count", Kind::kCount);
  r.Add("first_result_ms_p50", 12.5, "ms", Kind::kSim);
  r.Add("sim.events_per_s", 3e5, "1/s", Kind::kWall);
  r.AddTraced("sim.cancels", 4, "count", Kind::kCount);
  const uint64_t base = DigestMetrics(r.metrics);
  Round counter = r;
  counter.metrics[0].value += 1;
  Expect(DigestMetrics(counter.metrics) != base,
         "a changed counter left the fingerprint unchanged");
  Round sim = r;
  sim.metrics[1].value = 12.501;
  Expect(DigestMetrics(sim.metrics) != base,
         "a changed simulated time left the fingerprint unchanged");
  Round wall = r;
  wall.metrics[2].value = 4e5;
  wall.metrics[3].value = 9;
  Expect(DigestMetrics(wall.metrics) == base,
         "a wall time or trace-only count changed the fingerprint");
}

}  // namespace

int RunSelfTests() {
  SmokeTest("gnutella_flood", RunGnutellaFlood);
  SmokeTest("pier_search", RunPierSearch);
  SmokeTest("hybrid_qrs", RunHybridQrs);
  OracleTest();
  FingerprintTest();
  std::printf("selftest: %s (%d failure(s))\n", failures ? "FAILED" : "ok",
              failures);
  return failures ? 1 : 0;
}

}  // namespace perfbench
