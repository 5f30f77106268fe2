// The benchmark's three workloads. Each call runs one round: set-up from
// the seed, one fixed block of operations, every answer checked.
//
//  * gnutella_flood — the Fig. 4–6 measurement replay: monitor
//    ultrapeers flood trace queries one at a time (closed loop) over a
//    5000-node Gnutella network. DHT, PIER and hybrid stay idle.
//  * pier_search — PIERSearch on 1024 Bamboo nodes (replication 3):
//    seeded Poisson searches and new-file publishes (open loop in
//    simulated time) under light message loss and one fail-slow owner.
//    Gnutella stays idle.
//  * hybrid_qrs — the Section 7 deployment: 4000 Gnutella nodes under
//    dynamic querying, every ultrapeer a HybridUltrapeer on one Bamboo DHT;
//    leaf queries arrive open loop, rare results are QRS-published, and
//    queries empty after the 30 s timeout reissue through PIERSearch.
#pragma once

#include <string>

#include "bench.h"

namespace perfbench {

Round RunGnutellaFlood(const Options& options, Checks* checks);
Round RunPierSearch(const Options& options, Checks* checks);
Round RunHybridQrs(const Options& options, Checks* checks);

/// Spans written to a Chrome trace at most (the rest stay in memory only).
constexpr size_t kMaxTraceSpans = 200000;

}  // namespace perfbench
