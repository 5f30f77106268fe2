#include "gnutella/node.h"

#include <algorithm>
#include <cassert>

#include "common/hashing.h"
#include "common/tokenizer.h"

namespace pierstack::gnutella {

uint64_t MakeFileId(const std::string& filename, uint64_t size_bytes,
                    sim::HostId owner) {
  return FileId(filename, size_bytes, owner);
}

GnutellaNode::GnutellaNode(sim::Network* network, Role role,
                           const GnutellaConfig* config,
                           GnutellaMetrics* metrics, uint64_t seed)
    : network_(network),
      role_(role),
      config_(config),
      metrics_(metrics),
      rng_(seed) {
  assert(network != nullptr && config != nullptr && metrics != nullptr);
  host_ = network->AddHost(this);
}

GnutellaNode::~GnutellaNode() = default;

void GnutellaNode::SetSharedFiles(std::vector<std::string> filenames,
                                  std::vector<uint64_t> sizes) {
  index_.RemoveOwner(host_);
  files_.clear();
  files_.reserve(filenames.size());
  for (size_t i = 0; i < filenames.size(); ++i) {
    uint64_t size = i < sizes.size()
                        ? sizes[i]
                        : 1024 * (1 + Fnv1a64(filenames[i]) % 8192);
    SharedFile f;
    f.filename = std::move(filenames[i]);
    f.size_bytes = size;
    f.file_id = MakeFileId(f.filename, f.size_bytes, host_);
    files_.push_back(std::move(f));
  }
  // A node answers queries over its own library regardless of role.
  index_.AddAll(files_, host_);
}

void GnutellaNode::AddUltrapeerNeighbor(sim::HostId neighbor) {
  assert(role_ == Role::kUltrapeer);
  up_neighbors_.push_back(neighbor);
}

void GnutellaNode::ConnectToUltrapeer(sim::HostId ultrapeer) {
  parents_.push_back(ultrapeer);
  RepublishTo(ultrapeer);
}

void GnutellaNode::RepublishTo(sim::HostId ultrapeer) {
  if (config_->leaf_publish == LeafPublishMode::kBloomFilter) {
    // QRP: summarize the library's keywords in a Bloom filter.
    std::unordered_set<std::string> terms;
    for (const auto& f : files_) {
      for (auto& kw : ExtractUniqueKeywords(f.filename)) {
        terms.insert(std::move(kw));
      }
    }
    BloomFilter bloom = BloomFilter::ForItems(
        std::max<size_t>(terms.size(), 8), config_->qrp_fp_rate);
    for (const auto& t : terms) bloom.Insert(t);
    size_t bytes = bloom.ByteSize();
    network_->Send(host_, ultrapeer,
                   sim::Message::Make<LeafBloomBody>(
                       kMsgLeafPublishBloom, "gnutella.publish", bytes,
                       LeafBloomBody{std::move(bloom), files_.size()}));
    return;
  }
  size_t bytes = 0;
  for (const auto& f : files_) bytes += f.filename.size() + 10;
  network_->Send(host_, ultrapeer,
                 sim::Message::Make<LeafPublishBody>(
                     kMsgLeafPublish, "gnutella.publish", bytes,
                     LeafPublishBody{files_}));
}

Guid GnutellaNode::StartQuery(const std::string& text,
                              ResultCallback callback) {
  ++metrics_->queries_started;
  Guid guid = rng_.Next();
  local_queries_[guid] = LocalQuery{std::move(callback), {}};
  QueryRef query = ParseQuery(text);
  if (role_ == Role::kLeaf) {
    assert(!parents_.empty() && "leaf must be attached to an ultrapeer");
    network_->Send(host_, parents_.front(),
                   sim::Message::Make<LeafQueryBody>(
                       kMsgLeafQuery, "gnutella.query", 25 + text.size(),
                       LeafQueryBody{guid, std::move(query)}));
  } else {
    RememberGuid(guid, sim::kInvalidHost);  // never re-process our own flood
    ExecuteQueryAsRoot(guid, query, sim::kInvalidHost);
  }
  return guid;
}

void GnutellaNode::EndQuery(Guid guid) {
  local_queries_.erase(guid);
  auto it = dq_states_.find(guid);
  if (it != dq_states_.end()) {
    network_->executor()->Cancel(it->second.tick);
    dq_states_.erase(it);
  }
}

bool GnutellaNode::QueryActive(Guid guid) const {
  return dq_states_.count(guid) > 0;
}

void GnutellaNode::ExecuteQueryAsRoot(Guid guid, const QueryRef& query,
                                      sim::HostId asker) {
  assert(role_ == Role::kUltrapeer);
  if (query_observer_) {
    query_observer_(guid, query->text,
                    asker == sim::kInvalidHost ? host_ : asker);
  }
  MatchLocally(guid, query, sim::kInvalidHost);
  if (config_->query_mode == QueryMode::kFlood) {
    FloodQuery(guid, config_->flood_ttl, 0, query, sim::kInvalidHost);
  } else {
    BeginDynamicQuery(guid, query);
  }
}

void GnutellaNode::BeginDynamicQuery(Guid guid, const QueryRef& query) {
  // Dynamic querying: probe a few neighbors at TTL 1, then widen.
  DqState state;
  state.query = query;
  state.pending_neighbors = up_neighbors_;
  rng_.Shuffle(&state.pending_neighbors);
  size_t probes = std::min(config_->dynamic.probe_neighbors,
                           state.pending_neighbors.size());
  for (size_t i = 0; i < probes; ++i) {
    SendQueryTo(state.pending_neighbors.back(), guid, query,
                config_->dynamic.probe_ttl);
    state.pending_neighbors.pop_back();
  }
  state.tick = network_->executor()->ScheduleAfter(host_, 
      config_->dynamic.probe_wait, [this, guid]() { DynamicTick(guid); });
  dq_states_[guid] = std::move(state);
}

void GnutellaNode::DynamicTick(Guid guid) {
  auto it = dq_states_.find(guid);
  if (it == dq_states_.end()) return;
  DqState& state = it->second;
  if (state.results >= config_->dynamic.desired_results ||
      state.pending_neighbors.empty()) {
    dq_states_.erase(it);  // query stops widening; hits may still trickle in
    return;
  }
  // LimeWire heuristic, simplified: the fewer the results so far, the
  // deeper the next per-neighbor flood.
  uint8_t ttl;
  if (state.results == 0) {
    ttl = config_->dynamic.max_ttl;
  } else if (state.results < config_->dynamic.desired_results / 2) {
    ttl = std::max<uint8_t>(2, config_->dynamic.max_ttl - 1);
  } else {
    ttl = 1;
  }
  SendQueryTo(state.pending_neighbors.back(), guid, state.query, ttl);
  state.pending_neighbors.pop_back();
  state.tick = network_->executor()->ScheduleAfter(host_, 
      config_->dynamic.per_neighbor_wait,
      [this, guid]() { DynamicTick(guid); });
}

void GnutellaNode::FloodQuery(Guid guid, uint8_t ttl, uint8_t hops,
                              const QueryRef& query, sim::HostId exclude) {
  if (ttl == 0) {
    ++metrics_->ttl_expired;
    return;
  }
  // One body for the whole fan-out; each neighbor's message shares it.
  sim::Message msg = sim::Message::Make<QueryBody>(
      kMsgQuery, "gnutella.query", QueryWireBytes(*query),
      QueryBody{guid, ttl, hops, query});
  for (sim::HostId n : up_neighbors_) {
    if (n == exclude) continue;
    ++metrics_->query_messages;
    network_->Send(host_, n, msg);
  }
}

void GnutellaNode::SendQueryTo(sim::HostId neighbor, Guid guid,
                               const QueryRef& query, uint8_t ttl) {
  ++metrics_->query_messages;
  network_->Send(host_, neighbor,
                 sim::Message::Make<QueryBody>(kMsgQuery, "gnutella.query",
                                               QueryWireBytes(*query),
                                               QueryBody{guid, ttl, 0, query}));
}

void GnutellaNode::MatchLocally(Guid guid, const QueryRef& query,
                                sim::HostId reply_to) {
  const std::vector<std::string>& terms = query->keywords;
  // QRP: forward the query to leaves whose keyword Bloom filter matches
  // every term; they answer for themselves and the hit rides the normal
  // reverse path through us.
  if (!leaf_blooms_.empty() && !terms.empty()) {
    const sim::HostId* origin = guid_routes_.Find(guid);
    sim::HostId origin_host = origin != nullptr ? *origin : sim::kInvalidHost;
    for (const auto& [leaf, bloom] : leaf_blooms_) {
      if (leaf == origin_host) continue;  // don't echo to the asker
      if (!bloom.MayContainAll(terms)) continue;
      ++metrics_->qrp_leaf_forwards;
      network_->Send(host_, leaf,
                     sim::Message::Make<LeafForwardBody>(
                         kMsgLeafForwardQuery, "gnutella.query",
                         25 + query->text.size(),
                         LeafForwardBody{guid, query}));
    }
  }

  auto matches = index_.Match(terms);
  if (matches.empty()) return;
  QueryHitBody hit;
  hit.guid = guid;
  hit.results.reserve(matches.size());
  for (const auto* e : matches) {
    hit.results.push_back(
        QueryResult{e->file_id, e->filename, e->size_bytes, e->owner});
  }
  sim::Message msg = sim::Message::Make<QueryHitBody>(
      kMsgQueryHit, "gnutella.hit", kHitWireBytes, std::move(hit));
  if (reply_to == sim::kInvalidHost) {
    // We are the query root: deliver straight up the local path.
    RouteHit(msg);
  } else {
    ++metrics_->query_hit_messages;
    network_->Send(host_, reply_to, std::move(msg));
  }
}

void GnutellaNode::RouteHit(const sim::Message& msg) {
  const QueryHitBody& hit = msg.as<QueryHitBody>();
  // Count toward an active dynamic query rooted here.
  auto dq = dq_states_.find(hit.guid);
  if (dq != dq_states_.end()) dq->second.results += hit.results.size();

  auto local = local_queries_.find(hit.guid);
  if (local != local_queries_.end()) {
    // Deduplicate replicas of the same result record (a leaf's file can be
    // indexed by several of its ultrapeers) and drop our own files, which
    // can echo back through a secondary parent ultrapeer.
    std::vector<QueryResult> fresh;
    for (const auto& r : hit.results) {
      if (r.owner == host_) continue;
      if (local->second.seen_file_ids.insert(r.file_id).second) {
        fresh.push_back(r);
      }
    }
    if (hit_observer_) {
      hit_observer_(hit.guid, fresh, local->second.seen_file_ids.size());
    }
    if (!fresh.empty()) {
      metrics_->results_delivered += fresh.size();
      local->second.callback(fresh);
    }
    return;
  }

  const sim::HostId* route = guid_routes_.Find(hit.guid);
  if (route == nullptr || *route == sim::kInvalidHost) {
    return;  // route evicted or unknown: drop the hit
  }
  if (hit_observer_) hit_observer_(hit.guid, hit.results, 0);
  ++metrics_->query_hit_messages;
  network_->Send(host_, *route, msg);  // same body, one hop further back
}

bool GnutellaNode::RememberGuid(Guid guid, sim::HostId from) {
  if (!guid_routes_.TryEmplace(guid, from).second) return false;
  // FIFO eviction: the ring holds the live keys in arrival order, so the
  // slot at its head is the oldest GUID once the ring is full.
  if (guid_fifo_.size() < std::max<size_t>(1, config_->guid_route_capacity)) {
    guid_fifo_.push_back(guid);
    return true;
  }
  guid_routes_.Erase(guid_fifo_[guid_fifo_head_]);
  guid_fifo_[guid_fifo_head_] = guid;
  guid_fifo_head_ = (guid_fifo_head_ + 1) % guid_fifo_.size();
  return true;
}

void GnutellaNode::BrowseHost(sim::HostId target, BrowseCallback callback) {
  uint64_t req_id = next_req_id_++;
  pending_browses_[req_id] = std::move(callback);
  if (!network_->Send(host_, target,
                      sim::Message::Make<BrowseReqBody>(
                          kMsgBrowseReq, "gnutella.browse", 16,
                          BrowseReqBody{req_id}))) {
    auto cb = std::move(pending_browses_[req_id]);
    pending_browses_.erase(req_id);
    cb(Status::Unavailable("browse target down"), {});
  }
}

void GnutellaNode::CrawlPeer(sim::HostId target, CrawlCallback callback) {
  uint64_t req_id = next_req_id_++;
  pending_crawls_[req_id] = std::move(callback);
  if (!network_->Send(host_, target,
                      sim::Message::Make<CrawlRequestBody>(
                          kMsgCrawlReq, "gnutella.crawl", 16,
                          CrawlRequestBody{req_id}))) {
    auto cb = std::move(pending_crawls_[req_id]);
    pending_crawls_.erase(req_id);
    cb(Status::Unavailable("crawl target down"), {});
  }
}

void GnutellaNode::HandleMessage(sim::HostId from, const sim::Message& msg) {
  switch (msg.type) {
    case kMsgQuery: {
      const auto& q = msg.as<QueryBody>();
      if (!RememberGuid(q.guid, from)) {
        ++metrics_->duplicate_queries;
        return;
      }
      if (query_observer_) query_observer_(q.guid, q.query->text, from);
      MatchLocally(q.guid, q.query, from);
      if (q.ttl > 1) {
        FloodQuery(q.guid, static_cast<uint8_t>(q.ttl - 1),
                   static_cast<uint8_t>(q.hops + 1), q.query, from);
      } else {
        ++metrics_->ttl_expired;
      }
      return;
    }
    case kMsgQueryHit:
      RouteHit(msg);
      return;
    case kMsgLeafQuery: {
      // A leaf asks us to run a query on its behalf; hits route back to it.
      const auto& q = msg.as<LeafQueryBody>();
      if (!RememberGuid(q.guid, from)) return;
      ExecuteQueryAsRoot(q.guid, q.query, from);
      return;
    }
    case kMsgLeafPublish: {
      const auto& pub = msg.as<LeafPublishBody>();
      if (std::find(leaf_hosts_.begin(), leaf_hosts_.end(), from) ==
          leaf_hosts_.end()) {
        leaf_hosts_.push_back(from);
      } else {
        index_.RemoveOwner(from);  // re-publish replaces the old list
      }
      index_.AddAll(pub.files, from);
      return;
    }
    case kMsgLeafPublishBloom: {
      const auto& pub = msg.as<LeafBloomBody>();
      if (std::find(leaf_hosts_.begin(), leaf_hosts_.end(), from) ==
          leaf_hosts_.end()) {
        leaf_hosts_.push_back(from);
      }
      leaf_blooms_.insert_or_assign(from, pub.keywords);
      return;
    }
    case kMsgLeafForwardQuery: {
      // Our ultrapeer forwarded a query our Bloom filter matched: answer
      // from the local library; an empty match is a Bloom false positive.
      const auto& fwd = msg.as<LeafForwardBody>();
      auto matches = index_.Match(fwd.query->keywords);
      if (matches.empty()) {
        ++metrics_->qrp_false_positives;
        return;
      }
      QueryHitBody hit;
      hit.guid = fwd.guid;
      hit.results.reserve(matches.size());
      for (const auto* e : matches) {
        hit.results.push_back(
            QueryResult{e->file_id, e->filename, e->size_bytes, e->owner});
      }
      ++metrics_->query_hit_messages;
      network_->Send(host_, from,
                     sim::Message::Make<QueryHitBody>(
                         kMsgQueryHit, "gnutella.hit", kHitWireBytes,
                         std::move(hit)));
      return;
    }
    case kMsgBrowseReq: {
      const auto& req = msg.as<BrowseReqBody>();
      size_t bytes = 16;
      for (const auto& f : files_) bytes += f.filename.size() + 10;
      network_->Send(host_, from,
                     sim::Message::Make<BrowseReplyBody>(
                         kMsgBrowseReply, "gnutella.browse", bytes,
                         BrowseReplyBody{req.req_id, files_}));
      return;
    }
    case kMsgBrowseReply: {
      const auto& reply = msg.as<BrowseReplyBody>();
      auto it = pending_browses_.find(reply.req_id);
      if (it == pending_browses_.end()) return;
      BrowseCallback cb = std::move(it->second);
      pending_browses_.erase(it);
      cb(Status::OK(), reply.files);
      return;
    }
    case kMsgCrawlReq: {
      const auto& req = msg.as<CrawlRequestBody>();
      CrawlInfo info;
      info.host = host_;
      info.role = role_;
      info.ultrapeer_neighbors = up_neighbors_;
      info.leaf_count = leaf_hosts_.size();
      network_->Send(host_, from,
                     sim::Message::Make<CrawlReplyBody>(
                         kMsgCrawlReply, "gnutella.crawl",
                         16 + 6 * info.ultrapeer_neighbors.size(),
                         CrawlReplyBody{req.req_id, std::move(info)}));
      return;
    }
    case kMsgCrawlReply: {
      const auto& reply = msg.as<CrawlReplyBody>();
      auto it = pending_crawls_.find(reply.req_id);
      if (it == pending_crawls_.end()) return;
      CrawlCallback cb = std::move(it->second);
      pending_crawls_.erase(it);
      cb(Status::OK(), reply.info);
      return;
    }
    default:
      return;
  }
}

}  // namespace pierstack::gnutella
