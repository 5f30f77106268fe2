#include "gnutella/index.h"

#include <algorithm>
#include <memory>

#include "common/hashing.h"
#include "common/tokenizer.h"

namespace pierstack::gnutella {

QueryRef ParseQuery(std::string text) {
  auto q = std::make_shared<ParsedQuery>();
  q->keywords = ExtractKeywords(text);
  q->text = std::move(text);
  return q;
}

const KeywordIndex::Posting* KeywordIndex::Find(
    const std::string& term) const {
  const uint32_t* p = by_term_.FindIf(
      Fnv1a64(term), [&](uint32_t i) { return postings_[i].term == term; });
  return p == nullptr ? nullptr : &postings_[*p];
}

void KeywordIndex::Add(const SharedFile& file, sim::HostId owner) {
  uint32_t idx = static_cast<uint32_t>(entries_.size());
  entries_.push_back(Entry{file.file_id, file.filename, file.size_bytes,
                           owner});
  ++live_entries_;
  for (auto& term : ExtractUniqueKeywords(file.filename)) {
    uint64_t h = Fnv1a64(term);
    const uint32_t* p = by_term_.FindIf(
        h, [&](uint32_t i) { return postings_[i].term == term; });
    uint32_t at = p != nullptr ? *p : static_cast<uint32_t>(postings_.size());
    if (p == nullptr) {
      by_term_.Insert(h, at);
      postings_.push_back(Posting{std::move(term), {}});
    }
    postings_[at].entries.push_back(idx);
  }
}

void KeywordIndex::AddAll(const std::vector<SharedFile>& files,
                          sim::HostId owner) {
  for (const auto& f : files) Add(f, owner);
}

void KeywordIndex::RemoveOwner(sim::HostId owner) {
  for (auto& e : entries_) {
    if (e.owner == owner) {
      e.owner = sim::kInvalidHost;
      --live_entries_;
    }
  }
}

std::vector<const KeywordIndex::Entry*> KeywordIndex::Match(
    const std::vector<std::string>& keywords) const {
  std::vector<const Entry*> out;
  if (keywords.empty()) return out;
  std::vector<const std::vector<uint32_t>*> lists;
  lists.reserve(keywords.size());
  for (const auto& term : keywords) {
    const Posting* p = Find(term);
    if (p == nullptr) return out;  // an absent term empties the conjunction
    lists.push_back(&p->entries);
  }
  // Intersect from the shortest posting list (the paper's smaller-posting-
  // lists-first optimization applies locally too). Lists are ascending.
  std::sort(lists.begin(), lists.end(),
            [](const std::vector<uint32_t>* a, const std::vector<uint32_t>* b) {
              return a->size() < b->size();
            });
  const std::vector<uint32_t>* result = lists[0];
  std::vector<uint32_t> candidates, next;
  for (size_t t = 1; t < lists.size() && !result->empty(); ++t) {
    next.clear();
    std::set_intersection(result->begin(), result->end(), lists[t]->begin(),
                          lists[t]->end(), std::back_inserter(next));
    candidates.swap(next);
    result = &candidates;
  }
  // Tombstones are filtered last, over the (short) intersection.
  out.reserve(result->size());
  for (uint32_t idx : *result) {
    if (Live(idx)) out.push_back(&entries_[idx]);
  }
  return out;
}

std::vector<const KeywordIndex::Entry*> KeywordIndex::MatchText(
    const std::string& query_text) const {
  return Match(ExtractKeywords(query_text));
}

size_t KeywordIndex::PostingListSize(const std::string& term) const {
  const Posting* p = Find(term);
  return p == nullptr ? 0 : p->entries.size();
}

std::vector<const KeywordIndex::Entry*> KeywordIndex::AllEntries() const {
  std::vector<const Entry*> out;
  out.reserve(live_entries_);
  for (const auto& e : entries_) {
    if (e.owner != sim::kInvalidHost) out.push_back(&e);
  }
  return out;
}

}  // namespace pierstack::gnutella
