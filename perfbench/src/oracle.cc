#include "oracle.h"

#include <algorithm>

namespace perfbench {

using pierstack::sim::HostId;

AnswerOracle::AnswerOracle(const pierstack::workload::Trace* trace)
    : trace_(trace), index_(trace->files) {
  for (const auto& f : trace->files) file_by_name_[f.filename] = f.id;
  for (uint32_t node = 0; node < trace->node_files.size(); ++node) {
    for (uint32_t file : trace->node_files[node]) {
      shared_.insert(CopyKey(file, node));
    }
  }
}

void AnswerOracle::MapHost(HostId host, uint32_t node) {
  if (node_of_host_.size() <= host) {
    node_of_host_.resize(host + 1, UINT32_MAX);
  }
  node_of_host_[host] = node;
}

namespace {

/// The InvertedCache rule: some term is a keyword and every term occurs
/// in the filename (filenames and terms are lower-case).
bool MatchesInvertedCache(const pierstack::workload::TraceFile& f,
                          const std::vector<std::string>& terms) {
  bool keyword = false;
  for (const auto& term : terms) {
    if (f.filename.find(term) == std::string::npos) return false;
    keyword = keyword || std::find(f.keywords.begin(), f.keywords.end(),
                                   term) != f.keywords.end();
  }
  return keyword;
}

}  // namespace

bool AnswerOracle::HasAllKeywords(uint32_t file,
                                  const std::vector<std::string>& terms) const {
  const auto& keywords = trace_->files[file].keywords;
  for (const auto& term : terms) {
    if (std::find(keywords.begin(), keywords.end(), term) == keywords.end()) {
      return false;
    }
  }
  return !terms.empty();
}

std::vector<uint32_t> AnswerOracle::Match(const std::vector<std::string>& terms,
                                          MatchRule rule) const {
  if (rule == MatchRule::kKeywords) return index_.Match(terms);
  std::vector<uint32_t> out;
  for (const auto& term : terms) {
    for (uint32_t f : index_.Match({term})) {
      if (MatchesInvertedCache(trace_->files[f], terms)) out.push_back(f);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool AnswerOracle::CheckHit(const std::vector<std::string>& terms,
                            const std::string& filename, HostId host,
                            MatchRule rule, uint64_t* copy,
                            std::string* why) const {
  auto it = file_by_name_.find(filename);
  if (it == file_by_name_.end()) {
    *why = "hit '" + filename + "' is not a file of the trace";
    return false;
  }
  bool matches = rule == MatchRule::kKeywords
                     ? HasAllKeywords(it->second, terms)
                     : MatchesInvertedCache(trace_->files[it->second], terms);
  if (!matches) {
    *why = "hit '" + filename + "' does not match the query terms";
    return false;
  }
  uint32_t node =
      host < node_of_host_.size() ? node_of_host_[host] : UINT32_MAX;
  if (node == UINT32_MAX || shared_.count(CopyKey(it->second, node)) == 0) {
    *why = "hit '" + filename + "' names host " + std::to_string(host) +
           ", which does not share it";
    return false;
  }
  *copy = CopyKey(it->second, node);
  return true;
}

std::string CheckExactAnswer(const std::vector<uint64_t>& answer,
                             const std::unordered_set<uint64_t>& required,
                             const std::unordered_set<uint64_t>& allowed,
                             size_t limit) {
  std::unordered_set<uint64_t> seen;
  for (uint64_t key : answer) {
    if (allowed.count(key) == 0) return "answer holds an unpublished copy";
    if (!seen.insert(key).second) return "answer holds a duplicate copy";
  }
  if (answer.size() > limit) return "answer exceeds its limit";
  if (allowed.size() <= limit) {
    for (uint64_t key : required) {
      if (seen.count(key) == 0) return "exact answer misses a published copy";
    }
  } else if (answer.size() < std::min(limit, required.size())) {
    return "exact answer is short of its limit";
  }
  return "";
}

}  // namespace perfbench
