// AnswerOracle: checks every answer the benchmark receives against a
// centralized index of the generated trace.
//
// A hit is correct when its filename is a trace file that matches the
// query under the strategy's match rule and the host it names really
// shares that file in the trace. The rule is workload::TraceIndex's
// conjunctive keyword match for Gnutella and PIER's distributed join; the
// InvertedCache plan documents a looser one (see MatchRule), and hits that
// only it admits are counted separately. An answer that PIER labels exact
// must also equal its truth set, capped at the limit.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/executor.h"
#include "workload/trace.h"

namespace perfbench {

/// One (file, node) copy of the trace, packed.
inline uint64_t CopyKey(uint32_t file, uint32_t node) {
  return (static_cast<uint64_t>(file) << 32) | node;
}
inline uint32_t CopyFile(uint64_t key) {
  return static_cast<uint32_t>(key >> 32);
}

/// How a search strategy matches query terms against a file.
enum class MatchRule {
  /// Every term is a keyword of the file (TraceIndex's conjunctive match):
  /// Gnutella flooding and PIER's distributed join.
  kKeywords,
  /// InvertedCache (Figure 3): one term is scanned as a keyword, the rest
  /// are pushed down as case-insensitive substring filters over the
  /// filename, so a term that is only part of a longer keyword matches.
  kInvertedCache,
};

class AnswerOracle {
 public:
  explicit AnswerOracle(const pierstack::workload::Trace* trace);

  /// Declares that `host` is trace node `node` (hits name hosts).
  void MapHost(pierstack::sim::HostId host, uint32_t node);

  /// Validates one hit under `rule`. On success stores the hit's copy key
  /// and returns true; otherwise stores the reason.
  bool CheckHit(const std::vector<std::string>& terms,
                const std::string& filename, pierstack::sim::HostId host,
                MatchRule rule, uint64_t* copy, std::string* why) const;

  /// Distinct trace files matching the terms under `rule`.
  std::vector<uint32_t> Match(const std::vector<std::string>& terms,
                              MatchRule rule = MatchRule::kKeywords) const;

  /// True when every term is a keyword of trace file `file`.
  bool HasAllKeywords(uint32_t file,
                      const std::vector<std::string>& terms) const;

  const pierstack::workload::Trace& trace() const { return *trace_; }

 private:
  const pierstack::workload::Trace* trace_;
  pierstack::workload::TraceIndex index_;
  std::unordered_map<std::string, uint32_t> file_by_name_;
  std::unordered_set<uint64_t> shared_;  ///< CopyKeys placed by the trace.
  std::vector<uint32_t> node_of_host_;
};

/// Checks an exact-labeled answer (copy keys) against its truth: nothing
/// outside `allowed`, no duplicates, and — unless the limit cut the
/// answer — every `required` copy present; when the limit can cut, the
/// answer must be full. Returns "" when the answer is right.
std::string CheckExactAnswer(const std::vector<uint64_t>& answer,
                             const std::unordered_set<uint64_t>& required,
                             const std::unordered_set<uint64_t>& allowed,
                             size_t limit);

}  // namespace perfbench
