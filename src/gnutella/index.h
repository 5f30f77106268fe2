// KeywordIndex: the per-ultrapeer inverted index over shared filenames.
//
// An ultrapeer answers queries against its own files plus the file lists
// its leaves published. Matching is conjunctive keyword match: a file
// matches iff every query keyword appears among the file's keywords
// (tokenized and stop-word-filtered identically on both sides).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_table.h"
#include "gnutella/types.h"

namespace pierstack::gnutella {

/// Tokenizes a query once, where it enters the network: its keywords are
/// the text's terms minus stop words and one-letter terms.
QueryRef ParseQuery(std::string text);

/// Append-oriented inverted index of shared files.
class KeywordIndex {
 public:
  struct Entry {
    uint64_t file_id;
    std::string filename;
    uint64_t size_bytes;
    sim::HostId owner;
  };

  /// Indexes one file for `owner`.
  void Add(const SharedFile& file, sim::HostId owner);

  /// Indexes a whole file list (e.g. a leaf's published library).
  void AddAll(const std::vector<SharedFile>& files, sim::HostId owner);

  /// Removes every entry owned by `owner` (leaf disconnect). O(index).
  void RemoveOwner(sim::HostId owner);

  /// All entries matching every keyword, in ascending entry order.
  /// Keywords must already be tokenized and filtered as ParseQuery does
  /// (ParsedQuery::keywords, or ExtractKeywords): a stop word is simply
  /// absent from the index. An empty list matches nothing — Gnutella drops
  /// empty queries.
  std::vector<const Entry*> Match(
      const std::vector<std::string>& keywords) const;

  /// Convenience: tokenizes `query_text` then matches.
  std::vector<const Entry*> MatchText(const std::string& query_text) const;

  /// Number of posting-list entries that a lookup of `term` would scan —
  /// the local analogue of the paper's posting-list length.
  size_t PostingListSize(const std::string& term) const;

  size_t num_entries() const { return live_entries_; }

  /// All live entries (diagnostics / BrowseHost).
  std::vector<const Entry*> AllEntries() const;

 private:
  struct Posting {
    std::string term;
    std::vector<uint32_t> entries;  ///< Ascending (append order).
  };

  /// The posting list of `term`, or null when no file has it.
  const Posting* Find(const std::string& term) const;

  std::vector<Entry> entries_;  // tombstoned via owner==kInvalidHost
  std::vector<Posting> postings_;
  FlatHashTable<uint32_t> by_term_;  ///< Term hash -> postings_ index.
  size_t live_entries_ = 0;

  bool Live(uint32_t idx) const {
    return entries_[idx].owner != sim::kInvalidHost;
  }
};

}  // namespace pierstack::gnutella
