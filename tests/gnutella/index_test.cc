#include "gnutella/index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/tokenizer.h"

namespace pierstack::gnutella {
namespace {

SharedFile File(const std::string& name, uint64_t size = 1000) {
  SharedFile f;
  f.filename = name;
  f.size_bytes = size;
  f.file_id = MakeFileId(name, size, 1);
  return f;
}

TEST(KeywordIndexTest, SingleTermMatch) {
  KeywordIndex idx;
  idx.Add(File("madonna like a prayer.mp3"), 1);
  idx.Add(File("beatles help.mp3"), 2);
  auto m = idx.MatchText("madonna");
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0]->owner, 1u);
}

TEST(KeywordIndexTest, ConjunctiveMatchRequiresAllTerms) {
  KeywordIndex idx;
  idx.Add(File("madonna like a prayer.mp3"), 1);
  idx.Add(File("madonna vogue.mp3"), 2);
  EXPECT_EQ(idx.MatchText("madonna prayer").size(), 1u);
  EXPECT_EQ(idx.MatchText("madonna").size(), 2u);
  EXPECT_TRUE(idx.MatchText("madonna help").empty());
}

TEST(KeywordIndexTest, StopWordsIgnoredInQueries) {
  KeywordIndex idx;
  idx.Add(File("the matrix.avi"), 1);
  // "the" and "avi" are stop words on both sides.
  EXPECT_EQ(idx.MatchText("the matrix").size(), 1u);
  EXPECT_EQ(idx.MatchText("matrix avi").size(), 1u);
}

TEST(KeywordIndexTest, AllStopWordQueryMatchesNothing) {
  KeywordIndex idx;
  idx.Add(File("the matrix.avi"), 1);
  EXPECT_TRUE(idx.MatchText("the mp3").empty());
  EXPECT_TRUE(idx.MatchText("").empty());
}

TEST(KeywordIndexTest, MultipleOwnersSameFilename) {
  KeywordIndex idx;
  idx.Add(File("dark side of the moon.mp3"), 1);
  idx.Add(File("dark side of the moon.mp3"), 2);
  EXPECT_EQ(idx.MatchText("moon dark").size(), 2u);
}

TEST(KeywordIndexTest, RemoveOwnerHidesEntries) {
  KeywordIndex idx;
  idx.Add(File("abba dancing queen.mp3"), 1);
  idx.Add(File("abba waterloo.mp3"), 2);
  EXPECT_EQ(idx.num_entries(), 2u);
  idx.RemoveOwner(1);
  EXPECT_EQ(idx.num_entries(), 1u);
  auto m = idx.MatchText("abba");
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0]->owner, 2u);
}

TEST(KeywordIndexTest, PostingListSizes) {
  KeywordIndex idx;
  idx.Add(File("abba dancing queen.mp3"), 1);
  idx.Add(File("abba waterloo.mp3"), 1);
  EXPECT_EQ(idx.PostingListSize("abba"), 2u);
  EXPECT_EQ(idx.PostingListSize("waterloo"), 1u);
  EXPECT_EQ(idx.PostingListSize("nothing"), 0u);
}

TEST(KeywordIndexTest, MatchAgreesWithSubstringRuleOnTokenQueries) {
  // For whole-token queries over these names, the index's conjunctive
  // keyword match must agree with the Gnutella substring rule.
  std::vector<std::string> names{
      "silver hammer midnight.mp3", "silver moon.mp3",
      "hammer time club.mp3", "midnight silver hammer live.mp3"};
  KeywordIndex idx;
  for (size_t i = 0; i < names.size(); ++i) {
    idx.Add(File(names[i]), static_cast<sim::HostId>(i));
  }
  std::vector<std::vector<std::string>> queries{
      {"silver"}, {"silver", "hammer"}, {"hammer", "club"}, {"moon"},
      {"silver", "hammer", "midnight"}};
  for (const auto& q : queries) {
    auto matched = idx.Match(q);
    size_t expected = 0;
    for (const auto& n : names) {
      if (FilenameMatchesQuery(n, q)) ++expected;
    }
    EXPECT_EQ(matched.size(), expected);
  }

  // Then against a brute-force keyword match over a library large enough
  // to grow the term table several times, with tombstoned owners: a file
  // matches iff its owner is live and every query keyword is among its
  // keywords.
  struct Doc {
    std::string name;
    sim::HostId owner;
    std::vector<std::string> keywords = ExtractKeywords(name);
  };
  std::vector<Doc> docs;
  for (size_t i = 0; i < names.size(); ++i) {
    docs.push_back({names[i], static_cast<sim::HostId>(i)});
  }
  constexpr sim::HostId kGone = 90;  // every "ghost" file is its
  for (const char* n : {"ghost town.mp3", "silver ghost.mp3"}) {
    docs.push_back({n, kGone});
    idx.Add(File(n), kGone);
  }
  Rng rng(7);
  constexpr size_t kVocab = 700;
  auto word = [](uint64_t w) { return "w" + std::to_string(w); };
  for (size_t i = 0; i < 4000; ++i) {
    std::string name;
    for (uint64_t n = 1 + rng.NextBelow(4); n > 0; --n) {
      name += word(rng.NextBelow(kVocab)) + " ";
    }
    name += "song.mp3";
    docs.push_back({name, static_cast<sim::HostId>(100 + i % 50)});
    idx.Add(File(name), docs.back().owner);
  }
  idx.RemoveOwner(kGone);
  idx.RemoveOwner(117);
  auto live = [&](const Doc& d) { return d.owner != kGone && d.owner != 117; };

  queries = {
      {"silver", "silver"},            // a repeated term
      {"hammer", "hammer", "club"},
      {"ghost"},                       // every posting is tombstoned
      {"ghost", "town"},
      {"silver", "ghost"},
      {"silver", "absent", "hammer"},  // one absent term in the middle
      {"absent"},
      {"the", "mp3"},                  // stop words only: no keywords
  };
  for (size_t i = 0; i < 400; ++i) {
    std::vector<std::string> q;
    for (uint64_t n = 1 + rng.NextBelow(3); n > 0; --n) {
      // Some terms fall outside the vocabulary, so are absent.
      q.push_back(word(rng.NextBelow(kVocab + 20)));
    }
    queries.push_back(q);
  }
  for (const auto& q : queries) {
    std::vector<std::string> keywords;
    for (const auto& t : q) {
      auto k = ExtractKeywords(t);
      keywords.insert(keywords.end(), k.begin(), k.end());
    }
    std::vector<std::pair<std::string, sim::HostId>> want;
    for (const Doc& d : docs) {
      if (keywords.empty() || !live(d)) continue;
      const auto& have = d.keywords;
      bool all = true;
      for (const auto& k : keywords) {
        all = all && std::find(have.begin(), have.end(), k) != have.end();
      }
      if (all) want.emplace_back(d.name, d.owner);
    }
    std::vector<std::pair<std::string, sim::HostId>> got;
    for (const auto* e : idx.Match(keywords)) {
      got.emplace_back(e->filename, e->owner);
    }
    EXPECT_EQ(got, want) << "query " << ::testing::PrintToString(q);
  }
  EXPECT_EQ(idx.PostingListSize("ghost"), 2u);  // tombstones stay listed
}

TEST(KeywordIndexTest, AllEntriesListsLiveOnly) {
  KeywordIndex idx;
  idx.Add(File("one.mp3x a"), 1);
  idx.Add(File("two.mp3x b"), 2);
  idx.RemoveOwner(1);
  EXPECT_EQ(idx.AllEntries().size(), 1u);
}

}  // namespace
}  // namespace pierstack::gnutella
