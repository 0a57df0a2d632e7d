// Tests for the frequency-grouped Merkle inverted index (Optimization B,
// invindex::Group entries): grouping invariants, digest chains,
// search-vs-oracle agreement, VO compression behavior and decoding, and
// adversarial rejection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <span>

#include "common/random.h"
#include "invindex/merkle_inv_index.h"
#include "invindex/search.h"
#include "invindex/verify.h"

namespace imageproof::invindex {
namespace {

using bovw::BovwVector;
using bovw::ClusterWeights;

struct Corpus {
  size_t num_clusters;
  std::vector<std::pair<ImageId, BovwVector>> images;
  std::unique_ptr<ClusterWeights> weights;

  Corpus(size_t num_images, size_t num_clusters_in, uint64_t seed)
      : num_clusters(num_clusters_in) {
    Rng rng(seed);
    for (ImageId id = 0; id < num_images; ++id) {
      size_t distinct = 3 + rng.NextBounded(8);
      std::map<bovw::ClusterId, uint32_t> counts;
      for (size_t i = 0; i < distinct; ++i) {
        auto c = static_cast<bovw::ClusterId>(rng.NextZipf(num_clusters, 1.15));
        counts[c] += 1 + static_cast<uint32_t>(rng.NextBounded(3));
      }
      BovwVector v;
      v.entries.assign(counts.begin(), counts.end());
      images.emplace_back(id, v);
    }
    std::vector<BovwVector> vecs;
    for (auto& [id, v] : images) vecs.push_back(v);
    weights = std::make_unique<ClusterWeights>(
        ClusterWeights::FromCorpus(num_clusters, vecs));
  }

  BovwVector RandomQuery(uint64_t seed) const {
    Rng rng(seed);
    std::map<bovw::ClusterId, uint32_t> counts;
    for (size_t i = 0; i < 6; ++i) {
      auto c = static_cast<bovw::ClusterId>(rng.NextZipf(num_clusters, 1.1));
      counts[c] += 1 + static_cast<uint32_t>(rng.NextBounded(3));
    }
    BovwVector v;
    v.entries.assign(counts.begin(), counts.end());
    return v;
  }
};

TEST(FgIndexTest, GroupingInvariants) {
  Corpus corpus(300, 40, 3);
  auto index = GroupIndex::Build(40, corpus.images, *corpus.weights, true);
  for (bovw::ClusterId c = 0; c < 40; ++c) {
    const InvertedList<Group>& list = index.list(c);
    std::set<uint32_t> freqs_seen;
    std::set<ImageId> ids_seen;
    double prev_impact = 1e300;
    for (const Group& p : list.postings) {
      // One group per frequency.
      EXPECT_TRUE(freqs_seen.insert(p.freq).second);
      ASSERT_FALSE(p.members.empty());
      // Members sorted by (norm, id); each image at most once per list.
      for (size_t m = 0; m < p.members.size(); ++m) {
        EXPECT_TRUE(ids_seen.insert(p.members[m].id).second);
        if (m > 0) {
          EXPECT_TRUE(p.members[m - 1].norm < p.members[m].norm ||
                      (p.members[m - 1].norm == p.members[m].norm &&
                       p.members[m - 1].id < p.members[m].id));
        }
      }
      // Group impacts descend along the list.
      double impact = p.Cap(list.weight);
      EXPECT_LE(impact, prev_impact);
      prev_impact = impact;
    }
    // Chain digests verify.
    Digest next = Digest::Zero();
    for (size_t i = list.postings.size(); i-- > 0;) {
      next = EntryDigest(list.postings[i], next);
      EXPECT_EQ(next, list.postings[i].digest);
    }
    EXPECT_EQ(list.digest, ListDigest(list.weight, list.theta_digest,
                                      list.FirstPostingDigest()));
  }
}

TEST(FgIndexTest, GroupsEquivalentToPlainPostings) {
  // The grouped index encodes exactly the same (image, impact) pairs as the
  // plain index.
  Corpus corpus(200, 30, 5);
  auto plain = PostingIndex::Build(30, corpus.images,
                                                    *corpus.weights, true);
  auto grouped = GroupIndex::Build(30, corpus.images, *corpus.weights, true);
  for (bovw::ClusterId c = 0; c < 30; ++c) {
    std::map<ImageId, double> plain_impacts, grouped_impacts;
    for (const auto& p : plain.list(c).postings) {
      plain_impacts[p.id] = p.impact;
    }
    const InvertedList<Group>& list = grouped.list(c);
    for (const auto& g : list.postings) {
      for (size_t m = 0; m < g.members.size(); ++m) {
        grouped_impacts[g.members[m].id] = g.MemberImpact(list.weight, m);
      }
    }
    ASSERT_EQ(plain_impacts.size(), grouped_impacts.size()) << "cluster " << c;
    for (const auto& [id, impact] : plain_impacts) {
      ASSERT_TRUE(grouped_impacts.count(id));
      EXPECT_DOUBLE_EQ(grouped_impacts[id], impact);
    }
  }
}

void ExpectGroupRoundTrip(const GroupIndex& index, const Corpus& corpus,
                       const BovwVector& query, size_t k) {
  InvSearchParams params;
  params.k = k;
  InvSearchResult result = InvSearch(index, query, params);

  auto expected =
      bovw::BruteForceTopK(corpus.images, query, *corpus.weights, k);
  while (!expected.empty() && expected.back().score <= 0) expected.pop_back();
  ASSERT_EQ(result.topk.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.topk[i].id, expected[i].id) << "rank " << i;
    EXPECT_NEAR(result.topk[i].score, expected[i].score, 1e-9);
  }

  std::vector<ImageId> claimed;
  for (const auto& si : result.topk) claimed.push_back(si.id);
  InvVerifyResult verified;
  Status s = VerifyInvVo<Group>(result.vo, query, claimed, k,
                                index.with_filters(), &verified);
  ASSERT_TRUE(s.ok()) << s.message();
  for (const auto& [c, digest] : verified.list_digests) {
    EXPECT_EQ(digest, index.list(c).digest) << "cluster " << c;
  }
}

TEST(GroupSearchTest, MatchesBruteForce) {
  Corpus corpus(400, 50, 7);
  auto index = GroupIndex::Build(50, corpus.images, *corpus.weights, true);
  for (uint64_t qs = 0; qs < 8; ++qs) {
    SCOPED_TRACE(qs);
    ExpectGroupRoundTrip(index, corpus, corpus.RandomQuery(100 + qs), 10);
  }
}

TEST(GroupSearchTest, VariousK) {
  Corpus corpus(250, 40, 9);
  auto index = GroupIndex::Build(40, corpus.images, *corpus.weights, true);
  BovwVector q = corpus.RandomQuery(500);
  for (size_t k : {1u, 3u, 10u, 40u}) {
    SCOPED_TRACE(k);
    ExpectGroupRoundTrip(index, corpus, q, k);
  }
}

TEST(GroupSearchTest, PlainFilterlessMode) {
  Corpus corpus(200, 30, 11);
  auto index = GroupIndex::Build(30, corpus.images, *corpus.weights, false);
  for (uint64_t qs = 0; qs < 4; ++qs) {
    SCOPED_TRACE(qs);
    ExpectGroupRoundTrip(index, corpus, corpus.RandomQuery(600 + qs), 5);
  }
}

TEST(GroupSearchTest, VoSmallerThanPlainIndexVo) {
  // The headline claim of Optimization B: grouped VOs carry fewer bytes
  // than the plain impact-ordered VOs for the same query.
  Corpus corpus(800, 40, 13);
  auto plain = PostingIndex::Build(40, corpus.images,
                                                    *corpus.weights, true);
  auto grouped = GroupIndex::Build(40, corpus.images, *corpus.weights, true);
  InvSearchParams params;
  params.k = 10;
  size_t plain_bytes = 0, grouped_bytes = 0;
  for (uint64_t qs = 0; qs < 5; ++qs) {
    BovwVector q = corpus.RandomQuery(700 + qs);
    plain_bytes += InvSearch(plain, q, params).vo.size();
    grouped_bytes += InvSearch(grouped, q, params).vo.size();
  }
  EXPECT_LT(grouped_bytes, plain_bytes);
}

TEST(FgAttackTest, TamperingRejected) {
  Corpus corpus(300, 40, 17);
  auto index = GroupIndex::Build(40, corpus.images, *corpus.weights, true);
  BovwVector q = corpus.RandomQuery(900);
  InvSearchParams params;
  params.k = 10;
  InvSearchResult honest = InvSearch(index, q, params);
  std::vector<ImageId> claimed;
  for (const auto& si : honest.topk) claimed.push_back(si.id);

  auto accepts = [&](const Bytes& vo, const std::vector<ImageId>& ids) {
    InvVerifyResult verified;
    if (!VerifyInvVo<Group>(vo, q, ids, 10, true, &verified).ok()) return false;
    for (const auto& [c, digest] : verified.list_digests) {
      if (digest != index.list(c).digest) return false;
    }
    return true;
  };
  ASSERT_TRUE(accepts(honest.vo, claimed));

  // Bit flips.
  Rng rng(19);
  for (int t = 0; t < 40; ++t) {
    Bytes tampered = honest.vo;
    tampered[rng.NextBounded(tampered.size())] ^=
        static_cast<uint8_t>(1 + rng.NextBounded(255));
    EXPECT_FALSE(accepts(tampered, claimed)) << t;
  }
  // Result swap.
  if (!claimed.empty()) {
    auto swapped = claimed;
    swapped[0] += 1000000;
    EXPECT_FALSE(accepts(honest.vo, swapped));
  }
  // Dropped result.
  if (claimed.size() > 1) {
    auto dropped = std::vector<ImageId>(claimed.begin() + 1, claimed.end());
    EXPECT_FALSE(accepts(honest.vo, dropped));
  }
}

// The digest order of a group's members: norm ascending, id ascending.
bool DigestOrder(const Member& a, const Member& b) {
  if (a.norm != b.norm) return a.norm < b.norm;
  return a.id < b.id;
}

// Decoding a group VO restores the digest order, ties included, whether
// the norms ride as u32 squares, as raw f64 in a compressed VO (some norm
// has no exact u32 square) or in a raw VO, and whether the ids fit
// group-varint gaps or not.
TEST(GroupDecodeTest, RestoresDigestOrderWithTiedNorms) {
  Rng rng(41);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Group> groups(1 + rng.NextBounded(4));
    for (Group& g : groups) {
      g.freq = 1 + static_cast<uint32_t>(rng.NextBounded(8));
      std::set<ImageId> ids;
      const size_t n = 1 + rng.NextBounded(40);
      const bool wide_ids = rng.NextBounded(4) == 0;
      const bool raw_norms = rng.NextBounded(4) == 0;
      while (ids.size() < n) {
        ids.insert(wide_ids ? rng.NextU64() : rng.NextBounded(200));
      }
      for (ImageId id : ids) {
        // Few distinct norms, so most members tie with another; raw ones
        // also come in pairs one ulp apart.
        const double sq = static_cast<double>(1 + rng.NextBounded(4));
        double norm = std::sqrt(sq);
        if (raw_norms) {
          norm = sq + 0.5;
          if (rng.NextBounded(2) == 0) norm = std::nextafter(norm, 10.0);
        }
        g.members.push_back({id, norm});
      }
      std::sort(g.members.begin(), g.members.end(), DigestOrder);
    }
    for (bool compressed : {false, true}) {
      SCOPED_TRACE(testing::Message() << "trial " << trial
                                      << (compressed ? " compressed" : " raw"));
      ByteWriter w;
      Group::VoScratch scratch;
      Group::PutVo(w, std::span<const Group>(groups), compressed, &scratch);
      const Bytes vo = w.Take();
      ByteReader r(vo);
      std::vector<Group> decoded;
      ASSERT_TRUE(
          Group::GetVo(r, groups.size(), compressed, &decoded, &scratch).ok());
      EXPECT_TRUE(r.AtEnd());
      ASSERT_EQ(decoded.size(), groups.size());
      for (size_t i = 0; i < groups.size(); ++i) {
        EXPECT_EQ(decoded[i].freq, groups[i].freq);
        EXPECT_EQ(decoded[i].members, groups[i].members) << "group " << i;
      }
    }
  }
}

// Ids whose gaps wrap past 2^64 do not arrive ascending; decoding still
// gives the digest order of the decoded members.
TEST(GroupDecodeTest, WrappedIdsStillSortByNormThenId) {
  const uint64_t top = std::numeric_limits<uint64_t>::max();
  ByteWriter w;
  w.PutVarint(3);  // freq
  w.PutVarint(3);  // members: ids top - 1, top, 1 (the last gap wraps)
  w.PutVarint(top - 1);
  w.PutF64(2.0);
  w.PutVarint(1);
  w.PutF64(1.0);
  w.PutVarint(2);
  w.PutF64(2.0);
  const Bytes vo = w.Take();
  ByteReader r(vo);
  std::vector<Group> decoded;
  Group::VoScratch scratch;
  ASSERT_TRUE(
      Group::GetVo(r, 1, /*compressed=*/false, &decoded, &scratch).ok());
  ASSERT_EQ(decoded.size(), 1u);
  const std::vector<Member> expected = {{top, 1.0}, {1, 2.0}, {top - 1, 2.0}};
  EXPECT_EQ(decoded[0].members, expected);
}

}  // namespace
}  // namespace imageproof::invindex
