// Tests for the Merkle inverted index ADS, PostingSearch/InvSearch, the
// bounds engine, and client verification — including adversarial cases.

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>

#include "bovw/bovw.h"
#include "common/random.h"
#include "invindex/bounds.h"
#include "invindex/chain.h"
#include "invindex/merkle_inv_index.h"
#include "invindex/search.h"
#include "invindex/verify.h"
#include "invindex/vo_compress.h"

namespace imageproof::invindex {
namespace {

using bovw::BovwVector;
using bovw::ClusterWeights;

struct Corpus {
  size_t num_clusters;
  std::vector<std::pair<ImageId, BovwVector>> images;
  std::unique_ptr<ClusterWeights> weights;

  Corpus(size_t num_images, size_t num_clusters_in, double zipf_s,
         uint64_t seed)
      : num_clusters(num_clusters_in) {
    Rng rng(seed);
    for (ImageId id = 0; id < num_images; ++id) {
      size_t distinct = 3 + rng.NextBounded(8);
      std::map<bovw::ClusterId, uint32_t> counts;
      for (size_t i = 0; i < distinct; ++i) {
        bovw::ClusterId c =
            static_cast<bovw::ClusterId>(rng.NextZipf(num_clusters, zipf_s));
        counts[c] += 1 + static_cast<uint32_t>(rng.NextBounded(4));
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
    size_t distinct = 4 + rng.NextBounded(6);
    for (size_t i = 0; i < distinct; ++i) {
      bovw::ClusterId c =
          static_cast<bovw::ClusterId>(rng.NextZipf(num_clusters, 1.1));
      counts[c] += 1 + static_cast<uint32_t>(rng.NextBounded(3));
    }
    BovwVector v;
    v.entries.assign(counts.begin(), counts.end());
    return v;
  }
};

// Checks an InvSearch round trip end to end, including digest matching
// against the authenticated per-list digests (which in the full scheme come
// from the MRKD-tree).
void ExpectRoundTrip(const PostingIndex& index, const Corpus& corpus,
                     const BovwVector& query, size_t k) {
  InvSearchParams params;
  params.k = k;
  InvSearchResult result = InvSearch(index, query, params);

  // Exact against brute force.
  auto expected = bovw::BruteForceTopK(corpus.images, query, *corpus.weights, k);
  // Drop zero-score tail entries from the oracle: images sharing no
  // relevant cluster are not retrievable results.
  while (!expected.empty() && expected.back().score <= 0) expected.pop_back();
  ASSERT_EQ(result.topk.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.topk[i].id, expected[i].id) << "rank " << i;
    EXPECT_NEAR(result.topk[i].score, expected[i].score, 1e-9);
  }

  // Client verification.
  std::vector<ImageId> claimed;
  for (const auto& si : result.topk) claimed.push_back(si.id);
  InvVerifyResult verified;
  Status s = VerifyInvVo(result.vo, query, claimed, k, index.with_filters(),
                         &verified);
  ASSERT_TRUE(s.ok()) << s.message();

  // Reconstructed digests must equal the authenticated ones.
  for (const auto& [c, digest] : verified.list_digests) {
    EXPECT_EQ(digest, index.list(c).digest) << "cluster " << c;
  }
  // Verified scores are true lower bounds and rank the same set.
  ASSERT_EQ(verified.topk.size(), claimed.size());
  for (const auto& si : verified.topk) {
    EXPECT_LE(si.score,
              bovw::BruteForceTopK(corpus.images, query, *corpus.weights,
                                   corpus.images.size())
                      .empty()
                  ? 0.0
                  : 1e18);  // sanity only; exactness checked elsewhere
  }
}

TEST(MerkleInvIndexTest, BuildInvariants) {
  Corpus corpus(200, 50, 1.1, 7);
  auto index = PostingIndex::Build(corpus.num_clusters, corpus.images,
                                          *corpus.weights, true);
  EXPECT_EQ(index.num_clusters(), 50u);
  size_t nonempty = 0;
  for (bovw::ClusterId c = 0; c < 50; ++c) {
    const auto& list = index.list(c);
    if (!list.postings.empty()) ++nonempty;
    // Impact-descending order with ascending-id ties.
    for (size_t i = 1; i < list.postings.size(); ++i) {
      const auto& prev = list.postings[i - 1];
      const auto& cur = list.postings[i];
      EXPECT_TRUE(prev.impact > cur.impact ||
                  (prev.impact == cur.impact && prev.id < cur.id));
    }
    // Chain digests verify backwards.
    Digest next = Digest::Zero();
    for (size_t i = list.postings.size(); i-- > 0;) {
      next = EntryDigest(list.postings[i], next);
      EXPECT_EQ(next, list.postings[i].digest);
    }
    EXPECT_EQ(list.digest, ListDigest(list.weight, list.theta_digest,
                                      list.FirstPostingDigest()));
    // Filter contains every posting id.
    if (!list.postings.empty()) {
      ASSERT_TRUE(list.filter.has_value());
      for (const auto& p : list.postings) {
        EXPECT_TRUE(list.filter->Contains(p.id));
      }
    }
  }
  EXPECT_GT(nonempty, 20u);
}

TEST(MerkleInvIndexTest, PlainModeDiffersFromFilterMode) {
  Corpus corpus(100, 30, 1.1, 9);
  auto with = PostingIndex::Build(30, corpus.images, *corpus.weights, true);
  auto without =
      PostingIndex::Build(30, corpus.images, *corpus.weights, false);
  EXPECT_FALSE(without.with_filters());
  EXPECT_FALSE(without.list(0).filter.has_value());
  bool any_diff = false;
  for (bovw::ClusterId c = 0; c < 30; ++c) {
    if (!with.list(c).postings.empty() &&
        with.list(c).digest != without.list(c).digest) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(InvSearchTest, MatchesBruteForceWithFilters) {
  Corpus corpus(400, 60, 1.15, 11);
  auto index = PostingIndex::Build(60, corpus.images, *corpus.weights, true);
  for (uint64_t qs = 0; qs < 8; ++qs) {
    SCOPED_TRACE(qs);
    ExpectRoundTrip(index, corpus, corpus.RandomQuery(100 + qs), 10);
  }
}

TEST(InvSearchTest, MatchesBruteForceBaseline) {
  Corpus corpus(300, 40, 1.15, 13);
  auto index = PostingIndex::Build(40, corpus.images, *corpus.weights, false);
  for (uint64_t qs = 0; qs < 5; ++qs) {
    SCOPED_TRACE(qs);
    ExpectRoundTrip(index, corpus, corpus.RandomQuery(200 + qs), 5);
  }
}

TEST(InvSearchTest, FiltersPopFewerPostingsThanBaseline) {
  Corpus corpus(800, 50, 1.2, 17);
  auto filtered = PostingIndex::Build(50, corpus.images, *corpus.weights, true);
  auto plain = PostingIndex::Build(50, corpus.images, *corpus.weights, false);
  size_t popped_filtered = 0, popped_plain = 0;
  InvSearchParams params;
  params.k = 10;
  for (uint64_t qs = 0; qs < 5; ++qs) {
    BovwVector q = corpus.RandomQuery(300 + qs);
    popped_filtered += InvSearch(filtered, q, params).stats.popped_postings;
    popped_plain += InvSearch(plain, q, params).stats.popped_postings;
  }
  EXPECT_LT(popped_filtered, popped_plain);
}

TEST(InvSearchTest, VariousK) {
  Corpus corpus(250, 40, 1.1, 19);
  auto index = PostingIndex::Build(40, corpus.images, *corpus.weights, true);
  BovwVector q = corpus.RandomQuery(400);
  for (size_t k : {1u, 2u, 5u, 20u, 50u}) {
    SCOPED_TRACE(k);
    ExpectRoundTrip(index, corpus, q, k);
  }
}

TEST(InvSearchTest, QueryWithNoRelevantLists) {
  Corpus corpus(100, 30, 1.1, 23);
  auto index = PostingIndex::Build(30, corpus.images, *corpus.weights, true);
  // A query over a cluster no image contains (weight 0).
  BovwVector q;
  // Find an unused cluster if any; otherwise skip.
  std::set<bovw::ClusterId> used;
  for (const auto& [id, v] : corpus.images) {
    for (auto& [c, f] : v.entries) used.insert(c);
  }
  bovw::ClusterId unused = 30;
  for (bovw::ClusterId c = 0; c < 30; ++c) {
    if (!used.count(c)) {
      unused = c;
      break;
    }
  }
  if (unused == 30) GTEST_SKIP() << "all clusters used";
  q.entries = {{unused, 3}};
  InvSearchParams params;
  params.k = 5;
  auto result = InvSearch(index, q, params);
  EXPECT_TRUE(result.topk.empty());
  InvVerifyResult verified;
  Status s = VerifyInvVo(result.vo, q, {}, 5, true, &verified);
  EXPECT_TRUE(s.ok()) << s.message();
}

// ---------------------------------------------------------------------------
// Adversarial server behaviors
// ---------------------------------------------------------------------------

class InvAttackTest : public ::testing::Test {
 protected:
  InvAttackTest()
      : corpus_(500, 50, 1.15, 29),
        index_(PostingIndex::Build(50, corpus_.images, *corpus_.weights,
                                          true)),
        query_(corpus_.RandomQuery(999)) {
    InvSearchParams params;
    params.k = 10;
    honest_ = InvSearch(index_, query_, params);
    for (const auto& si : honest_.topk) claimed_.push_back(si.id);
  }

  // Returns true if verification accepts AND the reconstructed digests all
  // match the authenticated ones (the full client-side acceptance test).
  bool Accepts(const Bytes& vo, const std::vector<ImageId>& claimed) {
    InvVerifyResult verified;
    Status s = VerifyInvVo(vo, query_, claimed, 10, true, &verified);
    if (!s.ok()) return false;
    for (const auto& [c, digest] : verified.list_digests) {
      if (digest != index_.list(c).digest) return false;
    }
    return true;
  }

  Corpus corpus_;
  PostingIndex index_;
  BovwVector query_;
  InvSearchResult honest_;
  std::vector<ImageId> claimed_;
};

TEST_F(InvAttackTest, HonestAccepted) {
  EXPECT_TRUE(Accepts(honest_.vo, claimed_));
}

TEST_F(InvAttackTest, SwapResultForLowRankedImageRejected) {
  // Replace the best result with some popped image outside the top-k.
  InvVerifyResult verified;
  ASSERT_TRUE(VerifyInvVo(honest_.vo, query_, claimed_, 10, true, &verified).ok());
  auto tampered = claimed_;
  tampered[0] = claimed_.back() + 1000000;  // an id that never appears
  EXPECT_FALSE(Accepts(honest_.vo, tampered));
}

TEST_F(InvAttackTest, DropBestResultRejected) {
  auto tampered = claimed_;
  tampered.erase(tampered.begin());
  EXPECT_FALSE(Accepts(honest_.vo, tampered));
}

TEST_F(InvAttackTest, DuplicateResultRejected) {
  auto tampered = claimed_;
  if (tampered.size() >= 2) tampered[1] = tampered[0];
  EXPECT_FALSE(Accepts(honest_.vo, tampered));
}

TEST_F(InvAttackTest, RandomBitFlipsRejected) {
  Rng rng(31);
  int accepted = 0;
  for (int t = 0; t < 50; ++t) {
    Bytes tampered = honest_.vo;
    size_t pos = rng.NextBounded(tampered.size());
    tampered[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    if (Accepts(tampered, claimed_)) ++accepted;
  }
  EXPECT_EQ(accepted, 0);
}

TEST_F(InvAttackTest, TruncatedVoRejected) {
  Bytes truncated(honest_.vo.begin(), honest_.vo.end() - 5);
  EXPECT_FALSE(Accepts(truncated, claimed_));
}

// ---------------------------------------------------------------------------
// Rejection reasons: one hand-built VO per verifier guard, for both entry
// kinds and both encodings, each rejected with its exact message.
// ---------------------------------------------------------------------------

// One list of a hand-built VO. Pops are (image, impact); a group VO carries
// each pop as a one-member group of freq 1 and norm 1 / impact (the lists'
// weight is 1), which has that impact up to rounding.
struct HandList {
  std::vector<std::pair<ImageId, double>> pops;
  bool has_remaining = false;
  std::vector<ImageId> filter_ids;  // shipped filter's contents, if any
  bool ship_filter = false;
};

template <class E>
E HandEntry(ImageId id, double impact);

template <>
Posting HandEntry<Posting>(ImageId id, double impact) {
  return Posting{id, impact, {}};
}

template <>
Group HandEntry<Group>(ImageId id, double impact) {
  Group g;
  g.freq = 1;
  g.members.push_back({id, 1.0 / impact});
  return g;
}

// The VO of InvSearch's layout over clusters 0, 1, ... of weight 1.
template <class E>
Bytes HandVo(const std::vector<HandList>& lists, bool filters,
             bool compressed) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>((filters ? 1 : 0) |
                               (compressed ? kVoFlagCompressed : 0)));
  w.PutVarint(lists.size());
  typename E::VoScratch scratch;
  for (size_t c = 0; c < lists.size(); ++c) {
    const HandList& l = lists[c];
    w.PutVarint(c);
    w.PutF64(1.0);
    std::vector<E> popped;
    for (const auto& [id, impact] : l.pops) {
      popped.push_back(HandEntry<E>(id, impact));
    }
    w.PutVarint(popped.size());
    E::PutVo(w, std::span<const E>(popped), compressed, &scratch);
    w.PutU8(static_cast<uint8_t>((l.has_remaining ? 1 : 0) |
                                 (l.ship_filter ? 2 : 0)));
    if (l.has_remaining) crypto::PutDigest(w, Digest::Zero());
    if (!filters) continue;
    if (l.ship_filter) {
      cuckoo::CuckooFilter f(cuckoo::CuckooParams::ForMaxItems(64));
      for (ImageId id : l.filter_ids) EXPECT_TRUE(f.Insert(id));
      w.PutBlob(f.Serialize());
    } else {
      crypto::PutDigest(w, Digest::Zero());
    }
  }
  return w.Take();
}

struct RejectionCase {
  const char* name;
  std::vector<HandList> lists;
  bool filters;
  std::vector<ImageId> claimed;
  size_t k;
  const char* message;  // "" for an accepted VO
  bool posting_only;    // a group's impacts can never be negative
};

std::vector<RejectionCase> RejectionCases() {
  auto open = [](std::vector<std::pair<ImageId, double>> pops) {
    HandList l;
    l.pops = std::move(pops);
    l.has_remaining = true;
    return l;
  };
  auto drained = [](std::vector<std::pair<ImageId, double>> pops) {
    HandList l;
    l.pops = std::move(pops);
    return l;
  };
  HandList unfiltered_pop = open({{5, 0.9}});
  unfiltered_pop.ship_filter = true;
  unfiltered_pop.filter_ids = {6, 7, 8};
  return {
      {"honest", {drained({{5, 0.9}, {6, 0.8}}), drained({})}, false, {5}, 1,
       "", false},
      {"popped twice", {open({{5, 0.9}, {5, 0.8}}), drained({})}, false, {5},
       1, "bounds: image popped twice in one list", false},
      {"out of impact order", {open({{5, 0.5}, {6, 0.9}}), drained({})}, false,
       {6}, 1, "bounds: postings not in impact order", false},
      {"negative impact", {open({{5, -0.1}}), drained({})}, false, {5}, 1,
       "bounds: negative impact", true},
      {"missing from filter", {unfiltered_pop, drained({})}, true, {5}, 1,
       "bounds: popped image missing from cuckoo filter", false},
      {"short result set", {open({{5, 0.9}}), drained({})}, false, {5}, 2,
       "inv: short result set with unpopped entries", false},
      {"short result set hiding a pop",
       {drained({{5, 0.9}, {6, 0.8}}), drained({})}, false, {5}, 3,
       "inv: short result set hides popped images", false},
      {"not the top-k", {drained({{5, 0.9}, {6, 0.8}}), drained({})}, false,
       {6}, 1, "inv: claimed results are not the top-k popped images", false},
      {"condition 1", {open({{5, 0.5}}), open({{6, 0.5}})}, false, {5}, 1,
       "inv: condition 1 fails (unseen images may rank higher)", false},
      {"condition 2", {open({{1, 0.9}, {2, 0.85}, {4, 0.1}}), open({{3, 0.1}})},
       false, {1}, 1, "inv: condition 2 fails (popped image may rank higher)",
       false},
  };
}

template <class E>
void ExpectRejectionReasons() {
  BovwVector query;
  query.entries = {{0, 1}, {1, 1}};
  for (bool compressed : {false, true}) {
    for (const RejectionCase& c : RejectionCases()) {
      if (c.posting_only && !std::is_same_v<E, Posting>) continue;
      SCOPED_TRACE(testing::Message()
                   << c.name << (compressed ? ", compressed" : ", raw"));
      const Bytes vo = HandVo<E>(c.lists, c.filters, compressed);
      InvVerifyResult out;
      Status s = VerifyInvVo<E>(vo, query, c.claimed, c.k, c.filters, &out);
      EXPECT_EQ(s.message(), c.message);
      EXPECT_EQ(s.ok(), std::string(c.message).empty());
    }
  }
}

TEST(InvRejectionTest, EachGuardGivesItsMessage) {
  {
    SCOPED_TRACE("posting kind");
    ExpectRejectionReasons<Posting>();
  }
  {
    SCOPED_TRACE("group kind");
    ExpectRejectionReasons<Group>();
  }
}

// ---------------------------------------------------------------------------
// Bounds engine unit behavior
// ---------------------------------------------------------------------------

TEST(BoundsEngineTest, OrderingViolationsRejected) {
  std::vector<BoundsList> lists(1);
  lists[0].cluster = 0;
  lists[0].q_impact = 1.0;
  Bounds engine(std::move(lists), /*use_filters=*/false, 4);
  EXPECT_TRUE(engine.AddPopped(0, 5, 0.9).ok());
  EXPECT_FALSE(engine.AddPopped(0, 6, 0.95).ok()) << "impact increased";
  EXPECT_TRUE(engine.AddPopped(0, 7, 0.9).ok()) << "tie ok";
  EXPECT_FALSE(engine.AddPopped(0, 5, 0.5).ok()) << "duplicate image";
  EXPECT_FALSE(engine.AddPopped(0, 9, -0.1).ok()) << "negative impact";
  EXPECT_FALSE(engine.AddPopped(0, 10, 0.5, 0.4).ok()) << "impact above cap";
  EXPECT_TRUE(engine.AddPopped(0, 11, 0.2, 0.6).ok()) << "grouped-style cap";
  EXPECT_FALSE(engine.AddPopped(0, 12, 0.2, 0.7).ok()) << "cap increased";
}

TEST(BoundsEngineTest, CapsAndScores) {
  std::vector<BoundsList> lists(2);
  lists[0] = {0, 2.0, std::nullopt};
  lists[1] = {1, 1.0, std::nullopt};
  Bounds engine(std::move(lists), false, 4);
  EXPECT_TRUE(std::isinf(engine.Cap(0)));
  ASSERT_TRUE(engine.AddPopped(0, 1, 0.5).ok());
  ASSERT_TRUE(engine.AddPopped(1, 1, 0.4).ok());
  ASSERT_TRUE(engine.AddPopped(1, 2, 0.3).ok());
  EXPECT_DOUBLE_EQ(engine.Cap(0), 0.5);
  EXPECT_DOUBLE_EQ(engine.Cap(1), 0.3);
  EXPECT_DOUBLE_EQ(engine.ScoreOf(1), 2.0 * 0.5 + 1.0 * 0.4);
  EXPECT_DOUBLE_EQ(engine.ScoreOf(2), 0.3);
  EXPECT_DOUBLE_EQ(engine.ScoreOf(42), 0.0);
  // Baseline S^U: score + remaining caps of lists where the image is not
  // popped.
  EXPECT_DOUBLE_EQ(engine.SUpper(1), engine.ScoreOf(1));
  EXPECT_DOUBLE_EQ(engine.SUpper(2), 0.3 + 2.0 * 0.5);
  engine.MarkExhausted(0);
  EXPECT_DOUBLE_EQ(engine.Cap(0), 0.0);
  EXPECT_DOUBLE_EQ(engine.SUpper(2), 0.3);
  // pi^U over the single remaining list.
  EXPECT_DOUBLE_EQ(engine.PiUpper(), 1.0 * 0.3);
}

TEST(BoundsEngineTest, FiltersTightenSUpper) {
  cuckoo::CuckooParams params = cuckoo::CuckooParams::ForMaxItems(100);
  cuckoo::CuckooFilter f0(params), f1(params);
  ASSERT_TRUE(f0.Insert(1));
  ASSERT_TRUE(f0.Insert(2));
  ASSERT_TRUE(f1.Insert(1));  // image 2 NOT in list 1

  std::vector<BoundsList> lists(2);
  lists[0] = {0, 1.0, f0};
  lists[1] = {1, 1.0, f1};
  Bounds engine(std::move(lists), true, 4);
  ASSERT_TRUE(engine.AddPopped(0, 1, 0.9).ok());
  ASSERT_TRUE(engine.AddPopped(1, 1, 0.8).ok());
  // Image 2 remains only in list 0 per its filter.
  EXPECT_DOUBLE_EQ(engine.SUpper(2), 1.0 * 0.9);
  auto possible = engine.PossibleLists(2);
  ASSERT_EQ(possible.size(), 1u);
  EXPECT_EQ(possible[0], 0u);
}

TEST(BoundsEngineTest, GammaShrinksAsImagesPop) {
  cuckoo::CuckooParams params = cuckoo::CuckooParams::ForMaxItems(50);
  std::vector<BoundsList> lists;
  for (int i = 0; i < 5; ++i) {
    cuckoo::CuckooFilter f(params);
    ASSERT_TRUE(f.Insert(7));  // image 7 in all five lists
    BoundsList bl;
    bl.cluster = i;
    bl.q_impact = 1.0;
    bl.filter = std::move(f);
    lists.push_back(std::move(bl));
  }
  Bounds engine(std::move(lists), true, 4);
  uint32_t before = engine.Gamma();
  EXPECT_GE(before, 5u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.AddPopped(i, 7, 0.5).ok());
  }
  EXPECT_EQ(engine.Gamma(), 0u);
  EXPECT_DOUBLE_EQ(engine.PiUpper(), 0.0);
}

TEST(BoundsEngineTest, ClaimedTopKIsTheKBestPopped) {
  std::vector<BoundsList> lists(1);
  lists[0] = {0, 1.0, std::nullopt};
  Bounds engine(std::move(lists), false, 4);
  ASSERT_TRUE(engine.AddPopped(0, 10, 0.9).ok());
  ASSERT_TRUE(engine.AddPopped(0, 20, 0.8).ok());
  ASSERT_TRUE(engine.AddPopped(0, 30, 0.7).ok());
  double skl;
  EXPECT_TRUE(engine.ClaimedTopK({10, 20}, &skl));
  EXPECT_DOUBLE_EQ(skl, 0.8);
  EXPECT_FALSE(engine.ClaimedTopK({10, 30}, &skl)) << "not the best 2";
  EXPECT_FALSE(engine.ClaimedTopK({10, 99}, &skl)) << "unknown id";
  EXPECT_FALSE(engine.ClaimedTopK({10, 20, 30, 40}, &skl))
      << "more than popped";
  EXPECT_TRUE(engine.ClaimedTopK({}, &skl));
  EXPECT_EQ(skl, 0.0);
}

// ---------------------------------------------------------------------------
// The shared chain walker (invindex/chain.h) computes exactly the serial
// EntryDigest fold, at every call site that runs it.
// ---------------------------------------------------------------------------

template <class E>
Digest SerialFold(const E* entries, size_t n, Digest tail) {
  for (size_t i = n; i-- > 0;) tail = EntryDigest(entries[i], tail);
  return tail;
}

Digest RandomDigest(Rng& rng) {
  Digest d;
  for (auto& b : d.bytes) b = static_cast<uint8_t>(rng.NextU64());
  return d;
}

template <class E>
E RandomEntry(Rng& rng);

template <>
Posting RandomEntry<Posting>(Rng& rng) {
  return Posting{rng.NextU64(), static_cast<double>(rng.NextBounded(1000)),
                 {}};
}

template <>
Group RandomEntry<Group>(Rng& rng) {
  // Up to 20 members: preimages of one to three sponge blocks, so lanes
  // finish their messages on different steps.
  Group g;
  g.freq = 1 + static_cast<uint32_t>(rng.NextBounded(24));
  g.members.resize(1 + rng.NextBounded(20));
  for (Member& m : g.members) {
    m.id = rng.NextU64();
    m.norm = 1.0 + static_cast<double>(rng.NextBounded(100));
  }
  return g;
}

template <class E>
void ExpectWalkMatchesSerialFold() {
  Rng rng(77);
  // Uneven lengths with empty chains among them, each anchored at a random
  // tail (a VO's first-remaining digest) or at zero (a whole list).
  const size_t lengths[] = {5, 0, 1, 13, 2, 0, 7, 3, 9};
  std::vector<std::vector<E>> entries;
  std::vector<Digest> tails;
  for (size_t len : lengths) {
    entries.emplace_back();
    for (size_t i = 0; i < len; ++i) {
      entries.back().push_back(RandomEntry<E>(rng));
    }
    tails.push_back(rng.NextBounded(2) ? RandomDigest(rng) : Digest::Zero());
  }
  for (size_t n : {1u, 3u, 4u, 5u, 9u}) {
    SCOPED_TRACE(n);
    std::vector<ChainSpan<E>> chains;
    std::vector<std::vector<Digest>> got(n);
    for (size_t k = 0; k < n; ++k) {
      chains.push_back({entries[k].data(), entries[k].size(), tails[k]});
      got[k].assign(entries[k].size(), Digest::Zero());
    }
    size_t calls = 0;
    std::vector<size_t> last_index(n, SIZE_MAX);
    WalkChains(chains.data(), n, [&](size_t k, size_t i, const Digest& d) {
      ++calls;
      EXPECT_LT(i, last_index[k]) << "chain " << k << " out of order";
      last_index[k] = i;
      got[k][i] = d;
    });
    size_t total = 0;
    for (size_t k = 0; k < n; ++k) {
      total += entries[k].size();
      for (size_t i = 0; i < entries[k].size(); ++i) {
        EXPECT_EQ(got[k][i], SerialFold(entries[k].data() + i,
                                        entries[k].size() - i, tails[k]))
            << "chain " << k << " entry " << i;
      }
    }
    EXPECT_EQ(calls, total);
  }
}

TEST(ChainWalkerTest, MatchesSerialFoldForBothKinds) {
  ExpectWalkMatchesSerialFold<Posting>();
  ExpectWalkMatchesSerialFold<Group>();
}

// VerifyInvVo reconstructs every list digest over the serially folded
// chain, for VOs of 1, 3, 4, 5 and 9 lists: k = 0 leaves every popped
// prefix empty (all tails are first-remaining digests), larger k pops
// prefixes of uneven lengths, some lists to exhaustion.
template <class E>
void ExpectVerifierFoldsLikeSerial(const MerkleInvertedIndex<E>& index) {
  std::vector<bovw::ClusterId> by_len;
  for (bovw::ClusterId c = 0; c < index.num_clusters(); ++c) {
    if (!index.list(c).empty()) by_len.push_back(c);
  }
  std::stable_sort(by_len.begin(), by_len.end(), [&](auto a, auto b) {
    return index.list(a).postings.size() > index.list(b).postings.size();
  });
  ASSERT_GE(by_len.size(), 9u);
  for (size_t n : {1u, 3u, 4u, 5u, 9u}) {
    BovwVector q;
    for (size_t i = 0; i < n; ++i) {
      q.entries.emplace_back(by_len[i * 2 % by_len.size()],
                             1 + static_cast<uint32_t>(i % 3));
    }
    std::sort(q.entries.begin(), q.entries.end());
    for (size_t k : {0u, 3u, 10u}) {
      SCOPED_TRACE(testing::Message() << n << " lists, k " << k);
      InvSearchParams params;
      params.k = k;
      InvSearchResult result = InvSearch(index, q, params);
      std::vector<ImageId> claimed;
      for (const auto& si : result.topk) claimed.push_back(si.id);
      InvVerifyResult verified;
      Status s = VerifyInvVo<E>(result.vo, q, claimed, k, true, &verified);
      ASSERT_TRUE(s.ok()) << s.message();
      ASSERT_EQ(verified.list_digests.size(), n);
      for (const auto& [c, digest] : verified.list_digests) {
        const auto& list = index.list(c);
        EXPECT_EQ(digest, ListDigest(list.weight, list.theta_digest,
                                     SerialFold(list.postings.data(),
                                                list.postings.size(),
                                                Digest::Zero())))
            << "cluster " << c;
      }
    }
  }
}

TEST(ChainWalkerTest, VerifierListDigestsMatchSerialFold) {
  Corpus corpus(400, 40, 1.1, 33);
  ExpectVerifierFoldsLikeSerial(
      PostingIndex::Build(40, corpus.images, *corpus.weights, true));
  ExpectVerifierFoldsLikeSerial(
      GroupIndex::Build(40, corpus.images, *corpus.weights, true));
}

// The walker's four lanes start on the first four nonempty lists; a lane
// reaches the seventh only after draining an earlier one. A corrupted
// stored digest there must still be reported.
template <class E>
void ExpectVerifyChainsCatchesLateList(const MerkleInvertedIndex<E>& index) {
  std::vector<InvertedList<E>> lists;
  for (bovw::ClusterId c = 0; c < index.num_clusters(); ++c) {
    lists.push_back(index.list(c));
  }
  auto intact = MerkleInvertedIndex<E>::Restore(index.filter_params(), true,
                                                lists);
  ASSERT_TRUE(intact.ok());
  EXPECT_TRUE(intact->VerifyChains().ok());

  size_t nonempty = 0;
  for (auto& list : lists) {
    if (list.postings.size() < 2 || ++nonempty < 7) continue;
    list.postings[list.postings.size() / 2].digest.bytes[5] ^= 0x10;
    break;
  }
  ASSERT_EQ(nonempty, 7u);
  auto corrupted = MerkleInvertedIndex<E>::Restore(index.filter_params(), true,
                                                   std::move(lists));
  ASSERT_TRUE(corrupted.ok());
  EXPECT_EQ(corrupted->VerifyChains().code(), StatusCode::kCorrupted);
}

TEST(MerkleInvIndexTest, VerifyChainsCatchesCorruptionPastTheFirstLanes) {
  Corpus corpus(300, 40, 1.1, 31);
  ExpectVerifyChainsCatchesLateList(
      PostingIndex::Build(40, corpus.images, *corpus.weights, true));
  ExpectVerifyChainsCatchesLateList(
      GroupIndex::Build(40, corpus.images, *corpus.weights, true));
}

}  // namespace
}  // namespace imageproof::invindex
