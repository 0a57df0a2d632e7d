// End-to-end tests of the complete ImageProof scheme: owner -> SP -> client
// across all four evaluated configurations, correctness against the
// brute-force oracle, and rejection of every attack class in Theorem 1.

#include <gtest/gtest.h>

#include <map>

#include "core/adversary.h"
#include "core/client.h"
#include "core/owner.h"
#include "core/server.h"
#include "crypto/sha3.h"
#include "workload/synthetic.h"

namespace imageproof::core {
namespace {

struct Deployment {
  workload::CorpusParams corpus_params;
  workload::CodebookParams codebook_params;
  OwnerOutput owner;
  std::unique_ptr<ServiceProvider> sp;
  std::unique_ptr<Client> client;

  explicit Deployment(Config config, size_t num_images = 300,
                      size_t num_clusters = 128, size_t dims = 16,
                      uint64_t seed = 1) {
    config.rsa_bits = 512;  // fast test keys
    corpus_params.num_images = num_images;
    corpus_params.num_clusters = num_clusters;
    corpus_params.min_distinct = 5;
    corpus_params.max_distinct = 20;
    corpus_params.seed = seed;
    codebook_params.num_clusters = num_clusters;
    codebook_params.dims = dims;
    codebook_params.seed = seed + 1;

    auto corpus = workload::GenerateCorpus(corpus_params);
    std::unordered_map<bovw::ImageId, Bytes> blobs;
    for (const auto& [id, v] : corpus) {
      blobs[id] = workload::GenerateImageBlob(id);
    }
    owner = BuildDeployment(config, workload::GenerateCodebook(codebook_params),
                            std::move(corpus), std::move(blobs), seed + 2);
    sp = std::make_unique<ServiceProvider>(owner.package.get());
    client = std::make_unique<Client>(owner.public_params);
  }

  std::vector<std::vector<float>> Features(size_t n, uint64_t seed) const {
    return workload::GenerateQueryFeatures(owner.package->codebook, n,
                                           /*noise=*/1.0, seed);
  }
};

class SchemeTest : public ::testing::TestWithParam<const char*> {
 public:
  static Config ConfigFor(const std::string& name) {
    if (name == "Baseline") return Config::Baseline();
    if (name == "ImageProof") return Config::ImageProof();
    if (name == "OptimizedBovw") return Config::OptimizedBovw();
    return Config::OptimizedBoth();
  }
};

TEST_P(SchemeTest, HonestRoundTripVerifies) {
  Deployment d(ConfigFor(GetParam()));
  for (uint64_t qs = 0; qs < 3; ++qs) {
    auto features = d.Features(30, 100 + qs);
    QueryResponse resp = d.sp->Query(features, 10);
    auto verified = d.client->Verify(features, 10, resp.vo);
    ASSERT_TRUE(verified.ok()) << GetParam() << ": "
                               << verified.status().message();
    // Claimed and verified result sets agree.
    ASSERT_EQ(verified->topk.size(), resp.topk.size());
    for (size_t i = 0; i < resp.topk.size(); ++i) {
      EXPECT_EQ(verified->topk[i].id, resp.topk[i].id);
    }
    // Verified images round-trip the owner's payloads.
    ASSERT_EQ(verified->images.size(), verified->topk.size());
    for (size_t i = 0; i < verified->topk.size(); ++i) {
      EXPECT_EQ(verified->images[i],
                workload::GenerateImageBlob(verified->topk[i].id));
    }
  }
}

TEST_P(SchemeTest, ResultsMatchBruteForceOracle) {
  Deployment d(ConfigFor(GetParam()));
  // Build the ground truth from the SP's own BoVW encoding of the query:
  // encode via exact nearest clusters (what the authenticated pipeline
  // computes) and score with the corpus weights.
  auto features = d.Features(40, 777);
  QueryResponse resp = d.sp->Query(features, 10);

  std::vector<bovw::ClusterId> assignment;
  for (const auto& f : features) {
    double best = 0;
    int32_t best_c = -1;
    for (size_t c = 0; c < d.owner.package->codebook.size(); ++c) {
      double dist = ann::SquaredL2(f.data(), d.owner.package->codebook.row(c),
                                   d.owner.package->codebook.dims());
      if (best_c < 0 || dist < best) {
        best = dist;
        best_c = static_cast<int32_t>(c);
      }
    }
    assignment.push_back(static_cast<bovw::ClusterId>(best_c));
  }
  bovw::BovwVector query_bovw = bovw::CountAssignments(assignment);
  std::vector<bovw::BovwVector> vecs;
  for (const auto& [id, v] : d.owner.package->corpus) vecs.push_back(v);
  auto weights = bovw::ClusterWeights::FromCorpus(
      d.owner.package->codebook.size(), vecs);
  auto expected = bovw::BruteForceTopK(d.owner.package->corpus, query_bovw,
                                       weights, 10);
  while (!expected.empty() && expected.back().score <= 0) expected.pop_back();

  ASSERT_EQ(resp.topk.size(), expected.size()) << GetParam();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(resp.topk[i].id, expected[i].id) << GetParam() << " rank " << i;
    EXPECT_NEAR(resp.topk[i].score, expected[i].score, 1e-9);
  }
}

TEST_P(SchemeTest, VoSerializationRoundTrip) {
  Deployment d(ConfigFor(GetParam()));
  auto features = d.Features(20, 55);
  QueryResponse resp = d.sp->Query(features, 5);
  Bytes wire = resp.vo.Serialize();
  QueryVO back;
  ASSERT_TRUE(QueryVO::Deserialize(wire, &back).ok());
  auto verified = d.client->Verify(features, 5, back);
  EXPECT_TRUE(verified.ok()) << verified.status().message();
  EXPECT_EQ(back.TotalBytes(), resp.vo.TotalBytes());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeTest,
                         ::testing::Values("Baseline", "ImageProof",
                                           "OptimizedBovw", "OptimizedBoth"));

// ---------------------------------------------------------------------------
// Attacks (Theorem 1 cases) — run under the full ImageProof scheme.
// ---------------------------------------------------------------------------

class AttackTest : public ::testing::Test {
 protected:
  AttackTest() : d_(Config::ImageProof()) {
    features_ = d_.Features(25, 4242);
    honest_ = d_.sp->Query(features_, 10);
    EXPECT_TRUE(d_.client->Verify(features_, 10, honest_.vo).ok());
  }

  bool Accepts(const QueryVO& vo) {
    return d_.client->Verify(features_, 10, vo).ok();
  }

  Deployment d_;
  std::vector<std::vector<float>> features_;
  QueryResponse honest_;
};

TEST_F(AttackTest, FakeImageDataRejected) {
  EXPECT_FALSE(Accepts(TamperImageData(honest_).vo));
}

TEST_F(AttackTest, ForgedSignatureRejected) {
  EXPECT_FALSE(Accepts(TamperSignature(honest_).vo));
}

TEST_F(AttackTest, SwappedResultRejected) {
  // Substitute an image that exists but did not make the top-k.
  bovw::ImageId sub = 0;
  std::set<bovw::ImageId> topk;
  for (const auto& si : honest_.topk) topk.insert(si.id);
  while (topk.count(sub)) ++sub;
  EXPECT_FALSE(Accepts(TamperSwapResult(honest_, sub).vo));
}

TEST_F(AttackTest, DroppedResultRejected) {
  EXPECT_FALSE(Accepts(TamperDropResult(honest_).vo));
}

TEST_F(AttackTest, InvVoTamperingRejected) {
  for (size_t pos : {0u, 7u, 101u, 5003u}) {
    EXPECT_FALSE(Accepts(TamperInvVo(honest_, pos).vo)) << pos;
  }
}

TEST_F(AttackTest, RevealTamperingRejected) {
  for (size_t pos : {1u, 13u, 247u}) {
    EXPECT_FALSE(Accepts(TamperRevealSection(honest_, pos).vo)) << pos;
  }
}

TEST_F(AttackTest, TreeVoTamperingRejected) {
  for (size_t tree : {0u, 3u, 7u}) {
    EXPECT_FALSE(Accepts(TamperTreeVo(honest_, tree, 31).vo)) << tree;
  }
}

TEST_F(AttackTest, ThresholdTamperingRejected) {
  // Growing a threshold makes the client expect subtrees the VO pruned;
  // shrinking it makes revealed subtrees look gratuitous. Both must fail.
  EXPECT_FALSE(Accepts(TamperThreshold(honest_, 0, 1e9).vo));
  EXPECT_FALSE(Accepts(TamperThreshold(honest_, 0, 1e-12).vo));
}

TEST_F(AttackTest, WrongKRejected) {
  // Claiming the honest k=10 VO answers k=3 must fail (too many results).
  EXPECT_FALSE(d_.client->Verify(features_, 3, honest_.vo).ok());
}

TEST_F(AttackTest, RandomBitFlipsNeverChangeAcceptedResults) {
  // A flip may land somewhere semantically neutral (e.g., the low mantissa
  // bits of a threshold, which the SP chooses freely anyway). What must
  // never happen is that a flipped VO verifies AND yields a different
  // result set or different payloads.
  auto honest_verified = d_.client->Verify(features_, 10, honest_.vo);
  ASSERT_TRUE(honest_verified.ok());
  Bytes wire = honest_.vo.Serialize();
  Rng rng(99);
  int accepted_with_changes = 0;
  for (int t = 0; t < 60; ++t) {
    Bytes tampered = wire;
    tampered[rng.NextBounded(tampered.size())] ^=
        static_cast<uint8_t>(1 + rng.NextBounded(255));
    QueryVO vo;
    if (!QueryVO::Deserialize(tampered, &vo).ok()) continue;
    auto verified = d_.client->Verify(features_, 10, vo);
    if (!verified.ok()) continue;
    bool same = verified->topk.size() == honest_verified->topk.size() &&
                verified->images == honest_verified->images;
    if (same) {
      for (size_t i = 0; i < verified->topk.size(); ++i) {
        if (verified->topk[i].id != honest_verified->topk[i].id) same = false;
      }
    }
    if (!same) ++accepted_with_changes;
  }
  EXPECT_EQ(accepted_with_changes, 0);
}

// ---------------------------------------------------------------------------
// Cross-scheme agreement: all four schemes must return the same results.
// ---------------------------------------------------------------------------

TEST(CrossSchemeTest, AllSchemesAgreeOnResults) {
  std::map<std::string, std::vector<bovw::ImageId>> results;
  for (const char* name :
       {"Baseline", "ImageProof", "OptimizedBovw", "OptimizedBoth"}) {
    Config c = SchemeTest::ConfigFor(name);
    Deployment d(c, 200, 96, 12, /*seed=*/7);
    auto features = d.Features(25, 31337);
    QueryResponse resp = d.sp->Query(features, 8);
    auto verified = d.client->Verify(features, 8, resp.vo);
    ASSERT_TRUE(verified.ok()) << name << ": " << verified.status().message();
    std::vector<bovw::ImageId> ids;
    for (const auto& si : resp.topk) ids.push_back(si.id);
    results[name] = ids;
  }
  EXPECT_EQ(results["Baseline"], results["ImageProof"]);
  EXPECT_EQ(results["ImageProof"], results["OptimizedBovw"]);
  EXPECT_EQ(results["OptimizedBovw"], results["OptimizedBoth"]);
}

// Optimization A shrinks the BoVW VO relative to plain ImageProof.
TEST(CrossSchemeTest, OptimizationAShrinksBovwVo) {
  Deployment plain(Config::ImageProof(), 200, 128, 32, 9);
  Deployment opt(Config::OptimizedBovw(), 200, 128, 32, 9);
  auto features = plain.Features(40, 555);
  size_t plain_bytes = plain.sp->Query(features, 10).stats.bovw_vo_bytes;
  size_t opt_bytes = opt.sp->Query(features, 10).stats.bovw_vo_bytes;
  EXPECT_LT(opt_bytes, plain_bytes);
}

// Node sharing shrinks the BoVW VO relative to Baseline.
TEST(CrossSchemeTest, NodeSharingShrinksBovwVo) {
  Config baseline_cfg = Config::Baseline();
  Config shared_cfg = Config::ImageProof();
  shared_cfg.with_filters = false;  // isolate the sharing effect
  Deployment baseline(baseline_cfg, 150, 128, 16, 11);
  Deployment shared(shared_cfg, 150, 128, 16, 11);
  auto features = baseline.Features(40, 666);
  size_t base_bytes = baseline.sp->Query(features, 10).stats.bovw_vo_bytes;
  size_t shared_bytes = shared.sp->Query(features, 10).stats.bovw_vo_bytes;
  EXPECT_LT(shared_bytes, base_bytes);
}

// ImageProof pops fewer postings than Baseline (the cuckoo-filter win).
TEST(CrossSchemeTest, FiltersReducePoppedPostings) {
  Deployment baseline(Config::Baseline(), 400, 96, 12, 13);
  Deployment imageproof(Config::ImageProof(), 400, 96, 12, 13);
  size_t base_popped = 0, ip_popped = 0;
  for (uint64_t qs = 0; qs < 3; ++qs) {
    auto features = baseline.Features(30, 700 + qs);
    base_popped += baseline.sp->Query(features, 10).stats.inv.popped_postings;
    ip_popped += imageproof.sp->Query(features, 10).stats.inv.popped_postings;
  }
  EXPECT_LT(ip_popped, base_popped);
}

// Verification batches independent digests onto the 4-lane Keccak; the
// schedule may change, the set of hashed messages may not. One Verify per
// scheme must hash exactly the pinned number of messages (counted on the
// serial verifier): a batch path that drops or repeats a message shows here.
TEST(VerifyHashCountTest, MatchesPinnedCount) {
  const std::map<std::string, uint64_t> pinned = {
      {"Baseline", 3086}, {"ImageProof", 1394},
      {"OptimizedBovw", 1658}, {"OptimizedBoth", 1472}};
  for (const auto& [name, expected] : pinned) {
    Deployment d(SchemeTest::ConfigFor(name), 300, 128, 16, /*seed=*/21);
    auto features = d.Features(20, 4242);
    QueryResponse resp = d.sp->Query(features, 10);
    const uint64_t before = crypto::HashInvocations();
    auto verified = d.client->Verify(features, 10, resp.vo);
    const uint64_t spent = crypto::HashInvocations() - before;
    ASSERT_TRUE(verified.ok()) << name << ": " << verified.status().message();
    EXPECT_EQ(spent, expected) << name;
  }
}

// Decoration derives the cluster commitments once for the whole forest and
// the n_t MRKD-trees borrow them: a full-vector commitment is one hash, so
// decorating costs one hash per cluster plus one per tree node. Under
// Dim-Merkle each commitment also takes its root from the cluster's block
// tree, which decoration keeps: every node of every block tree is hashed
// once (an n-leaf tree hashes 2n - 1 nodes), and never again.
TEST(DecorateForestTest, HashesEachCommitmentOnce) {
  for (Config config : {Config::ImageProof(), Config::OptimizedBovw()}) {
    const bool dim_merkle =
        config.reveal_mode == mrkd::RevealMode::kDimMerkle;
    SCOPED_TRACE(dim_merkle ? "kDimMerkle" : "kFullVector");
    Deployment d(config, 100, 64, dim_merkle ? 20 : 8, /*seed=*/23);
    SpPackage& pkg = *d.owner.package;
    ASSERT_EQ(pkg.forest->trees().size(), 8u);
    const crypto::Digest root = pkg.RootDigest();
    size_t nodes = 0;
    for (const auto& tree : pkg.forest->trees()) nodes += tree->nodes().size();
    pkg.mrkd_trees.clear();
    const uint64_t before = crypto::HashInvocations();
    pkg.DecorateForest();
    const uint64_t spent = crypto::HashInvocations() - before;
    size_t block_nodes = 0;
    for (const merkle::MerkleTree& t : pkg.dim_trees) {
      block_nodes += 2 * t.leaf_count() - 1;
    }
    EXPECT_EQ(pkg.dim_trees.size(), dim_merkle ? pkg.codebook.size() : 0u);
    EXPECT_EQ(spent, pkg.codebook.size() + block_nodes + nodes);
    EXPECT_EQ(pkg.RootDigest(), root);
  }
}

// Every block tree exists once the package is decorated, so what a query
// hashes on the SP does not depend on which queries came before it.
TEST(DecorateForestTest, ServeHashesDoNotDependOnHistory) {
  Deployment d(Config::OptimizedBovw(), 200, 128, 32, /*seed=*/29);
  auto features = d.Features(20, 4343);
  uint64_t spent[2];
  QueryResponse resp[2];
  for (int serve = 0; serve < 2; ++serve) {
    const uint64_t before = crypto::HashInvocations();
    resp[serve] = d.sp->Query(features, 10);
    spent[serve] = crypto::HashInvocations() - before;
  }
  ASSERT_GT(resp[0].stats.partial_reveals, 0u)
      << "the query must prove partial reveals from the block trees";
  EXPECT_EQ(spent[1], spent[0]);
  EXPECT_EQ(resp[1].vo.Serialize(), resp[0].vo.Serialize());
}

TEST(DeploymentTest, EmptyQueryYieldsNoResults) {
  Deployment d(Config::ImageProof(), 100, 64, 8, 15);
  QueryResponse resp = d.sp->Query({}, 5);
  EXPECT_TRUE(resp.topk.empty());
  auto verified = d.client->Verify({}, 5, resp.vo);
  EXPECT_TRUE(verified.ok()) << verified.status().message();
}

TEST(DeploymentTest, KLargerThanCorpus) {
  Deployment d(Config::ImageProof(), 20, 64, 8, 17);
  auto features = d.Features(10, 888);
  QueryResponse resp = d.sp->Query(features, 500);
  EXPECT_LE(resp.topk.size(), 20u);
  auto verified = d.client->Verify(features, 500, resp.vo);
  EXPECT_TRUE(verified.ok()) << verified.status().message();
}

}  // namespace
}  // namespace imageproof::core
