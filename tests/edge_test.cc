// Degenerate-input and boundary-condition tests across modules: the kinds
// of corner cases a production deployment will eventually feed the library.

#include <gtest/gtest.h>

#include "ann/rkd_tree.h"
#include "core/client.h"
#include "core/owner.h"
#include "core/server.h"
#include "invindex/merkle_inv_index.h"
#include "invindex/search.h"
#include "invindex/verify.h"
#include "workload/synthetic.h"

namespace imageproof {
namespace {

// ---------------------------------------------------------------------------
// k-d trees on degenerate data
// ---------------------------------------------------------------------------

TEST(EdgeKdTree, AllIdenticalPoints) {
  // Every split is degenerate; the median fallback must still terminate and
  // produce a valid tree.
  ann::PointSet points(4, 0);
  points.set_dims(4);
  for (int i = 0; i < 50; ++i) points.AppendRow({1.0f, 2.0f, 3.0f, 4.0f});
  ann::RkdTree tree(points, 2, 7);
  std::vector<int> seen(50, 0);
  for (const auto& n : tree.nodes()) {
    if (!n.IsLeaf()) continue;
    for (int32_t i = n.begin; i < n.end; ++i) seen[tree.point_indices()[i]]++;
  }
  for (int s : seen) EXPECT_EQ(s, 1);
  float q[] = {1.0f, 2.0f, 3.0f, 4.0f};
  double d;
  EXPECT_GE(tree.ExactNearest(q, &d), 0);
  EXPECT_DOUBLE_EQ(d, 0.0);
  EXPECT_EQ(tree.RangeSearch(q, 0.1).size(), 50u);
}

TEST(EdgeKdTree, OneDimensionalData) {
  ann::PointSet points(1, 0);
  points.set_dims(1);
  for (int i = 0; i < 100; ++i) points.AppendRow({static_cast<float>(i)});
  ann::RkdTree tree(points, 2, 3);
  float q[] = {42.3f};
  double d;
  EXPECT_EQ(tree.ExactNearest(q, &d), 42);
  auto in_range = tree.RangeSearch(q, 4.0);  // radius 2 -> 41,42,43,44 region
  std::set<int32_t> got(in_range.begin(), in_range.end());
  for (int32_t expect : {41, 42, 43, 44}) EXPECT_TRUE(got.count(expect));
}

TEST(EdgeKdTree, LargeLeafSize) {
  ann::PointSet points(4, 0);
  points.set_dims(4);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    points.AppendRow({static_cast<float>(rng.NextGaussian()),
                      static_cast<float>(rng.NextGaussian()),
                      static_cast<float>(rng.NextGaussian()),
                      static_cast<float>(rng.NextGaussian())});
  }
  ann::RkdTree tree(points, 64, 11);
  // At leaf size >= n the tree is a single leaf.
  ann::RkdTree flat(points, 128, 11);
  EXPECT_EQ(flat.nodes().size(), 1u);
  EXPECT_TRUE(flat.nodes()[0].IsLeaf());
  float q[] = {0, 0, 0, 0};
  double d1, d2;
  EXPECT_EQ(tree.ExactNearest(q, &d1), flat.ExactNearest(q, &d2));
  EXPECT_DOUBLE_EQ(d1, d2);
}

// ---------------------------------------------------------------------------
// Inverted indexes on degenerate corpora
// ---------------------------------------------------------------------------

TEST(EdgeInvIndex, SingleImageCorpus) {
  std::vector<std::pair<bovw::ImageId, bovw::BovwVector>> corpus(1);
  corpus[0].first = 7;
  corpus[0].second.entries = {{0, 3}, {2, 1}};
  auto weights = bovw::ClusterWeights::FromCorpus(3, {corpus[0].second});
  auto index = invindex::PostingIndex::Build(3, corpus, weights, true);
  // All weights are ln(1/1) = 0, so impacts vanish and no list is relevant.
  bovw::BovwVector q;
  q.entries = {{0, 1}};
  invindex::InvSearchParams params;
  params.k = 1;
  auto result = invindex::InvSearch(index, q, params);
  EXPECT_TRUE(result.topk.empty());
  invindex::InvVerifyResult verified;
  EXPECT_TRUE(
      invindex::VerifyInvVo(result.vo, q, {}, 1, true, &verified).ok());
}

TEST(EdgeInvIndex, AllImagesIdentical) {
  std::vector<std::pair<bovw::ImageId, bovw::BovwVector>> corpus;
  bovw::BovwVector same;
  same.entries = {{0, 2}, {1, 1}};
  for (bovw::ImageId id = 0; id < 20; ++id) corpus.emplace_back(id, same);
  // Add one differing image so weights are nonzero.
  bovw::BovwVector other;
  other.entries = {{2, 1}};
  corpus.emplace_back(20, other);
  std::vector<bovw::BovwVector> vecs;
  for (auto& [id, v] : corpus) vecs.push_back(v);
  auto weights = bovw::ClusterWeights::FromCorpus(3, vecs);
  auto index = invindex::PostingIndex::Build(3, corpus, weights, true);

  bovw::BovwVector q;
  q.entries = {{0, 1}, {2, 1}};
  invindex::InvSearchParams params;
  params.k = 5;
  auto result = invindex::InvSearch(index, q, params);
  ASSERT_EQ(result.topk.size(), 5u);
  // Tie-break: the identical images rank by ascending id after image 20
  // (which matches the rare cluster).
  std::vector<bovw::ImageId> claimed;
  for (auto& si : result.topk) claimed.push_back(si.id);
  invindex::InvVerifyResult verified;
  Status s = invindex::VerifyInvVo(result.vo, q, claimed, 5, true, &verified);
  EXPECT_TRUE(s.ok()) << s.message();
  for (const auto& [c, digest] : verified.list_digests) {
    EXPECT_EQ(digest, index.list(c).digest);
  }
}

TEST(EdgeFgIndex, AllSameFrequency) {
  // Every posting has frequency 1: one group per list holds everything.
  std::vector<std::pair<bovw::ImageId, bovw::BovwVector>> corpus;
  for (bovw::ImageId id = 0; id < 30; ++id) {
    bovw::BovwVector v;
    v.entries = {{static_cast<bovw::ClusterId>(id % 3), 1},
                 {static_cast<bovw::ClusterId>(3 + id % 2), 1}};
    corpus.emplace_back(id, v);
  }
  std::vector<bovw::BovwVector> vecs;
  for (auto& [id, v] : corpus) vecs.push_back(v);
  auto weights = bovw::ClusterWeights::FromCorpus(5, vecs);
  auto index = invindex::GroupIndex::Build(5, corpus, weights, true);
  for (bovw::ClusterId c = 0; c < 5; ++c) {
    EXPECT_LE(index.list(c).postings.size(), 1u) << "one group per list";
  }
  bovw::BovwVector q;
  q.entries = {{0, 1}, {3, 2}};
  invindex::InvSearchParams params;
  params.k = 4;
  auto result = invindex::InvSearch(index, q, params);
  std::vector<bovw::ImageId> claimed;
  for (auto& si : result.topk) claimed.push_back(si.id);
  invindex::InvVerifyResult verified;
  Status s =
      invindex::VerifyInvVo<invindex::Group>(result.vo, q, claimed, 4, true,
                                             &verified);
  EXPECT_TRUE(s.ok()) << s.message();
}

// ---------------------------------------------------------------------------
// Whole-scheme edges
// ---------------------------------------------------------------------------

core::OwnerOutput TinyDeployment(size_t num_images) {
  core::Config config = core::Config::ImageProof();
  config.rsa_bits = 512;
  workload::CorpusParams cp;
  cp.num_images = num_images;
  cp.num_clusters = 32;
  cp.min_distinct = 2;
  cp.max_distinct = 6;
  auto corpus = workload::GenerateCorpus(cp);
  std::unordered_map<bovw::ImageId, Bytes> blobs;
  for (const auto& [id, v] : corpus) blobs[id] = workload::GenerateImageBlob(id);
  workload::CodebookParams cbp;
  cbp.num_clusters = 32;
  cbp.dims = 8;
  return core::BuildDeployment(config, workload::GenerateCodebook(cbp),
                               std::move(corpus), std::move(blobs));
}

TEST(EdgeScheme, SingleImageDatabase) {
  core::OwnerOutput owner = TinyDeployment(1);
  core::ServiceProvider sp(owner.package.get());
  core::Client client(owner.public_params);
  auto features = workload::FeaturesFromBovw(
      owner.package->codebook, owner.package->corpus[0].second, 5, 0.2, 0.0, 1);
  core::QueryResponse resp = sp.Query(features, 3);
  auto verified = client.Verify(features, 3, resp.vo);
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  // With one image all idf weights are 0 -> no similarity signal; the
  // verified result set must be empty but valid.
  EXPECT_TRUE(verified->topk.empty());
}

TEST(EdgeScheme, KZero) {
  core::OwnerOutput owner = TinyDeployment(50);
  core::ServiceProvider sp(owner.package.get());
  core::Client client(owner.public_params);
  auto features =
      workload::GenerateQueryFeatures(owner.package->codebook, 5, 0.3, 3);
  core::QueryResponse resp = sp.Query(features, 0);
  EXPECT_TRUE(resp.topk.empty());
  auto verified = client.Verify(features, 0, resp.vo);
  EXPECT_TRUE(verified.ok()) << verified.status().message();
}

TEST(EdgeScheme, WrongFeatureDimsRejectedCleanly) {
  core::OwnerOutput owner = TinyDeployment(50);
  core::ServiceProvider sp(owner.package.get());
  core::Client client(owner.public_params);
  auto features =
      workload::GenerateQueryFeatures(owner.package->codebook, 5, 0.3, 4);
  core::QueryResponse resp = sp.Query(features, 3);
  // Client verifying with differently-sized features must fail, not crash.
  std::vector<std::vector<float>> wrong = features;
  wrong[0].push_back(1.0f);
  auto verified = client.Verify(wrong, 3, resp.vo);
  EXPECT_FALSE(verified.ok());
}

TEST(EdgeScheme, SingleFeatureQuery) {
  core::OwnerOutput owner = TinyDeployment(80);
  core::ServiceProvider sp(owner.package.get());
  core::Client client(owner.public_params);
  auto features =
      workload::GenerateQueryFeatures(owner.package->codebook, 1, 0.2, 5);
  core::QueryResponse resp = sp.Query(features, 5);
  auto verified = client.Verify(features, 5, resp.vo);
  EXPECT_TRUE(verified.ok()) << verified.status().message();
}

TEST(EdgeScheme, DuplicateFeatureVectors) {
  core::OwnerOutput owner = TinyDeployment(80);
  core::ServiceProvider sp(owner.package.get());
  core::Client client(owner.public_params);
  auto one = workload::GenerateQueryFeatures(owner.package->codebook, 1, 0.2, 6);
  std::vector<std::vector<float>> features(10, one[0]);  // 10 identical
  core::QueryResponse resp = sp.Query(features, 5);
  auto verified = client.Verify(features, 5, resp.vo);
  EXPECT_TRUE(verified.ok()) << verified.status().message();
  // Identical features share every tree node.
  EXPECT_GT(resp.stats.mrkd.ShareRatio(), 0.8);
}

}  // namespace
}  // namespace imageproof
