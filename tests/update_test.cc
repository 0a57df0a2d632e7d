// Tests for incremental deployment updates: inserted images become
// retrievable with verifying VOs under the re-signed root; deleted images
// vanish; stale signatures are rejected; rollback on failure; and the
// engine's clone refuses to re-sign a base corrupted in memory.

#include <gtest/gtest.h>

#include <functional>

#include "core/client.h"
#include "core/query_engine.h"
#include "core/server.h"
#include "core/update.h"
#include "crypto/rsa.h"
#include "workload/synthetic.h"

namespace imageproof::core {
namespace {

struct UpdateFixture {
  workload::CorpusParams cp;
  OwnerOutput owner;
  std::unique_ptr<ServiceProvider> sp;

  explicit UpdateFixture(Config config, uint64_t seed = 9) {
    config.rsa_bits = 512;
    cp.num_images = 300;
    cp.num_clusters = 128;
    cp.min_distinct = 4;
    cp.max_distinct = 14;
    cp.seed = seed;
    auto corpus = workload::GenerateCorpus(cp);
    std::unordered_map<bovw::ImageId, Bytes> blobs;
    for (const auto& [id, v] : corpus) {
      blobs[id] = workload::GenerateImageBlob(id);
    }
    workload::CodebookParams cbp;
    cbp.num_clusters = 128;
    cbp.dims = 12;
    cbp.seed = seed + 1;
    owner = BuildDeployment(config, workload::GenerateCodebook(cbp),
                            std::move(corpus), std::move(blobs), seed + 2);
    sp = std::make_unique<ServiceProvider>(owner.package.get());
  }

  // Runs a query whose features quantize to the given BoVW vector.
  Result<VerifiedResults> QueryAndVerify(const bovw::BovwVector& target,
                                         size_t k, uint64_t seed) {
    auto features = workload::FeaturesFromBovw(owner.package->codebook, target,
                                               40, 0.2, 0.0, seed);
    QueryResponse resp = sp->Query(features, k);
    Client client(owner.public_params);
    return client.Verify(features, k, resp.vo);
  }
};

class UpdateSchemeTest : public ::testing::TestWithParam<const char*> {
 public:
  static Config ConfigFor(const std::string& name) {
    return name == "ImageProof" ? Config::ImageProof() : Config::OptimizedBoth();
  }
};

TEST_P(UpdateSchemeTest, InsertedImageBecomesRetrievable) {
  UpdateFixture fx(ConfigFor(GetParam()));
  // A distinctive new image: reuse an existing image's words so queries
  // for it have competition, plus a twist.
  bovw::BovwVector new_bovw = fx.owner.package->corpus[5].second;
  for (auto& [c, f] : new_bovw.entries) f += 2;
  const ImageId new_id = 100000;
  Bytes new_data = workload::GenerateImageBlob(new_id);

  auto stats = InsertImage(fx.owner.package.get(), fx.owner.private_key,
                           &fx.owner.public_params, new_id, new_bovw, new_data);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats->lists_updated, new_bovw.entries.size());
  EXPECT_GT(stats->mrkd_nodes_rehashed, 0u);

  auto verified = fx.QueryAndVerify(new_bovw, 3, 77);
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  ASSERT_FALSE(verified->topk.empty());
  EXPECT_EQ(verified->topk[0].id, new_id) << "new image should rank first";
}

TEST_P(UpdateSchemeTest, DeletedImageDisappears) {
  UpdateFixture fx(ConfigFor(GetParam()));
  const ImageId victim = 5;
  bovw::BovwVector victim_bovw = fx.owner.package->corpus[victim].second;

  // Before deletion the image is retrievable by its own vector.
  auto before = fx.QueryAndVerify(victim_bovw, 3, 88);
  ASSERT_TRUE(before.ok()) << before.status().message();
  ASSERT_FALSE(before->topk.empty());
  EXPECT_EQ(before->topk[0].id, victim);

  auto stats = DeleteImage(fx.owner.package.get(), fx.owner.private_key,
                           &fx.owner.public_params, victim);
  ASSERT_TRUE(stats.ok()) << stats.status().message();

  auto after = fx.QueryAndVerify(victim_bovw, 3, 88);
  ASSERT_TRUE(after.ok()) << after.status().message();
  for (const auto& si : after->topk) {
    EXPECT_NE(si.id, victim);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, UpdateSchemeTest,
                         ::testing::Values("ImageProof", "OptimizedBoth"));

TEST(UpdateTest, StaleSignatureRejectedAfterUpdate) {
  UpdateFixture fx(Config::ImageProof());
  PublicParams stale = fx.owner.public_params;

  bovw::BovwVector v;
  v.entries = {{3, 2}, {9, 1}};
  auto stats = InsertImage(fx.owner.package.get(), fx.owner.private_key,
                           &fx.owner.public_params, 200000, v,
                           workload::GenerateImageBlob(200000));
  ASSERT_TRUE(stats.ok()) << stats.status().message();

  // A client still holding the pre-update signature must reject responses
  // from the updated package (the root changed).
  auto features = workload::FeaturesFromBovw(fx.owner.package->codebook, v,
                                             20, 0.2, 0.0, 3);
  QueryResponse resp = fx.sp->Query(features, 3);
  Client stale_client(stale);
  EXPECT_FALSE(stale_client.Verify(features, 3, resp.vo).ok());
  Client fresh_client(fx.owner.public_params);
  EXPECT_TRUE(fresh_client.Verify(features, 3, resp.vo).ok());
}

TEST(UpdateTest, DuplicateInsertAndUnknownDeleteFail) {
  UpdateFixture fx(Config::ImageProof());
  bovw::BovwVector v;
  v.entries = {{1, 1}};
  EXPECT_FALSE(InsertImage(fx.owner.package.get(), fx.owner.private_key,
                           &fx.owner.public_params, /*id=*/7, v, {})
                   .ok())
      << "id 7 already exists";
  EXPECT_FALSE(DeleteImage(fx.owner.package.get(), fx.owner.private_key,
                           &fx.owner.public_params, 999999)
                   .ok());
}

TEST(UpdateTest, InsertDeleteRoundTripRestoresRoot) {
  UpdateFixture fx(Config::ImageProof());
  crypto::Digest original_root = fx.owner.package->RootDigest();
  bovw::BovwVector v;
  v.entries = {{2, 3}, {50, 1}, {90, 2}};
  const ImageId id = 300000;
  ASSERT_TRUE(InsertImage(fx.owner.package.get(), fx.owner.private_key,
                          &fx.owner.public_params, id, v,
                          workload::GenerateImageBlob(id))
                  .ok());
  EXPECT_NE(fx.owner.package->RootDigest(), original_root);
  ASSERT_TRUE(DeleteImage(fx.owner.package.get(), fx.owner.private_key,
                          &fx.owner.public_params, id)
                  .ok());
  // Removing the inserted image restores the exact original ADS state.
  EXPECT_EQ(fx.owner.package->RootDigest(), original_root);
}

TEST(UpdateTest, ManySequentialUpdatesStayConsistent) {
  UpdateFixture fx(Config::ImageProof());
  Rng rng(17);
  for (int step = 0; step < 20; ++step) {
    ImageId id = 400000 + step;
    bovw::BovwVector v;
    std::map<bovw::ClusterId, uint32_t> counts;
    for (int i = 0; i < 6; ++i) {
      counts[static_cast<bovw::ClusterId>(rng.NextBounded(128))] +=
          1 + static_cast<uint32_t>(rng.NextBounded(3));
    }
    v.entries.assign(counts.begin(), counts.end());
    ASSERT_TRUE(InsertImage(fx.owner.package.get(), fx.owner.private_key,
                            &fx.owner.public_params, id, v,
                            workload::GenerateImageBlob(id))
                    .ok());
    if (step % 3 == 0) {
      ASSERT_TRUE(DeleteImage(fx.owner.package.get(), fx.owner.private_key,
                              &fx.owner.public_params,
                              static_cast<ImageId>(step))
                      .ok());
    }
  }
  // The live package still answers verifying queries.
  auto& corpus = fx.owner.package->corpus;
  auto verified =
      fx.QueryAndVerify(corpus[corpus.size() / 2].second, 5, 1234);
  EXPECT_TRUE(verified.ok()) << verified.status().message();
}

// Corrupts committed inputs of the served package in RAM, after their
// digests were derived: the engine's clone (ClonePackage) re-derives every
// digest from those inputs, so each update must fail on the root check,
// publish nothing, and leave the old snapshot serving what it served.
TEST(UpdateTest, CorruptedBaseFailsCloneRootCheck) {
  struct Case {
    const char* what;
    std::function<void(SpPackage&)> corrupt;
  };
  const Case cases[] = {
      {"corpus frequency on a nonzero-weight cluster",
       [](SpPackage& pkg) {
         for (auto& [id, v] : pkg.corpus) {
           for (auto& [c, f] : v.entries) {
             if (pkg.inv_index->weight(c) != 0) {
               f += 1;
               return;
             }
           }
         }
         FAIL() << "no nonzero-weight cluster in the corpus";
       }},
      {"codebook coordinate",
       [](SpPackage& pkg) { pkg.codebook.row(0)[0] += 1.0f; }},
      {"tree split value",
       [](SpPackage& pkg) {
         // The trees are immutable through the package's API; a stray
         // write is exactly what this case simulates.
         const ann::RkdNode& root = pkg.forest->trees()[0]->nodes()[0];
         ASSERT_FALSE(root.IsLeaf());
         const_cast<ann::RkdNode&>(root).split_value += 1.0f;
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    UpdateFixture fx(Config::ImageProof());
    c.corrupt(*fx.owner.package);
    // The engine borrows the fixture's package (the fixture outlives it).
    QueryEngine engine(std::shared_ptr<const SpPackage>(
                           fx.owner.package.get(), [](const SpPackage*) {}),
                       fx.owner.public_params);
    const auto features = workload::FeaturesFromBovw(
        fx.owner.package->codebook, fx.owner.package->corpus[5].second, 40,
        0.2, 0.0, 5);
    EngineResponse before = engine.Submit(features, 5).get();
    ASSERT_TRUE(before.ok()) << before.status.message();

    bovw::BovwVector v;
    v.entries = {{2, 3}, {50, 1}, {90, 2}};
    auto ins = engine.InsertImage(fx.owner.private_key, 500000, v,
                                  workload::GenerateImageBlob(500000));
    ASSERT_FALSE(ins.ok());
    EXPECT_EQ(ins.status().code(), StatusCode::kCorrupted);
    EXPECT_NE(ins.status().message().find("root diverges"), std::string::npos)
        << ins.status().message();

    // The old snapshot stays published: its signature still verifies over
    // its root, and it serves exactly the bytes it served before the
    // update. (A codebook or split-value corruption shows up in the reveals
    // it serves, so clients reject those queries either way.)
    std::shared_ptr<const Snapshot> snap = engine.CurrentSnapshot();
    EXPECT_EQ(snap->version, 0u) << "update over a corrupted base published";
    EXPECT_EQ(snap->package.get(), fx.owner.package.get());
    EXPECT_TRUE(crypto::RsaVerify(snap->params.public_key,
                                  snap->package->RootDigest(),
                                  snap->params.root_signature));
    EngineResponse after = engine.Submit(features, 5).get();
    ASSERT_TRUE(after.ok()) << after.status.message();
    EXPECT_EQ(after.response.vo.Serialize(), before.response.vo.Serialize());
  }
}

}  // namespace
}  // namespace imageproof::core
