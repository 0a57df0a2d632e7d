// Tests for deployment persistence and snapshot cloning: a package cloned by
// core::ClonePackage (from memory or from a mapped .ipk) or written to the
// store and reopened must answer queries whose VOs verify against the
// ORIGINAL owner's signature (bit-identical ADS digests), and malformed
// public parameters must be rejected cleanly.

#include <gtest/gtest.h>

#include <cstdio>

#include "core/client.h"
#include "core/server.h"
#include "core/update.h"
#include "storage/format.h"
#include "storage/package_store.h"
#include "test_support.h"
#include "workload/synthetic.h"

namespace imageproof::storage {
namespace {

core::OwnerOutput BuildSmallDeployment(core::Config config, uint64_t seed = 3) {
  config.rsa_bits = 512;
  workload::CorpusParams cp;
  cp.num_images = 200;
  cp.num_clusters = 96;
  cp.min_distinct = 4;
  cp.max_distinct = 14;
  cp.seed = seed;
  auto corpus = workload::GenerateCorpus(cp);
  std::unordered_map<bovw::ImageId, Bytes> blobs;
  for (const auto& [id, v] : corpus) blobs[id] = workload::GenerateImageBlob(id);
  workload::CodebookParams cbp;
  cbp.num_clusters = 96;
  cbp.dims = 12;
  cbp.seed = seed + 1;
  return core::BuildDeployment(config, workload::GenerateCodebook(cbp),
                               std::move(corpus), std::move(blobs), seed + 2);
}

core::Config SchemeConfig(const std::string& name) {
  if (name == "Baseline") return core::Config::Baseline();
  if (name == "OptimizedBovw") return core::Config::OptimizedBovw();
  if (name == "OptimizedBoth") return core::Config::OptimizedBoth();
  return core::Config::ImageProof();
}

class StorageSchemeTest : public ::testing::TestWithParam<const char*> {};

// ClonePackage re-derives every digest, from an in-memory base and from a
// disk-backed one: both clones carry the signed root and the base's
// content, and serve VOs byte-identical to the base's.
TEST_P(StorageSchemeTest, RoundTripPreservesSignedDigests) {
  core::OwnerOutput owner = BuildSmallDeployment(SchemeConfig(GetParam()));
  testing_support::ScopedTestDir tmp;
  const std::string path = tmp.Path("clone_base.ipk");
  ASSERT_TRUE(PackageStore::Write(path, *owner.package).ok());
  OpenOptions opts;
  opts.params = &owner.public_params;
  auto opened = PackageStore::Open(path, opts);
  ASSERT_TRUE(opened.ok()) << opened.status().message();

  auto features =
      workload::GenerateQueryFeatures(owner.package->codebook, 20, 0.3, 42);
  core::ServiceProvider base_sp(owner.package.get());
  const Bytes base_vo = base_sp.Query(features, 5).vo.Serialize();
  core::Client client(owner.public_params);

  for (const core::SpPackage* base : {owner.package.get(), opened->get()}) {
    SCOPED_TRACE(base->disk_backed() ? "disk-backed base" : "in-memory base");
    auto clone = core::ClonePackage(*base);
    ASSERT_TRUE(clone.ok()) << clone.status().message();
    EXPECT_FALSE((*clone)->disk_backed());
    EXPECT_EQ((*clone)->RootDigest(), owner.package->RootDigest());
    EXPECT_TRUE((*clone)->config == owner.package->config);
    EXPECT_TRUE((*clone)->corpus == owner.package->corpus);
    EXPECT_TRUE((*clone)->ImagesEqual(*owner.package));

    core::ServiceProvider sp(clone->get());
    core::QueryResponse resp = sp.Query(features, 5);
    EXPECT_EQ(resp.vo.Serialize(), base_vo);
    auto verified = client.Verify(features, 5, resp.vo);
    EXPECT_TRUE(verified.ok()) << verified.status().message();
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, StorageSchemeTest,
                         ::testing::Values("Baseline", "ImageProof",
                                           "OptimizedBovw", "OptimizedBoth"));

TEST(StorageTest, PublicParamsRoundTrip) {
  core::OwnerOutput owner = BuildSmallDeployment(core::Config::ImageProof());
  Bytes blob = SerializePublicParams(owner.public_params);
  auto loaded = DeserializePublicParams(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->public_key.n.ToHex(), owner.public_params.public_key.n.ToHex());
  EXPECT_EQ(loaded->public_key.e.ToHex(), owner.public_params.public_key.e.ToHex());
  EXPECT_EQ(loaded->root_signature, owner.public_params.root_signature);
  EXPECT_EQ(loaded->dims, owner.public_params.dims);
  EXPECT_EQ(loaded->num_clusters, owner.public_params.num_clusters);
  EXPECT_EQ(loaded->config.Name(), owner.public_params.config.Name());

  // A client constructed purely from the loaded params works.
  core::ServiceProvider sp(owner.package.get());
  core::Client client(*loaded);
  auto features =
      workload::GenerateQueryFeatures(owner.package->codebook, 15, 0.3, 7);
  core::QueryResponse resp = sp.Query(features, 3);
  EXPECT_TRUE(client.Verify(features, 3, resp.vo).ok());
}

// A deployment persisted as files (package store + params.bin) reopens
// under the params read back from disk.
TEST(StorageTest, FileRoundTrip) {
  core::OwnerOutput owner = BuildSmallDeployment(core::Config::ImageProof());
  testing_support::ScopedTestDir tmp;
  std::string pkg_path = tmp.Path("imageproof_pkg.ipk");
  std::string params_path = tmp.Path("imageproof_params.bin");
  ASSERT_TRUE(PackageStore::Write(pkg_path, *owner.package).ok());
  ASSERT_TRUE(SavePublicParams(params_path, owner.public_params).ok());
  auto params = LoadPublicParams(params_path);
  ASSERT_TRUE(params.ok()) << params.status().message();
  OpenOptions opts;
  opts.params = &*params;
  auto pkg = PackageStore::Open(pkg_path, opts);
  ASSERT_TRUE(pkg.ok()) << pkg.status().message();
  EXPECT_EQ((*pkg)->RootDigest(), owner.package->RootDigest());
}

TEST(StorageTest, MalformedInputsRejected) {
  core::OwnerOutput owner = BuildSmallDeployment(core::Config::ImageProof());
  Bytes blob = SerializePublicParams(owner.public_params);

  EXPECT_EQ(DeserializePublicParams({}).status().code(), StatusCode::kCorrupted);
  Bytes bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(DeserializePublicParams(bad_magic).status().code(),
            StatusCode::kCorrupted);
  Bytes bad_version = blob;
  bad_version[4] ^= 0x01;
  EXPECT_EQ(DeserializePublicParams(bad_version).status().code(),
            StatusCode::kCorrupted);
  Bytes truncated(blob.begin(), blob.begin() + blob.size() / 2);
  EXPECT_EQ(DeserializePublicParams(truncated).status().code(),
            StatusCode::kCorrupted);
  Bytes trailing = blob;
  trailing.push_back(0);
  EXPECT_EQ(DeserializePublicParams(trailing).status().code(),
            StatusCode::kCorrupted);
}

TEST(StorageTest, UpdatedDeploymentSurvivesPersistence) {
  // Regression: incremental updates freeze the tf-idf weights; a load that
  // re-derived weights from the (grown) corpus would diverge from the
  // re-signed root. The stored weights must win.
  core::OwnerOutput owner = BuildSmallDeployment(core::Config::ImageProof());
  bovw::BovwVector v = owner.package->corpus[2].second;
  const bovw::ImageId new_id = 777777;
  auto stats =
      core::InsertImage(owner.package.get(), owner.private_key,
                        &owner.public_params, new_id, v,
                        workload::GenerateImageBlob(new_id));
  ASSERT_TRUE(stats.ok()) << stats.status().message();

  testing_support::ScopedTestDir tmp;
  const std::string path = tmp.Path("updated.ipk");
  ASSERT_TRUE(PackageStore::Write(path, *owner.package).ok());
  OpenOptions opts;
  opts.params = &owner.public_params;
  auto loaded = PackageStore::Open(path, opts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ((*loaded)->RootDigest(), owner.package->RootDigest());

  core::ServiceProvider sp(loaded->get());
  core::Client client(owner.public_params);
  auto features = workload::FeaturesFromBovw((*loaded)->codebook, v, 20, 0.2,
                                             0.0, 11);
  core::QueryResponse resp = sp.Query(features, 3);
  auto verified = client.Verify(features, 3, resp.vo);
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  bool found = false;
  for (const auto& si : verified->topk) found |= (si.id == new_id);
  EXPECT_TRUE(found) << "inserted image retrievable after reload";
}

TEST(StorageTest, MissingFile) {
  EXPECT_FALSE(PackageStore::Open("/nonexistent/path/pkg.ipk").ok());
  EXPECT_FALSE(LoadPublicParams("/nonexistent/path/params.bin").ok());
}

}  // namespace
}  // namespace imageproof::storage
