// Golden-digest regression tests: the ADS digest formats are a wire
// protocol — the owner's signatures, every persisted deployment, and every
// VO depend on them byte-for-byte. These constants pin the current formats
// so an accidental change to any canonical encoding (field order, float
// representation, domain separators) fails loudly instead of silently
// invalidating all previously signed state.
//
// If a test here fails because you *intentionally* changed a format, bump
// the package store version (kStoreVersion in storage/package_store.cc) and
// update the constants — that is a breaking protocol change.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

#include "core/client.h"
#include "core/query_engine.h"
#include "crypto/hasher.h"
#include "invindex/merkle_inv_index.h"
#include "merkle/merkle_tree.h"
#include "mrkd/commit.h"
#include "mrkd/mrkd_tree.h"
#include "obs/metrics.h"
#include "storage/package_store.h"
#include "test_support.h"
#include "workload/synthetic.h"

namespace imageproof {
namespace {

using crypto::Digest;

TEST(GoldenDigestTest, PostingChain) {
  // h(u64 7 | f64 0.25 | 0^256), per Definition 4.
  Digest p =
      invindex::EntryDigest(invindex::Posting{7, 0.25, {}}, Digest::Zero());
  EXPECT_EQ(p.ToHex(),
            "2f2d9f080a239a2c5447268d6051537f00fb6d07e49bcb3760cda8ab0e687646");
}

TEST(GoldenDigestTest, ListDigest) {
  Digest p =
      invindex::EntryDigest(invindex::Posting{7, 0.25, {}}, Digest::Zero());
  Digest l = invindex::ListDigest(1.5, Digest::Zero(), p);
  EXPECT_EQ(l.ToHex(),
            "8b37f05bb928021e4f028cc4859f9d2cfe7c1303629671fa22bfecb4318d15e4");
}

TEST(GoldenDigestTest, FrequencyGroupDigest) {
  invindex::Group g;
  g.freq = 3;
  g.members = {{2, 4.0}, {9, 5.0}};
  Digest gd = invindex::EntryDigest(g, Digest::Zero());
  EXPECT_EQ(gd.ToHex(),
            "36c3373ad9964d17f0bffccc750da6783aba7a21bb140e9bb506ae1f5d3f60ba");
}

TEST(GoldenDigestTest, ClusterCommitments) {
  float coords[16];
  for (int i = 0; i < 16; ++i) coords[i] = static_cast<float>(i) * 0.5f;
  EXPECT_EQ(
      mrkd::ClusterCommitment(mrkd::RevealMode::kFullVector, 5, coords, 16)
          .ToHex(),
      "63a45624a2630c90a6939558965aff84b5205831da1277140549f39f9dc2349f");
  EXPECT_EQ(
      mrkd::ClusterCommitment(mrkd::RevealMode::kDimMerkle, 5, coords, 16)
          .ToHex(),
      "a3135a97f95c238baf1c575431cd074468a732d87d0ee1463ddf81f9c903d9fb");
}

TEST(GoldenDigestTest, GenericMerkleTree) {
  merkle::MerkleTree t({{0x01}, {0x02}, {0x03}});
  EXPECT_EQ(t.root().ToHex(),
            "4f554b3aea550c2f7a86917c8c02a0ee842a813fadec1f4c87569cff27bccd14");
}

TEST(GoldenDigestTest, MrkdInternalNode) {
  Digest p =
      invindex::EntryDigest(invindex::Posting{7, 0.25, {}}, Digest::Zero());
  crypto::DigestBuilder b;
  mrkd::MrkdTree::HashInternal(b, 3, 1.25f, Digest::Zero(), p);
  EXPECT_EQ(b.Finalize().ToHex(),
            "45eff8a4353ec3cf7b04669c667306c1b9094ca4f89089999430db6d855e16e0");
}

// ---------------------------------------------------------------------------
// Engine determinism: the concurrent serving path is a *golden* property of
// the same kind as the digest formats above — at any worker count and any
// intra-query thread count, the engine must emit byte-identical VOs and the
// identical top-k to the serial ServiceProvider::Query. A divergence means
// some parallel loop introduced ordering- or thread-dependent output, which
// would make responses non-reproducible and signatures unverifiable.
// ---------------------------------------------------------------------------

core::OwnerOutput BuildSmallDeployment(const core::Config& config) {
  workload::CorpusParams cp;
  cp.num_images = 250;
  cp.num_clusters = 128;
  cp.seed = 11;
  auto corpus = workload::GenerateCorpus(cp);
  std::unordered_map<bovw::ImageId, Bytes> blobs;
  for (const auto& [id, v] : corpus) blobs[id] = workload::GenerateImageBlob(id);
  workload::CodebookParams cbp;
  cbp.num_clusters = 128;
  cbp.dims = 16;
  return core::BuildDeployment(config, workload::GenerateCodebook(cbp),
                               std::move(corpus), std::move(blobs));
}

void CheckEngineMatchesSerial(core::Config config) {
  config.rsa_bits = 512;
  core::OwnerOutput owner = BuildSmallDeployment(config);
  auto package =
      std::shared_ptr<const core::SpPackage>(std::move(owner.package));

  const size_t kNumQueries = 6;
  const size_t k = 5;
  std::vector<std::vector<std::vector<float>>> queries;
  for (size_t q = 0; q < kNumQueries; ++q) {
    queries.push_back(
        workload::GenerateQueryFeatures(package->codebook, 12, 0.3, 40 + q));
  }

  // Serial ground truth through the legacy one-at-a-time path.
  core::ServiceProvider sp(package.get());
  std::vector<Bytes> serial_vo;
  std::vector<std::vector<bovw::ScoredImage>> serial_topk;
  for (const auto& q : queries) {
    core::QueryResponse resp = sp.Query(q, k);
    serial_vo.push_back(resp.vo.Serialize());
    serial_topk.push_back(resp.topk);
  }

  struct Shape {
    unsigned workers;
    unsigned intra;
  };
  for (Shape shape : {Shape{1, 1}, Shape{2, 2}, Shape{8, 4}}) {
    core::EngineOptions opts;
    opts.num_workers = shape.workers;
    opts.queue_capacity = 4;  // small: exercises Submit backpressure too
    opts.intra_query_threads = shape.intra;
    core::QueryEngine engine(package, owner.public_params, opts);
    std::vector<core::EngineResponse> responses = engine.QueryBatch(queries, k);
    ASSERT_EQ(responses.size(), kNumQueries);
    for (size_t i = 0; i < kNumQueries; ++i) {
      EXPECT_EQ(responses[i].response.vo.Serialize(), serial_vo[i])
          << config.Name() << " workers=" << shape.workers
          << " intra=" << shape.intra << " query " << i
          << ": VO bytes diverged from the serial path";
      const auto& topk = responses[i].response.topk;
      ASSERT_EQ(topk.size(), serial_topk[i].size());
      for (size_t j = 0; j < topk.size(); ++j) {
        EXPECT_EQ(topk[j].id, serial_topk[i][j].id);
        EXPECT_EQ(topk[j].score, serial_topk[i][j].score);
      }
    }
    core::EngineStats stats = engine.Stats();
    EXPECT_EQ(stats.in_flight, 0u);
    // Counter-backed stats read zero when the obs layer is compiled out.
    if (obs::kMetricsEnabled) {
      EXPECT_EQ(stats.queries_served, kNumQueries);
      EXPECT_GT(stats.p50_latency_ms, 0.0);
      EXPECT_GE(stats.p99_latency_ms, stats.p50_latency_ms);
    }
  }
}

TEST(EngineDeterminismTest, ImageProofConfigByteIdenticalAcrossThreadCounts) {
  CheckEngineMatchesSerial(core::Config::ImageProof());
}

TEST(EngineDeterminismTest, OptimizedBothConfigByteIdenticalAcrossThreadCounts) {
  CheckEngineMatchesSerial(core::Config::OptimizedBoth());
}

// ---------------------------------------------------------------------------
// Golden proof bytes: the served VOs and the written package file of fixed
// seeded deployments, pinned by SHA3 across commits. The digest tests above
// pin the hash preimages; these pin everything around them — pop schedules,
// VO framing, both VO encodings, the settle pass, the lazy schedule and the
// .ipk postings codec — for every scheme and both inverted-index kinds. A
// refactor of the inverted-index engine must leave all of them unchanged.
// On a failure, every actual value is printed so an intentional format
// change can be re-blessed in one pass (and must be called out as one).
// ---------------------------------------------------------------------------

std::string Sha3Hex(const Bytes& b) { return crypto::Sha3(b).ToHex(); }

core::OwnerOutput BuildGoldenDeployment(core::Config config) {
  config.rsa_bits = 512;
  return BuildSmallDeployment(config);
}

std::vector<std::vector<std::vector<float>>> GoldenQueries(
    const core::SpPackage& pkg) {
  std::vector<std::vector<std::vector<float>>> queries;
  for (uint64_t q = 0; q < 4; ++q) {
    queries.push_back(
        workload::GenerateQueryFeatures(pkg.codebook, 12, 0.3, 70 + q));
  }
  return queries;
}

struct GoldenVoCase {
  const char* scheme;
  bool compress;
  bool settle;
  const char* inv_vo_sha3;     // over the length-prefixed inverted VOs
  const char* query_vo_sha3;   // over the length-prefixed serialized QueryVOs
};

// "+fpN" shrinks the cuckoo fingerprints to N bits (one digit): frequent
// false positives make the settle pass pop beyond the termination
// conditions, so its schedule is pinned too (with 8-bit fingerprints it
// rarely fires on a deployment this small).
core::Config SchemeConfig(const std::string& scheme) {
  if (size_t at = scheme.find("+fp"); at != std::string::npos) {
    core::Config c = SchemeConfig(scheme.substr(0, at));
    c.fingerprint_bits = static_cast<uint32_t>(scheme[at + 3] - '0');
    return c;
  }
  if (scheme == "Baseline") return core::Config::Baseline();
  if (scheme == "ImageProof") return core::Config::ImageProof();
  if (scheme == "OptimizedBovw") return core::Config::OptimizedBovw();
  if (scheme == "OptB") {
    core::Config c = core::Config::ImageProof();
    c.freq_grouped = true;
    return c;
  }
  return core::Config::OptimizedBoth();
}

TEST(GoldenVoTest, ServedVoBytesPinnedForEverySchemeAndEncoding) {
  const GoldenVoCase kCases[] = {
      {"Baseline", false, false,
       "aaf0e8e25b04579a566840c6247a196403496a4e2b456063ae889b136b4f8314",
       "67d9356df9919da6433d0ca97879bf0da632d216b6bd516c78441b325abb6efd"},
      {"Baseline", false, true,
       "9181144eb97e7df9a3134f7c1b15603b8c4ea847a3f51f7100c8449e89297d15",
       "bbfe5936d3cdf67c5a48cd9b1753326f3036d5da343dcec88f81d28851e92525"},
      {"Baseline", true, false,
       "b69139b9fe2c14826f142696ccc84b3b6230508bad6f4e843beb16688fcfb9b7",
       "ee8cdec8e710129d43cde954ebfade61266c4fc2d2f27a1185127f8cfe878193"},
      {"Baseline", true, true,
       "9d4280f661a3eafe6be6a72bd1da9feef12fea296f40f45c638385ac69c36bc4",
       "8782dc76d5ab3527eae754880e4fffebffdff23f5fbcc936f1c0a3fbe0486390"},
      {"ImageProof", false, false,
       "e453db722e2a49f0eefd6802caa83961d2d02c25d8789086c3725d82592cf69d",
       "aca2c7f871590a2c33c9ef9d8cc7b8ab2c7f16ccd0fdc493ad6f9aa67d645080"},
      {"ImageProof", false, true,
       "e453db722e2a49f0eefd6802caa83961d2d02c25d8789086c3725d82592cf69d",
       "aca2c7f871590a2c33c9ef9d8cc7b8ab2c7f16ccd0fdc493ad6f9aa67d645080"},
      {"ImageProof", true, false,
       "8828e515eee43e88ea6ec2ce4a067270426b4445f784d595b6a5a3dfc4239270",
       "a4cca69f177136fedc478f57aa530c23a8b84553f5ef2848d9a4a77f307baa10"},
      {"ImageProof", true, true,
       "8828e515eee43e88ea6ec2ce4a067270426b4445f784d595b6a5a3dfc4239270",
       "a4cca69f177136fedc478f57aa530c23a8b84553f5ef2848d9a4a77f307baa10"},
      {"OptimizedBovw", false, false,
       "e453db722e2a49f0eefd6802caa83961d2d02c25d8789086c3725d82592cf69d",
       "7664de005dbcea66761e96a2d02e8859b9572df0fe4dcaa989c638b6633192e4"},
      {"OptimizedBovw", false, true,
       "e453db722e2a49f0eefd6802caa83961d2d02c25d8789086c3725d82592cf69d",
       "7664de005dbcea66761e96a2d02e8859b9572df0fe4dcaa989c638b6633192e4"},
      {"OptimizedBovw", true, false,
       "8828e515eee43e88ea6ec2ce4a067270426b4445f784d595b6a5a3dfc4239270",
       "db4f6ac7237413a44ce7898d61878231673a03b3a6e62bc2e74347bc62ed58e9"},
      {"OptimizedBovw", true, true,
       "8828e515eee43e88ea6ec2ce4a067270426b4445f784d595b6a5a3dfc4239270",
       "db4f6ac7237413a44ce7898d61878231673a03b3a6e62bc2e74347bc62ed58e9"},
      {"OptB", false, false,
       "93be6c72a45b41439e6bdc4612cc70ba631e49392577e2ef700466be3fc21820",
       "c0846eb966d8ed2abd5fe23135f0b676b1f8268e1f6b2320d8214f8f12e07bd4"},
      {"OptB", false, true,
       "93be6c72a45b41439e6bdc4612cc70ba631e49392577e2ef700466be3fc21820",
       "c0846eb966d8ed2abd5fe23135f0b676b1f8268e1f6b2320d8214f8f12e07bd4"},
      {"OptB", true, false,
       "cdbd6a1966933ebe33a8fd666910bab93dce664eda1e7fd871e1f4cc95d08c08",
       "228b2641a70a8c5d4b3fe51abbe38c609111f00d43997eb7c66400bab488a530"},
      {"OptB", true, true,
       "cdbd6a1966933ebe33a8fd666910bab93dce664eda1e7fd871e1f4cc95d08c08",
       "228b2641a70a8c5d4b3fe51abbe38c609111f00d43997eb7c66400bab488a530"},
      {"OptimizedBoth", false, false,
       "93be6c72a45b41439e6bdc4612cc70ba631e49392577e2ef700466be3fc21820",
       "3e1110882d020e3ba1b6b1113cae2eb6c4d0c81ca0b99687e382a04cdc669828"},
      {"OptimizedBoth", false, true,
       "93be6c72a45b41439e6bdc4612cc70ba631e49392577e2ef700466be3fc21820",
       "3e1110882d020e3ba1b6b1113cae2eb6c4d0c81ca0b99687e382a04cdc669828"},
      {"OptimizedBoth", true, false,
       "cdbd6a1966933ebe33a8fd666910bab93dce664eda1e7fd871e1f4cc95d08c08",
       "267f0a9e29dd11b54918923153a7793f9262ab193a409160c25289ddb785ee40"},
      {"OptimizedBoth", true, true,
       "cdbd6a1966933ebe33a8fd666910bab93dce664eda1e7fd871e1f4cc95d08c08",
       "267f0a9e29dd11b54918923153a7793f9262ab193a409160c25289ddb785ee40"},
      {"ImageProof+fp4", false, false,
       "2e0d202810602a253ba2f54aaadfba2667e263a8f604b3ee06eebfd9dd68e746",
       "4484e3920ed2f1b483f94ba8fe8caf13a6bee58db4fd0fbb71f26e8331a2564f"},
      {"ImageProof+fp4", false, true,
       "e164b1155ec8790eae32cc09d06b738cccb5ce6382e2ff667a445db3675f6ab7",
       "444367abaf05bd63acdf55fe6ef03e0630fc56d3494aea8a8a809e52f934a08f"},
      {"ImageProof+fp4", true, true,
       "2631fe53d68f9a6276d3977821fda7e825a83d9a8a52c3479c9b7a7d10539593",
       "5c4828d556ef3461255578e72d6765d2b95979d2f090739d8901193e3c70e708"},
      {"OptB+fp2", false, false,
       "4989b2f5d6371182d5648636aad47ddd45e087639ad13dd9c449d0e6e5c8ae38",
       "fdf69a5ffb81751b7ffecd6d77bd39a6bef704b01fd72f4704bf868e934cc4bb"},
      {"OptB+fp2", false, true,
       "7f6d534e895f0cb0c7cf501b013ab53506c87ec9111894d276528ed27618fba0",
       "2d706fa15b7b525ffe912576e5a2b110c87357999a63e6072fb77a14f043f397"},
      {"OptB+fp2", true, true,
       "9dc0b4d9159f76d63800fde066663f6d8a3b25c51ea880f7aae7382e4bd08e23",
       "a12ab229af0ee3851266f67dd05cabe44d12c863e2ce9aeeedb8049d17cc9e1d"},
  };
  const size_t k = 5;
  std::string actual;
  bool all_match = true;
  std::string built_scheme;
  core::OwnerOutput owner;
  for (const GoldenVoCase& c : kCases) {
    if (built_scheme != c.scheme) {
      owner = BuildGoldenDeployment(SchemeConfig(c.scheme));
      built_scheme = c.scheme;
    }
    const core::SpPackage& pkg = *owner.package;
    core::ServiceProvider sp(&pkg);
    core::Client client(owner.public_params);
    core::ServeOptions serve;
    serve.compress_vo = c.compress;
    serve.settle_exact_topk = c.settle;
    ByteWriter inv, full;
    for (const auto& features : GoldenQueries(pkg)) {
      core::QueryResponse resp;
      ASSERT_TRUE(sp.Query(features, k, {}, {}, serve, &resp).ok());
      // Only accepted proofs are worth pinning.
      ASSERT_TRUE(client.Verify(features, k, resp.vo).ok())
          << c.scheme << " compress=" << c.compress << " settle=" << c.settle;
      inv.PutBlob(resp.vo.inv_vo);
      full.PutBlob(resp.vo.Serialize());
    }
    const std::string inv_hex = Sha3Hex(inv.bytes());
    const std::string full_hex = Sha3Hex(full.bytes());
    all_match = all_match && inv_hex == c.inv_vo_sha3 &&
                full_hex == c.query_vo_sha3;
    actual += std::string("      {\"") + c.scheme + "\", " +
              (c.compress ? "true" : "false") + ", " +
              (c.settle ? "true" : "false") + ",\n       \"" + inv_hex +
              "\",\n       \"" + full_hex + "\"},\n";
  }
  EXPECT_TRUE(all_match) << "actual values:\n" << actual;
}

std::string WrittenPackageSha3(const core::Config& config) {
  core::OwnerOutput owner = BuildGoldenDeployment(config);
  testing_support::ScopedTestDir dir;
  const std::string path = dir.Path("golden.ipk");
  EXPECT_TRUE(storage::PackageStore::Write(path, *owner.package).ok());
  std::ifstream in(path, std::ios::binary);
  Bytes file((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  EXPECT_FALSE(file.empty());
  return Sha3Hex(file);
}

TEST(GoldenVoTest, PostingKindPackageFilePinned) {
  EXPECT_EQ(WrittenPackageSha3(core::Config::ImageProof()),
            "197c5bd2a5fd5f2e1aa551210d1e0ac8112561f5b1c2c16a19459aa8300df6c2");
}

TEST(GoldenVoTest, GroupKindPackageFilePinned) {
  EXPECT_EQ(WrittenPackageSha3(core::Config::OptimizedBoth()),
            "6696cb010a4970379d6a2129ddf6fcb0d14eb8dd75f07cab0f6ad3240f6f573f");
}

}  // namespace
}  // namespace imageproof
