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
       "e44a64a2e4ec9a67093050d30c8a494a8d854ec075add025f9c8ff7c8ca7c39d",
       "d6b2526ced8eec608ab77eeaa00ebd97297943b968be53b96dd151d0db8d6499"},
      {"Baseline", false, true,
       "c86ea167a7294293cd013a33fa41d5b2a0cb9e43e67f29591d4e8754bed4203e",
       "08269e65b80dacd4b3fa12bab0add29aaa562cf467b48836b91b7cffd6abb2e3"},
      {"Baseline", true, false,
       "aef9b10e4c1f6976383c6822660eb2feed2a6dbe65856bc23b4dd6115c8afeb2",
       "49f3957bbcf53b1569ceb2eaa1cf76595f7c06f9fc155e4e26afe8a91c8d4f5c"},
      {"Baseline", true, true,
       "e0d8be20fb8122179070d0a7fffc38ec6a3c78cd0a255d0ed3cf1d5d7220693d",
       "d9ff442d3fe7cfc8eb4c0385a6df65f9310de6641e02ece895a1f095fb5a214f"},
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
       "4226ce898cf93b68ea2fabc14ceb18ac86e1524982ae97e6397a918b38a183b3",
       "03c0c47b4ea9eb2c26190b7c7f2355c77765bfbae2628a420ee41d669f8728be"},
      {"OptB", false, true,
       "4226ce898cf93b68ea2fabc14ceb18ac86e1524982ae97e6397a918b38a183b3",
       "03c0c47b4ea9eb2c26190b7c7f2355c77765bfbae2628a420ee41d669f8728be"},
      {"OptB", true, false,
       "6123c445b15b2d3cc20d09e344219f0a534767bff67214551081d50870274864",
       "99aac65ddf92aa317e1dfa3aaa8192574ef82d5c7a18efb251f109d06302309b"},
      {"OptB", true, true,
       "6123c445b15b2d3cc20d09e344219f0a534767bff67214551081d50870274864",
       "99aac65ddf92aa317e1dfa3aaa8192574ef82d5c7a18efb251f109d06302309b"},
      {"OptimizedBoth", false, false,
       "4226ce898cf93b68ea2fabc14ceb18ac86e1524982ae97e6397a918b38a183b3",
       "07f17e274afa7afde3c4c001c111a2d6f912cc5cfa8bfdf4d1490676d3a3817f"},
      {"OptimizedBoth", false, true,
       "4226ce898cf93b68ea2fabc14ceb18ac86e1524982ae97e6397a918b38a183b3",
       "07f17e274afa7afde3c4c001c111a2d6f912cc5cfa8bfdf4d1490676d3a3817f"},
      {"OptimizedBoth", true, false,
       "6123c445b15b2d3cc20d09e344219f0a534767bff67214551081d50870274864",
       "467ac8f5fc23bb49cc517661029427c3006d6f1593f91c003d172bcf295d002c"},
      {"OptimizedBoth", true, true,
       "6123c445b15b2d3cc20d09e344219f0a534767bff67214551081d50870274864",
       "467ac8f5fc23bb49cc517661029427c3006d6f1593f91c003d172bcf295d002c"},
      {"ImageProof+fp4", false, false,
       "f9fe89f6ac2b4feff9b58984ee97b16e193b0e31308bdae48d7e7d13b8c9dd24",
       "f19adcb2d2687c8c85811e7811b61fa8a306f097dbd71502fc486b669613286a"},
      {"ImageProof+fp4", false, true,
       "1dd1c897cd3f6a12702bfe0da201ea991ae6c4961b90e7d7798b32b4007718a3",
       "fce5aa268ae4b9ed13605c7fa87847020174bc07450c5f641776f2bd92bcf7cb"},
      {"ImageProof+fp4", true, true,
       "f1b71a47dabb241790f785d1f8c76b1f56a902f0a6de3d293b122c1c5df8b81d",
       "c61273fd2845900c3532171a335544eace5e99234c1126b82a52e51ac94407b8"},
      {"OptB+fp2", false, false,
       "3084036a4ed4a7d06745eeae18197b94234a74c5a9a8d0323878b61943fa8eb0",
       "a4dea59b331367d9fd8bec30a7cd7a6ff771a45620d5cd2cc90164fce23f4fd6"},
      {"OptB+fp2", false, true,
       "45e24fecbdb8bfc31a7e43c182f51eeb3b418236092183cbfc1f0c1b54b75be8",
       "a5c7f9951a98d2e5540bfe394e8a9bdd9c191312035ed0770557f5fd6e170d58"},
      {"OptB+fp2", true, true,
       "ed14b8feea909be889896a73a08655f9b4cf832905e2ae075390e3e3467d7eea",
       "2ac041d95d3875118bc30e27de88c8f27e61a74b4bca355d4c0eb40479000b6d"},
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

TEST(GoldenVoTest, LazyTopkVoBytesPinned) {
  core::OwnerOutput owner = BuildGoldenDeployment(core::Config::ImageProof());
  const core::SpPackage& pkg = *owner.package;
  invindex::InvSearchParams params;
  params.k = 10;
  params.lazy_topk_pops = true;
  ByteWriter vos;
  for (size_t i = 0; i < 6; ++i) {
    invindex::InvSearchResult r =
        invindex::InvSearch(*pkg.inv_index, pkg.corpus[7 * i].second, params);
    vos.PutBlob(r.vo);
  }
  EXPECT_EQ(Sha3Hex(vos.bytes()),
            "6952929c1d56c2bb662081eca03f7de85044091163b1f1e6f793cb3106d160ef");
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
