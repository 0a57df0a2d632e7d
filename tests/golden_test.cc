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
       "bbf54fbb1e70453796396fc6f51991cff8a1f879edee96171c03f3093c8fc55c",
       "ef3696b1ed969dbdfc419ebf95e654cc88279c296cb2898ccb08b371587c2242"},
      {"Baseline", false, true,
       "660f83a30258d17a9817707bd669cf4823ef955d18956411aa071b37ae7aab6e",
       "fdf775c5917ca8c7a9162064461b4eccb5d3dae3e52d176dfa391e476468d42a"},
      {"Baseline", true, false,
       "ac52b1e11ff90954264bb3f4676d430903c8a3da96b83d697ef4d371d58cd159",
       "e1d9898fa2ec9a2779d8d4cd64eb19e378d16a96827bbd64c0ccf32df6a8f4f0"},
      {"Baseline", true, true,
       "5c29a72ef12d07743e847d5840c11ce2301fc2fcde87f17a3e8b3e1eedded5b9",
       "91d1b9773f7bc71d18ef54c076a4a3bd265faa881192046d331267faa3b7f7a6"},
      {"ImageProof", false, false,
       "3f3b77de7dfe438130fefe194ce315a0b8e75d4c5a6e4e50dd5503476b0f8c7e",
       "75a44e97104e2400beffa8cd99f8ecc0b6f9b464e5394b51b0bc76917ff14d70"},
      {"ImageProof", false, true,
       "3f3b77de7dfe438130fefe194ce315a0b8e75d4c5a6e4e50dd5503476b0f8c7e",
       "75a44e97104e2400beffa8cd99f8ecc0b6f9b464e5394b51b0bc76917ff14d70"},
      {"ImageProof", true, false,
       "a2c85f5c3ecc772f147c86ca3555d697c7e53940d98d36f0b40e32b7b7c05daf",
       "011f8fa3c773dbac444682446794e3c303fb0d8c3e946dcc52c830c36f7f47b9"},
      {"ImageProof", true, true,
       "a2c85f5c3ecc772f147c86ca3555d697c7e53940d98d36f0b40e32b7b7c05daf",
       "011f8fa3c773dbac444682446794e3c303fb0d8c3e946dcc52c830c36f7f47b9"},
      {"OptimizedBovw", false, false,
       "3f3b77de7dfe438130fefe194ce315a0b8e75d4c5a6e4e50dd5503476b0f8c7e",
       "45cb8374a7d6c5018063b8b37a952404f39097eb03bc0ef322252348cf8d5a20"},
      {"OptimizedBovw", false, true,
       "3f3b77de7dfe438130fefe194ce315a0b8e75d4c5a6e4e50dd5503476b0f8c7e",
       "45cb8374a7d6c5018063b8b37a952404f39097eb03bc0ef322252348cf8d5a20"},
      {"OptimizedBovw", true, false,
       "a2c85f5c3ecc772f147c86ca3555d697c7e53940d98d36f0b40e32b7b7c05daf",
       "9dd01eb24c466d2a1f702c811211e8319f93dc74c7511520fd2273be02eac5b4"},
      {"OptimizedBovw", true, true,
       "a2c85f5c3ecc772f147c86ca3555d697c7e53940d98d36f0b40e32b7b7c05daf",
       "9dd01eb24c466d2a1f702c811211e8319f93dc74c7511520fd2273be02eac5b4"},
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
       "e2aad018731e7691d35768b732c95e5123e3c2860ed32e701f2995f4b53ad751",
       "647823a49d0bce9be3e6211efafe5f5202faf4cafb2dd6fa7ab5a376479bc1bf"},
      {"ImageProof+fp4", false, true,
       "fe9d0ef966893101de095e158b948a00a67cb34bb1350a07a1779586138c4db9",
       "b2ee034095eb00f00258890b53216efc45a7d725b729a27393dbd1fdf7c8f0a0"},
      {"ImageProof+fp4", true, true,
       "f89bc36f3ab7e796849b5429ee17e4ad88ff61d44ce892f957e8b34d71067668",
       "b0ebabc9e72c785ff1853f630c7153a1e40faca14cc7f126051d8cbefa01acd6"},
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
            "c2d8e48055a087bc40627486269f7f09578901fed43d34f7c3b7a6fadd4e69ec");
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
