// Sharded scatter-gather serving tests: manifest/composite codecs, the
// golden merge identity (merged output byte-identical across shard counts
// AND fan-out thread counts, and equal to the unsharded settled serve),
// update isolation (one shard epoch-swaps under live query load), the
// one-epoch freshness window, the remote (wire) composite path, and
// persistence round-trips. Adversarial composite mutations live in
// security_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/client.h"
#include "core/owner.h"
#include "core/query_engine.h"
#include "core/server.h"
#include "crypto/hasher.h"
#include "net/client.h"
#include "net/server.h"
#include "shard/composite.h"
#include "shard/composite_client.h"
#include "shard/coordinator.h"
#include "shard/manifest.h"
#include "shard/planner.h"
#include "storage/file_io.h"
#include "test_support.h"
#include "workload/synthetic.h"

namespace imageproof {
namespace {

void FlipByte(const std::string& path, size_t offset, uint8_t mask = 0xFF) {
  Bytes data;
  ASSERT_TRUE(storage::ReadFileBytes(path, &data).ok());
  ASSERT_LT(offset, data.size());
  data[offset] ^= mask;
  ASSERT_TRUE(storage::AtomicWriteFile(path, data).ok());
}

crypto::Digest DigestOf(const char* s) {
  crypto::DigestBuilder b;
  b.AddString(s);
  return b.Finalize();
}

// ---------------------------------------------------------------------------
// Manifest codec + signature
// ---------------------------------------------------------------------------

shard::ShardManifest MakeManifest() {
  shard::ShardManifest m;
  m.num_shards = 2;
  m.epoch = 7;
  m.shards.resize(2);
  m.shards[0].current = DigestOf("root-0");
  m.shards[0].current_signature = Bytes{1, 2, 3};
  m.shards[1].current = DigestOf("root-1b");
  m.shards[1].current_signature = Bytes{4, 5};
  m.shards[1].has_prev = true;
  m.shards[1].prev = DigestOf("root-1a");
  m.shards[1].prev_signature = Bytes{6};
  return m;
}

TEST(ShardManifestTest, SignSerializeRoundTrip) {
  Rng rng(42);
  crypto::RsaKeyPair keys = crypto::RsaKeyPair::Generate(512, rng);
  shard::ShardManifest m = MakeManifest();
  m.Sign(keys.private_key);
  EXPECT_TRUE(m.VerifySignature(keys.public_key));

  shard::ShardManifest out;
  ASSERT_TRUE(shard::ShardManifest::Deserialize(m.Serialize(), &out).ok());
  EXPECT_TRUE(out.VerifySignature(keys.public_key));
  EXPECT_EQ(out.num_shards, 2u);
  EXPECT_EQ(out.epoch, 7u);
  ASSERT_EQ(out.shards.size(), 2u);
  EXPECT_TRUE(out.shards[0].Allows(DigestOf("root-0")));
  EXPECT_FALSE(out.shards[0].Allows(DigestOf("root-1b")));
  EXPECT_TRUE(out.shards[1].Allows(DigestOf("root-1b")));
  EXPECT_TRUE(out.shards[1].Allows(DigestOf("root-1a")));  // one-epoch window
  EXPECT_FALSE(out.shards[1].Allows(DigestOf("root-0")));
  EXPECT_EQ(out.shards[1].prev_signature, Bytes{6});

  // Any field edit breaks the signature.
  out.epoch = 8;
  EXPECT_FALSE(out.VerifySignature(keys.public_key));
  out.epoch = 7;
  EXPECT_TRUE(out.VerifySignature(keys.public_key));
  out.shards[1].has_prev = false;
  EXPECT_FALSE(out.VerifySignature(keys.public_key));
}

TEST(ShardManifestTest, DecoderHardened) {
  Rng rng(43);
  crypto::RsaKeyPair keys = crypto::RsaKeyPair::Generate(512, rng);
  shard::ShardManifest m = MakeManifest();
  m.Sign(keys.private_key);
  const Bytes good = m.Serialize();
  shard::ShardManifest out;
  ASSERT_TRUE(shard::ShardManifest::Deserialize(good, &out).ok());

  Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_EQ(shard::ShardManifest::Deserialize(trailing, &out).code(),
            StatusCode::kCorrupted);

  for (size_t len = 0; len < good.size(); ++len) {
    Bytes cut(good.begin(), good.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(shard::ShardManifest::Deserialize(cut, &out).ok())
        << "truncation to " << len << " bytes accepted";
  }

  // Single-byte corruption either fails to decode or decodes to a manifest
  // whose owner signature no longer verifies — never crashes, never yields
  // an authentic-looking manifest.
  for (size_t i = 0; i < good.size(); ++i) {
    Bytes mut = good;
    mut[i] ^= 0xFF;
    shard::ShardManifest decoded;
    if (shard::ShardManifest::Deserialize(mut, &decoded).ok()) {
      EXPECT_FALSE(decoded.VerifySignature(keys.public_key))
          << "byte " << i << " flip kept the signature valid";
    }
  }

  // A zero-shard manifest is structurally invalid.
  shard::ShardManifest empty;
  empty.signature = Bytes{1};
  EXPECT_EQ(shard::ShardManifest::Deserialize(empty.Serialize(), &out).code(),
            StatusCode::kCorrupted);
}

TEST(ShardManifestTest, SaveLoadAndTamper) {
  Rng rng(44);
  crypto::RsaKeyPair keys = crypto::RsaKeyPair::Generate(512, rng);
  shard::ShardManifest m = MakeManifest();
  m.Sign(keys.private_key);
  testing_support::ScopedTestDir tmp;
  const std::string path = tmp.Path("shard_manifest_roundtrip");
  ASSERT_TRUE(shard::SaveManifest(path, m).ok());
  Result<shard::ShardManifest> loaded = shard::LoadManifest(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->VerifySignature(keys.public_key));
  EXPECT_EQ(loaded->Serialize(), m.Serialize());
}

// ---------------------------------------------------------------------------
// Composite codec
// ---------------------------------------------------------------------------

TEST(CompositeCodecTest, RoundTripAndHardened) {
  shard::CompositeVO vo;
  vo.manifest_bytes = Bytes{1, 2, 3, 4};
  vo.entries.push_back({0, 5, Bytes{7, 8}, Bytes{9}});
  vo.entries.push_back({1, 6, Bytes{}, Bytes{1, 2, 3}});
  const Bytes good = vo.Serialize();

  shard::CompositeVO out;
  ASSERT_TRUE(shard::CompositeVO::Deserialize(good, &out).ok());
  EXPECT_EQ(out.manifest_bytes, vo.manifest_bytes);
  ASSERT_EQ(out.entries.size(), 2u);
  EXPECT_EQ(out.entries[0].shard_id, 0u);
  EXPECT_EQ(out.entries[0].snapshot_version, 5u);
  EXPECT_EQ(out.entries[0].root_signature, (Bytes{7, 8}));
  EXPECT_EQ(out.entries[1].vo_bytes, (Bytes{1, 2, 3}));

  Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_EQ(shard::CompositeVO::Deserialize(trailing, &out).code(),
            StatusCode::kCorrupted);

  for (size_t len = 0; len < good.size(); ++len) {
    Bytes cut(good.begin(), good.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(shard::CompositeVO::Deserialize(cut, &out).ok());
  }

  shard::CompositeVO empty;
  empty.manifest_bytes = Bytes{1};
  EXPECT_EQ(shard::CompositeVO::Deserialize(empty.Serialize(), &out).code(),
            StatusCode::kCorrupted);
}

// ---------------------------------------------------------------------------
// End-to-end sharded serving
// ---------------------------------------------------------------------------

struct TestData {
  core::Config config;
  ann::PointSet codebook;
  std::vector<std::pair<bovw::ImageId, bovw::BovwVector>> corpus;
  std::unordered_map<bovw::ImageId, Bytes> blobs;
};

TestData MakeData(size_t num_images = 120) {
  TestData d;
  d.config = core::Config::ImageProof();
  d.config.rsa_bits = 512;
  workload::CorpusParams cp;
  cp.num_images = num_images;
  cp.num_clusters = 96;
  cp.min_distinct = 4;
  cp.max_distinct = 14;
  cp.seed = 11;
  d.corpus = workload::GenerateCorpus(cp);
  workload::CodebookParams cbp;
  cbp.num_clusters = 96;
  cbp.dims = 12;
  cbp.seed = 12;
  d.codebook = workload::GenerateCodebook(cbp);
  for (const auto& [id, v] : d.corpus) {
    d.blobs[id] = workload::GenerateImageBlob(id);
  }
  return d;
}

std::vector<std::vector<float>> QueryFeatures(const TestData& d) {
  // A query derived from image 3, so the top result set is stable and
  // spans shards (image 3's near-duplicate group has members on both sides
  // of any id-mod partition).
  return workload::FeaturesFromBovw(d.codebook, d.corpus[3].second, 24, 0.2,
                                    0.1, 99);
}

std::unique_ptr<shard::Coordinator> MakeCoordinator(
    shard::ShardedDeployment deployment, unsigned fanout_threads) {
  std::vector<std::unique_ptr<shard::ShardBackend>> backends;
  for (core::OwnerOutput& s : deployment.shards) {
    std::shared_ptr<const core::SpPackage> pkg(std::move(s.package));
    backends.push_back(std::make_unique<shard::LocalShardBackend>(
        std::move(pkg), s.public_params, deployment.keys.private_key));
  }
  shard::CoordinatorOptions opts;
  opts.fanout_threads = fanout_threads;
  return std::make_unique<shard::Coordinator>(
      std::move(backends), deployment.manifest, deployment.keys.private_key,
      opts);
}

TEST(ShardServingTest, GoldenMergeByteIdentityAcrossLayouts) {
  TestData d = MakeData();
  const std::vector<std::vector<float>> features = QueryFeatures(d);
  const size_t k = 5;

  std::vector<bovw::ScoredImage> reference;
  std::vector<Bytes> reference_images;
  for (uint32_t shards : {1u, 2u, 4u}) {
    Bytes single_thread_bytes;
    for (unsigned threads : {1u, 4u}) {
      shard::ShardedDeployment dep = shard::ShardPlanner::Build(
          d.config, d.codebook, d.corpus, d.blobs, shards);
      const core::PublicParams base = dep.shards[0].public_params;
      std::unique_ptr<shard::Coordinator> coord =
          MakeCoordinator(std::move(dep), threads);
      Result<Bytes> r = coord->Query(features, k);
      ASSERT_TRUE(r.ok()) << shards << " shards: " << r.status().message();

      shard::CompositeClient client(base);
      Result<shard::CompositeVerifiedResults> v =
          client.VerifyComposite(features, k, *r);
      ASSERT_TRUE(v.ok()) << shards << " shards: " << v.status().message();
      EXPECT_EQ(v->num_shards, shards);
      ASSERT_EQ(v->topk.size(), v->images.size());
      for (const core::VerifiedResults& ps : v->per_shard) {
        EXPECT_TRUE(ps.topk_scores_exact);
      }

      // The composite BYTES are identical across fan-out thread counts:
      // parallelism must not leak into the proof.
      if (threads == 1u) {
        single_thread_bytes = *r;
      } else {
        EXPECT_EQ(single_thread_bytes, *r)
            << shards << " shards: composite bytes differ across thread "
            << "counts";
      }

      // The merged output is identical across shard counts.
      if (reference.empty()) {
        reference = v->topk;
        reference_images = v->images;
        ASSERT_EQ(reference.size(), k);
      } else {
        ASSERT_EQ(v->topk.size(), reference.size());
        for (size_t i = 0; i < reference.size(); ++i) {
          EXPECT_EQ(v->topk[i].id, reference[i].id) << "rank " << i;
          EXPECT_EQ(v->topk[i].score, reference[i].score) << "rank " << i;
          EXPECT_EQ(v->images[i], reference_images[i]) << "rank " << i;
        }
      }
    }
  }

  // And identical to the unsharded settled serve over the same corpus: the
  // frozen global idf weights make every per-image score independent of the
  // partition, so sharding is invisible in the verified answer.
  core::OwnerOutput owner =
      core::BuildDeployment(d.config, d.codebook, d.corpus, d.blobs);
  core::ServiceProvider sp(owner.package.get());
  core::ServeOptions serve;
  serve.settle_exact_topk = true;
  core::QueryResponse resp;
  ASSERT_TRUE(sp.Query(features, k, {}, {}, serve, &resp).ok());
  core::Client client(owner.public_params);
  Result<core::VerifiedResults> v = client.Verify(features, k, resp.vo);
  ASSERT_TRUE(v.ok()) << v.status().message();
  EXPECT_TRUE(v->topk_scores_exact);
  ASSERT_EQ(v->topk.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(v->topk[i].id, reference[i].id) << "rank " << i;
    EXPECT_EQ(v->topk[i].score, reference[i].score) << "rank " << i;
  }
}

TEST(ShardServingTest, UpdateIsolationUnderLoad) {
  TestData d = MakeData();
  const std::vector<std::vector<float>> features = QueryFeatures(d);
  const bovw::BovwVector duplicate = d.corpus[3].second;  // lives in shard 1

  shard::ShardedDeployment dep =
      shard::ShardPlanner::Build(d.config, d.codebook, d.corpus, d.blobs, 2);
  const core::PublicParams base = dep.shards[0].public_params;
  std::unique_ptr<shard::Coordinator> coord =
      MakeCoordinator(std::move(dep), 2);
  shard::CompositeClient client(base);
  EXPECT_TRUE(coord->ProbeAll().ok());

  // Live query load while one shard epoch-swaps: every completed query must
  // verify; the only acceptable failure is the kUnavailable double-swap
  // transient (which a single insert cannot even trigger — asserted below).
  std::atomic<bool> stop{false};
  std::atomic<int> verify_failures{0};
  std::atomic<int> verified{0};
  std::vector<std::thread> load;
  for (int t = 0; t < 3; ++t) {
    load.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        Result<Bytes> r = coord->Query(features, 5);
        if (!r.ok()) {
          if (r.status().code() != StatusCode::kUnavailable) {
            verify_failures.fetch_add(1);
          }
          continue;
        }
        Result<shard::CompositeVerifiedResults> v =
            client.VerifyComposite(features, 5, *r);
        if (v.ok()) {
          verified.fetch_add(1);
        } else {
          verify_failures.fetch_add(1);
        }
      }
    });
  }

  // Insert a cross-shard near-duplicate: id 1000 -> shard 0, byte-identical
  // BoVW to image 3 in shard 1.
  const bovw::ImageId new_id = 1000;
  Result<uint64_t> epoch =
      coord->Insert(new_id, duplicate, workload::GenerateImageBlob(new_id));
  ASSERT_TRUE(epoch.ok()) << epoch.status().message();
  EXPECT_EQ(*epoch, 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : load) t.join();
  EXPECT_EQ(verify_failures.load(), 0);
  EXPECT_GT(verified.load(), 0);

  // Post-swap composite: the new image appears in the merged top-k with a
  // score exactly equal to its shard-1 twin (frozen weights), the tie
  // broken by ascending id.
  Result<Bytes> r = coord->Query(features, 6);
  ASSERT_TRUE(r.ok()) << r.status().message();
  Result<shard::CompositeVerifiedResults> v =
      client.VerifyComposite(features, 6, *r);
  ASSERT_TRUE(v.ok()) << v.status().message();
  EXPECT_EQ(v->manifest_epoch, 1u);
  size_t pos3 = v->topk.size(), pos1000 = v->topk.size();
  for (size_t i = 0; i < v->topk.size(); ++i) {
    if (v->topk[i].id == 3) pos3 = i;
    if (v->topk[i].id == new_id) pos1000 = i;
  }
  ASSERT_LT(pos3, v->topk.size());
  ASSERT_LT(pos1000, v->topk.size());
  EXPECT_EQ(v->topk[pos3].score, v->topk[pos1000].score);
  EXPECT_LT(pos3, pos1000);
}

TEST(ShardServingTest, FreshnessWindowIsExactlyOneEpoch) {
  TestData d = MakeData();
  const std::vector<std::vector<float>> features = QueryFeatures(d);

  shard::ShardedDeployment dep =
      shard::ShardPlanner::Build(d.config, d.codebook, d.corpus, d.blobs, 2);
  const core::PublicParams base = dep.shards[0].public_params;
  std::unique_ptr<shard::Coordinator> coord =
      MakeCoordinator(std::move(dep), 2);
  shard::CompositeClient client(base);

  Result<Bytes> r_old = coord->Query(features, 5);
  ASSERT_TRUE(r_old.ok());
  shard::CompositeVO old_vo;
  ASSERT_TRUE(shard::CompositeVO::Deserialize(*r_old, &old_vo).ok());

  // One update to shard 0 (ids 1000, 1002 are even).
  ASSERT_TRUE(coord
                  ->Insert(1000, d.corpus[5].second,
                           workload::GenerateImageBlob(1000))
                  .ok());
  Result<Bytes> r_new = coord->Query(features, 5);
  ASSERT_TRUE(r_new.ok());
  shard::CompositeVO new_vo;
  ASSERT_TRUE(shard::CompositeVO::Deserialize(*r_new, &new_vo).ok());

  // A fan-out racing the swap legitimately carries shard 0's pre-update
  // response next to the post-update manifest; the prev digest accepts it.
  shard::CompositeVO mixed = new_vo;
  mixed.entries[0] = old_vo.entries[0];
  Result<shard::CompositeVerifiedResults> v =
      client.VerifyComposite(features, 5, mixed.Serialize());
  EXPECT_TRUE(v.ok()) << v.status().message();

  // A second update pushes the original root out of the window: the same
  // splice is now a rollback attempt and must be rejected.
  ASSERT_TRUE(coord
                  ->Insert(1002, d.corpus[7].second,
                           workload::GenerateImageBlob(1002))
                  .ok());
  Result<Bytes> r_latest = coord->Query(features, 5);
  ASSERT_TRUE(r_latest.ok());
  shard::CompositeVO latest;
  ASSERT_TRUE(shard::CompositeVO::Deserialize(*r_latest, &latest).ok());
  shard::CompositeVO stale = latest;
  stale.entries[0] = old_vo.entries[0];
  Result<shard::CompositeVerifiedResults> rejected =
      client.VerifyComposite(features, 5, stale.Serialize());
  EXPECT_FALSE(rejected.ok());
}

TEST(ShardServingTest, RemoteCompositeServingOverTheWire) {
  TestData d = MakeData();
  const std::vector<std::vector<float>> features = QueryFeatures(d);
  const size_t k = 5;

  shard::ShardedDeployment dep =
      shard::ShardPlanner::Build(d.config, d.codebook, d.corpus, d.blobs, 2);
  const core::PublicParams base = dep.shards[0].public_params;

  // Local reference: the same deployment served in-process.
  shard::ShardedDeployment dep_local = shard::ShardPlanner::Build(
      d.config, d.codebook, d.corpus, d.blobs, 2);
  std::unique_ptr<shard::Coordinator> local =
      MakeCoordinator(std::move(dep_local), 2);
  Result<Bytes> local_bytes = local->Query(features, k);
  ASSERT_TRUE(local_bytes.ok());

  // One NetServer per shard, each serving settled queries.
  std::vector<std::unique_ptr<core::QueryEngine>> engines;
  std::vector<std::unique_ptr<net::NetServer>> servers;
  std::vector<core::PublicParams> shard_params;
  for (core::OwnerOutput& s : dep.shards) {
    std::shared_ptr<const core::SpPackage> pkg(std::move(s.package));
    engines.push_back(
        std::make_unique<core::QueryEngine>(std::move(pkg), s.public_params));
    net::ServerOptions so;
    so.settle_exact_topk = true;
    servers.push_back(
        std::make_unique<net::NetServer>(engines.back().get(), so));
    ASSERT_TRUE(servers.back()->Start().ok());
    shard_params.push_back(s.public_params);
  }

  std::vector<std::unique_ptr<shard::ShardBackend>> backends;
  for (size_t i = 0; i < servers.size(); ++i) {
    backends.push_back(std::make_unique<shard::RemoteShardBackend>(
        "127.0.0.1", servers[i]->port(), shard_params[i]));
  }
  shard::Coordinator coord(std::move(backends), dep.manifest,
                           dep.keys.private_key, {});
  EXPECT_TRUE(coord.ProbeAll().ok());

  // Front server: relays version-2 composite queries to the coordinator.
  net::NetServer front(engines[0].get(), {});
  front.EnableComposite([&coord](std::vector<std::vector<float>> f, size_t kk,
                                 bool compress, uint32_t deadline,
                                 std::function<void(Result<Bytes>)> done) {
    coord.QueryAsync(std::move(f), kk, compress, deadline, std::move(done));
  });
  ASSERT_TRUE(front.Start().ok());

  Result<net::NetClient> cli =
      net::NetClient::Connect("127.0.0.1", front.port(), base);
  ASSERT_TRUE(cli.ok()) << cli.status().message();
  Result<Bytes> r = cli->QueryComposite(features, k);
  ASSERT_TRUE(r.ok()) << r.status().message();

  shard::CompositeClient client(base);
  Result<shard::CompositeVerifiedResults> v =
      client.VerifyComposite(features, k, *r);
  ASSERT_TRUE(v.ok()) << v.status().message();
  EXPECT_EQ(v->num_shards, 2u);
  for (const core::VerifiedResults& ps : v->per_shard) {
    EXPECT_TRUE(ps.topk_scores_exact);
  }

  // The wire path answers the same merged result as the in-process path.
  Result<shard::CompositeVerifiedResults> local_v =
      client.VerifyComposite(features, k, *local_bytes);
  ASSERT_TRUE(local_v.ok());
  ASSERT_EQ(v->topk.size(), local_v->topk.size());
  for (size_t i = 0; i < v->topk.size(); ++i) {
    EXPECT_EQ(v->topk[i].id, local_v->topk[i].id);
    EXPECT_EQ(v->topk[i].score, local_v->topk[i].score);
  }

  front.Stop();
}

TEST(ShardServingTest, PersistenceRoundTripAndManifestTamper) {
  TestData d = MakeData();
  const std::vector<std::vector<float>> features = QueryFeatures(d);

  shard::ShardedDeployment dep =
      shard::ShardPlanner::Build(d.config, d.codebook, d.corpus, d.blobs, 2);
  const core::PublicParams base = dep.shards[0].public_params;
  const crypto::RsaKeyPair keys = dep.keys;

  testing_support::ScopedTestDir tmp;
  const std::string dir = tmp.Path("shard_persist");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(shard::WriteShardedDeployment(dir, dep).ok());

  Result<shard::OpenedShardedDeployment> opened =
      shard::OpenShardedDeployment(dir, base);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  ASSERT_EQ(opened->shards.size(), 2u);
  EXPECT_EQ(opened->manifest.epoch, 0u);

  std::vector<std::unique_ptr<shard::ShardBackend>> backends;
  for (shard::OpenedShard& s : opened->shards) {
    std::shared_ptr<const core::SpPackage> pkg(std::move(s.package));
    backends.push_back(std::make_unique<shard::LocalShardBackend>(
        std::move(pkg), s.params, keys.private_key));
  }
  shard::Coordinator coord(std::move(backends), opened->manifest,
                           keys.private_key, {});
  Result<Bytes> r = coord.Query(features, 5);
  ASSERT_TRUE(r.ok()) << r.status().message();
  shard::CompositeClient client(base);
  Result<shard::CompositeVerifiedResults> v =
      client.VerifyComposite(features, 5, *r);
  ASSERT_TRUE(v.ok()) << v.status().message();
  EXPECT_EQ(v->topk.size(), 5u);

  // A tampered MANIFEST (any byte) must refuse to open.
  FlipByte(dir + "/MANIFEST", 9);
  Result<shard::OpenedShardedDeployment> bad =
      shard::OpenShardedDeployment(dir, base);
  EXPECT_FALSE(bad.ok());
}

}  // namespace
}  // namespace imageproof
