// Result-cache correctness: the epoch-keyed LRU in front of
// ServiceProvider::Query must be invisible in every byte a client sees.
// Hits return byte-identical VOs to a cold serve (at any thread count), an
// update's snapshot swap implicitly invalidates (the epoch lives in the
// key, so a post-update query can never be answered with a pre-swap VO),
// and cached / cold / compressed responses all pass the full
// Client::Verify.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/client.h"
#include "core/owner.h"
#include "core/query_cache.h"
#include "core/query_engine.h"
#include "core/server.h"
#include "obs/metrics.h"
#include "workload/synthetic.h"

namespace imageproof {
namespace {

bool SameTopk(const std::vector<bovw::ScoredImage>& a,
              const std::vector<bovw::ScoredImage>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].score != b[i].score) return false;
  }
  return true;
}

struct CacheFixture {
  core::OwnerOutput owner;
  std::shared_ptr<const core::SpPackage> package;
  std::vector<std::vector<std::vector<float>>> queries;

  explicit CacheFixture(uint64_t seed = 11) {
    // OptimizedBoth so serves prove partial reveals from the package's dim
    // trees and cover the frequency-group VO (the compressed encoding's
    // richest shape).
    core::Config config = core::Config::OptimizedBoth();
    config.rsa_bits = 512;
    workload::CorpusParams cp;
    cp.num_images = 200;
    cp.num_clusters = 64;
    cp.seed = seed;
    auto corpus = workload::GenerateCorpus(cp);
    std::unordered_map<bovw::ImageId, Bytes> blobs;
    for (const auto& [id, v] : corpus) {
      blobs[id] = workload::GenerateImageBlob(id);
    }
    workload::CodebookParams cbp;
    cbp.num_clusters = 64;
    cbp.dims = 16;
    owner = core::BuildDeployment(config, workload::GenerateCodebook(cbp),
                                  std::move(corpus), std::move(blobs));
    package = std::shared_ptr<const core::SpPackage>(std::move(owner.package));
    for (uint64_t q = 0; q < 6; ++q) {
      queries.push_back(workload::GenerateQueryFeatures(package->codebook, 8,
                                                        0.3, 100 + q));
    }
  }
};

// --- QueryCache unit behavior ---------------------------------------------

TEST(QueryCacheTest, KeySeparatesEpochFlagKAndFeatures) {
  std::vector<std::vector<float>> a{{1.0f, 2.0f}, {3.0f, 4.0f}};
  std::vector<std::vector<float>> b{{1.0f, 2.0f}, {3.0f, 4.5f}};
  // Same floats, different split across vectors (length-prefixed framing
  // must keep these distinct).
  std::vector<std::vector<float>> c{{1.0f, 2.0f, 3.0f, 4.0f}};
  auto base = core::QueryCache::Key(1, false, 5, a);
  EXPECT_EQ(base, core::QueryCache::Key(1, false, 5, a));
  EXPECT_NE(base, core::QueryCache::Key(2, false, 5, a));
  EXPECT_NE(base, core::QueryCache::Key(1, true, 5, a));
  EXPECT_NE(base, core::QueryCache::Key(1, false, 6, a));
  EXPECT_NE(base, core::QueryCache::Key(1, false, 5, b));
  EXPECT_NE(base, core::QueryCache::Key(1, false, 5, c));
  // Settled serves pop more postings, so their VOs must never alias the
  // plain-serve entries (sharded serving always queries settled).
  EXPECT_NE(base, core::QueryCache::Key(1, false, 5, a, true));
  EXPECT_EQ(core::QueryCache::Key(1, false, 5, a, true),
            core::QueryCache::Key(1, false, 5, a, true));
}

TEST(QueryCacheTest, InsertLookupAndLruEviction) {
  core::QueryCache cache(8);
  ASSERT_TRUE(cache.enabled());
  std::vector<std::vector<float>> f{{0.0f}};
  std::vector<crypto::Digest> keys;
  for (uint64_t v = 0; v < 64; ++v) {
    keys.push_back(core::QueryCache::Key(v, false, 1, f));
    auto resp = std::make_shared<core::QueryResponse>();
    resp->topk.resize(static_cast<size_t>(v));  // distinguishable payloads
    cache.Insert(keys.back(), resp);
  }
  core::QueryCacheStats stats = cache.Stats();
  EXPECT_LE(stats.entries, 8u);
  EXPECT_GT(stats.evictions, 0u);
  // The newest key survives in its shard; its payload is the one inserted.
  auto hit = cache.Lookup(keys.back());
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->topk.size(), 63u);
  // Something old was evicted.
  size_t misses = 0;
  for (const auto& k : keys) {
    if (cache.Lookup(k) == nullptr) ++misses;
  }
  EXPECT_GT(misses, 0u);
}

TEST(QueryCacheTest, ZeroCapacityDisables) {
  core::QueryCache cache(0);
  EXPECT_FALSE(cache.enabled());
}

// --- Engine-level byte identity -------------------------------------------

TEST(QueryCacheEngineTest, HitIsByteIdenticalToColdServeSingleThread) {
  CacheFixture fx;
  core::EngineOptions opts;
  opts.num_workers = 1;
  opts.cache_capacity = 64;
  core::QueryEngine engine(fx.package, fx.owner.public_params, opts);
  core::ServiceProvider sp(fx.package.get());

  for (const auto& features : fx.queries) {
    Bytes cold = sp.Query(features, 4).vo.Serialize();
    core::EngineResponse miss = engine.Submit(features, 4).get();
    core::EngineResponse hit = engine.Submit(features, 4).get();
    ASSERT_TRUE(miss.ok());
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(miss.response.vo.Serialize(), cold);
    EXPECT_EQ(hit.response.vo.Serialize(), cold);
    EXPECT_TRUE(SameTopk(miss.response.topk, hit.response.topk));
  }
  if (obs::kMetricsEnabled) {
    core::EngineStats stats = engine.Stats();
    EXPECT_EQ(stats.cache_hits, fx.queries.size());
    EXPECT_EQ(stats.cache_misses, fx.queries.size());
  }
}

TEST(QueryCacheEngineTest, HitIsByteIdenticalToColdServeFourThreads) {
  CacheFixture fx;
  core::EngineOptions opts;
  opts.num_workers = 4;
  opts.intra_query_threads = 2;
  opts.cache_capacity = 64;
  core::QueryEngine engine(fx.package, fx.owner.public_params, opts);
  core::ServiceProvider sp(fx.package.get());

  std::vector<Bytes> cold;
  for (const auto& features : fx.queries) {
    cold.push_back(sp.Query(features, 4).vo.Serialize());
  }
  // 4 client threads, each hammering every query several times: racing
  // lookups, racing inserts of the same key, and hits off other threads'
  // inserts must all surface the same bytes.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        for (size_t q = 0; q < fx.queries.size(); ++q) {
          core::EngineResponse r = engine.Submit(fx.queries[q], 4).get();
          if (!r.ok() || r.response.vo.Serialize() != cold[q]) ++mismatches;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  if (obs::kMetricsEnabled) {
    core::EngineStats stats = engine.Stats();
    EXPECT_GT(stats.cache_hits, 0u);
  }
}

// --- Epoch-key invalidation -----------------------------------------------

TEST(QueryCacheEngineTest, UpdateNeverServesPreSwapVo) {
  CacheFixture fx;
  core::EngineOptions opts;
  opts.num_workers = 2;
  opts.cache_capacity = 64;
  core::QueryEngine engine(fx.package, fx.owner.public_params, opts);
  const auto& features = fx.queries[0];

  core::EngineResponse before = engine.Submit(features, 4).get();
  core::EngineResponse before_hit = engine.Submit(features, 4).get();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before_hit.ok());

  workload::CorpusParams qp;
  qp.num_clusters = 64;
  auto ins = engine.InsertImage(fx.owner.private_key, 5000,
                                workload::GenerateQueryBovw(qp, 20, 77),
                                workload::GenerateImageBlob(5000));
  ASSERT_TRUE(ins.ok()) << ins.status().message();

  core::EngineResponse after = engine.Submit(features, 4).get();
  ASSERT_TRUE(after.ok());
  // The post-swap response is served under (and verifies against) the new
  // epoch. A pre-swap cached VO would carry the old root and fail this
  // check — the epoch in the cache key makes that impossible by
  // construction, and we assert it end to end.
  EXPECT_GT(after.snapshot->version, before.snapshot->version);
  core::Client new_client(after.snapshot->params);
  EXPECT_TRUE(new_client.Verify(features, 4, after.response.vo).ok());
  // The stale response still verifies against its own epoch's params
  // (snapshot isolation), but not against the new root.
  core::Client old_client(before.snapshot->params);
  EXPECT_TRUE(old_client.Verify(features, 4, before.response.vo).ok());
  EXPECT_FALSE(new_client.Verify(features, 4, before.response.vo).ok());

  // And the post-update serve was a genuine miss: the old entry's key no
  // longer matches.
  if (obs::kMetricsEnabled) {
    core::EngineStats stats = engine.Stats();
    EXPECT_EQ(stats.cache_hits, 1u);    // the pre-update repeat
    EXPECT_EQ(stats.cache_misses, 2u);  // initial + post-update
  }
}

// --- Everything a client can receive verifies -----------------------------

TEST(QueryCacheEngineTest, ColdMemoizedCachedAndCompressedAllVerify) {
  CacheFixture fx;
  core::EngineOptions opts;
  opts.num_workers = 2;
  opts.cache_capacity = 64;
  core::QueryEngine engine(fx.package, fx.owner.public_params, opts);
  // No cache, but the package's dim trees, which it shares with the
  // engine.
  core::ServiceProvider cold_sp(fx.package.get());
  core::Client client(fx.owner.public_params);
  core::SubmitOptions compressed;
  compressed.compress_vo = true;

  for (const auto& features : fx.queries) {
    core::QueryResponse cold = cold_sp.Query(features, 4);
    EXPECT_TRUE(client.Verify(features, 4, cold.vo).ok());
    core::EngineResponse miss = engine.Submit(features, 4).get();
    core::EngineResponse hit = engine.Submit(features, 4).get();
    core::EngineResponse comp_miss =
        engine.Submit(features, 4, compressed).get();
    core::EngineResponse comp_hit =
        engine.Submit(features, 4, compressed).get();
    for (const core::EngineResponse* r :
         {&miss, &hit, &comp_miss, &comp_hit}) {
      ASSERT_TRUE(r->ok());
      EXPECT_TRUE(client.Verify(features, 4, r->response.vo).ok());
    }
    // Compressed and raw framing are distinct cache entries (the flag is in
    // the key) but decode to the same verified results.
    EXPECT_TRUE(SameTopk(comp_hit.response.topk, hit.response.topk));
  }
  if (obs::kMetricsEnabled) {
    core::EngineStats stats = engine.Stats();
    EXPECT_GT(stats.memo_hits, 0u);
    EXPECT_GT(stats.vo_bytes_compressed, 0u);
    EXPECT_GT(stats.vo_bytes_raw, 0u);
  }
}

}  // namespace
}  // namespace imageproof
