// Concurrency tests: ServiceProvider::Query and Client::Verify are const
// operations over immutable state, so any number of clients may be served
// in parallel from one package — and ParallelFor must behave exactly like
// the serial loop. The QueryEngine layer adds snapshot isolation on top:
// writers publish copy-on-write snapshots while readers keep verifying
// against the root they were admitted under. Build with -DIMAGEPROOF_TSAN=ON
// to run this file under ThreadSanitizer (scripts/check.sh --tsan).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/parallel.h"
#include "common/thread_pool.h"
#include "core/client.h"
#include "core/owner.h"
#include "core/query_engine.h"
#include "core/server.h"
#include "obs/metrics.h"
#include "workload/synthetic.h"

namespace imageproof {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (size_t n : {0u, 1u, 63u, 64u, 1000u, 4097u}) {
    std::vector<std::atomic<int>> hits(n);
    ParallelFor(n, [&](size_t i) { hits[i]++; });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(ParallelForTest, MatchesSerialResults) {
  const size_t n = 10000;
  std::vector<uint64_t> parallel_out(n), serial_out(n);
  auto work = [](size_t i) {
    uint64_t x = i * 2654435761u;
    for (int r = 0; r < 10; ++r) x = x * 6364136223846793005ULL + 1;
    return x;
  };
  ParallelFor(n, [&](size_t i) { parallel_out[i] = work(i); });
  for (size_t i = 0; i < n; ++i) serial_out[i] = work(i);
  EXPECT_EQ(parallel_out, serial_out);
}

TEST(ParallelForTest, ThreadCapRespected) {
  std::atomic<int> concurrent{0}, peak{0};
  ParallelFor(
      1000,
      [&](size_t) {
        int now = ++concurrent;
        int old_peak = peak.load();
        while (now > old_peak && !peak.compare_exchange_weak(old_peak, now)) {
        }
        --concurrent;
      },
      /*max_threads=*/2);
  EXPECT_LE(peak.load(), 2);
}

TEST(ParallelBuildTest, DeploymentIdenticalToItself) {
  // Two builds of the same deployment (each internally parallel) must agree
  // on every signed digest: the parallel loops are deterministic.
  auto build = [] {
    core::Config config = core::Config::ImageProof();
    config.rsa_bits = 512;
    workload::CorpusParams cp;
    cp.num_images = 400;
    cp.num_clusters = 128;
    auto corpus = workload::GenerateCorpus(cp);
    std::unordered_map<bovw::ImageId, Bytes> blobs;
    for (const auto& [id, v] : corpus) {
      blobs[id] = workload::GenerateImageBlob(id);
    }
    workload::CodebookParams cbp;
    cbp.num_clusters = 128;
    cbp.dims = 16;
    return core::BuildDeployment(config, workload::GenerateCodebook(cbp),
                                 std::move(corpus), std::move(blobs));
  };
  core::OwnerOutput a = build();
  core::OwnerOutput b = build();
  EXPECT_EQ(a.package->RootDigest(), b.package->RootDigest());
  EXPECT_EQ(a.public_params.root_signature, b.public_params.root_signature);
}

TEST(ConcurrentQueryTest, ManyClientsOneServer) {
  core::Config config = core::Config::ImageProof();
  config.rsa_bits = 512;
  workload::CorpusParams cp;
  cp.num_images = 500;
  cp.num_clusters = 128;
  auto corpus = workload::GenerateCorpus(cp);
  std::unordered_map<bovw::ImageId, Bytes> blobs;
  for (const auto& [id, v] : corpus) blobs[id] = workload::GenerateImageBlob(id);
  workload::CodebookParams cbp;
  cbp.num_clusters = 128;
  cbp.dims = 16;
  core::OwnerOutput owner = core::BuildDeployment(
      config, workload::GenerateCodebook(cbp), std::move(corpus),
      std::move(blobs));
  core::ServiceProvider sp(owner.package.get());

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      core::Client client(owner.public_params);
      for (int q = 0; q < kQueriesPerThread; ++q) {
        auto features = workload::GenerateQueryFeatures(
            owner.package->codebook, 15, 0.3, t * 100 + q);
        core::QueryResponse resp = sp.Query(features, 5);
        auto verified = client.Verify(features, 5, resp.vo);
        if (!verified.ok()) failures++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskAndDeliversResults) {
  ThreadPool pool(4, /*queue_capacity=*/8);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPoolTest, BoundedQueueAppliesBackpressure) {
  // One worker blocked on a gate; the queue holds 2 more tasks. The 4th
  // Submit must block until the gate opens.
  ThreadPool pool(1, /*queue_capacity=*/2);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> done{0};
  auto blocker = pool.Submit([opened, &done] {
    opened.wait();
    ++done;
  });
  // Wait for the worker to pick up the blocker so the queue is empty.
  while (pool.QueueDepth() > 0) std::this_thread::yield();
  for (int i = 0; i < 2; ++i) {
    (void)pool.Submit([&done] { ++done; });
  }
  EXPECT_EQ(pool.QueueDepth(), 2u);

  std::atomic<bool> fourth_submitted{false};
  std::thread submitter([&] {
    (void)pool.Submit([&done] { ++done; });
    fourth_submitted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(fourth_submitted.load()) << "Submit did not block on full queue";
  gate.set_value();
  submitter.join();
  blocker.get();
  // Destructor drains the remaining tasks.
}

TEST(ThreadPoolTest, DestructorDrainsSubmittedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      (void)pool.Submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++done;
      });
    }
  }
  EXPECT_EQ(done.load(), 32);
}

// ---------------------------------------------------------------------------
// QueryEngine: snapshot isolation under a concurrent update/query storm
// ---------------------------------------------------------------------------

struct EngineFixture {
  core::OwnerOutput owner;
  std::shared_ptr<const core::SpPackage> package;

  explicit EngineFixture(uint64_t seed = 5,
                         core::Config config = core::Config::ImageProof()) {
    config.rsa_bits = 512;
    workload::CorpusParams cp;
    cp.num_images = 250;
    cp.num_clusters = 128;
    cp.seed = seed;
    auto corpus = workload::GenerateCorpus(cp);
    std::unordered_map<bovw::ImageId, Bytes> blobs;
    for (const auto& [id, v] : corpus) {
      blobs[id] = workload::GenerateImageBlob(id);
    }
    workload::CodebookParams cbp;
    cbp.num_clusters = 128;
    cbp.dims = 16;
    owner = core::BuildDeployment(config, workload::GenerateCodebook(cbp),
                                  std::move(corpus), std::move(blobs));
    package = std::shared_ptr<const core::SpPackage>(std::move(owner.package));
  }
};

TEST(QueryEngineStressTest, UpdatesVersusQueries) {
  EngineFixture fx;
  core::EngineOptions opts;
  opts.num_workers = 4;
  opts.queue_capacity = 32;
  opts.intra_query_threads = 2;
  core::QueryEngine engine(fx.package, fx.owner.public_params, opts);

  constexpr int kWriters = 2;
  constexpr int kUpdatesPerWriter = 4;
  constexpr int kReaders = 3;
  constexpr int kQueriesPerReader = 6;

  std::atomic<int> verify_failures{0};
  std::atomic<int> update_failures{0};
  std::atomic<int> updates_ok{0};

  std::vector<std::thread> threads;
  // Writers: insert fresh images (ids disjoint from the corpus and from
  // each other), then delete half of them again.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      workload::CorpusParams qp;
      qp.num_clusters = 128;
      for (int u = 0; u < kUpdatesPerWriter; ++u) {
        bovw::ImageId id = 10000 + w * 100 + u;
        bovw::BovwVector vec =
            workload::GenerateQueryBovw(qp, 20, 900 + w * 10 + u);
        auto ins = engine.InsertImage(fx.owner.private_key, id, vec,
                                      workload::GenerateImageBlob(id));
        if (!ins.ok()) {
          ++update_failures;
          continue;
        }
        ++updates_ok;
        if (u % 2 == 1) {
          auto del = engine.DeleteImage(fx.owner.private_key, id);
          if (del.ok()) {
            ++updates_ok;
          } else {
            ++update_failures;
          }
        }
      }
    });
  }
  // Readers: every response must verify against the PublicParams of the
  // snapshot it was served under — the heart of snapshot isolation. A VO
  // checked against the wrong root signature would fail, so 0 failures here
  // proves responses and roots stay paired across concurrent swaps.
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (int q = 0; q < kQueriesPerReader; ++q) {
        auto features = workload::GenerateQueryFeatures(
            fx.package->codebook, 10, 0.3, r * 1000 + q);
        core::EngineResponse resp = engine.Submit(features, 5).get();
        core::Client client(resp.snapshot->params);
        auto verified = client.Verify(features, 5, resp.response.vo);
        if (!verified.ok()) ++verify_failures;
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(verify_failures.load(), 0);
  EXPECT_EQ(update_failures.load(), 0);
  core::EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_GT(stats.snapshot_version, 0u);
  // Counter-backed stats read zero when the obs layer is compiled out.
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(stats.queries_served,
              static_cast<uint64_t>(kReaders * kQueriesPerReader));
    EXPECT_EQ(stats.updates_applied, static_cast<uint64_t>(updates_ok.load()));
  }
}

// Readers hammer a small pool of repeated queries — so the result cache
// takes hits, racing inserts of the same key, and epoch turnover from the
// writers — while mixing compressed and raw framing (distinct cache keys)
// and, on a dim-Merkle package, proving partial reveals from each
// package's coordinate-block trees on several workers at once. Every
// response must still verify against the snapshot it was served under. Run
// under -DIMAGEPROOF_TSAN=ON this is the data-race harness for the cache
// and the shared dim trees.
TEST(QueryEngineStressTest, CacheAndCompressionUnderUpdates) {
  EngineFixture fx(5, core::Config::OptimizedBovw());
  core::EngineOptions opts;
  opts.num_workers = 4;
  opts.queue_capacity = 64;
  opts.intra_query_threads = 2;
  opts.cache_capacity = 16;  // small: forces evictions alongside hits
  core::QueryEngine engine(fx.package, fx.owner.public_params, opts);

  // A pool of 4 hot queries shared by all readers.
  std::vector<std::vector<std::vector<float>>> pool;
  for (uint64_t q = 0; q < 4; ++q) {
    pool.push_back(workload::GenerateQueryFeatures(fx.package->codebook, 10,
                                                   0.3, 600 + q));
  }

  std::atomic<int> verify_failures{0};
  std::atomic<int> update_failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      workload::CorpusParams qp;
      qp.num_clusters = 128;
      for (int u = 0; u < 3; ++u) {
        bovw::ImageId id = 20000 + w * 100 + u;
        auto ins = engine.InsertImage(
            fx.owner.private_key, id,
            workload::GenerateQueryBovw(qp, 20, 700 + w * 10 + u),
            workload::GenerateImageBlob(id));
        if (!ins.ok()) ++update_failures;
      }
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&, r] {
      for (int q = 0; q < 10; ++q) {
        const auto& features = pool[(r + q) % pool.size()];
        core::SubmitOptions submit;
        submit.compress_vo = (r + q) % 2 == 0;
        core::EngineResponse resp = engine.Submit(features, 5, submit).get();
        if (!resp.ok()) {
          ++verify_failures;
          continue;
        }
        core::Client client(resp.snapshot->params);
        if (!client.Verify(features, 5, resp.response.vo).ok()) {
          ++verify_failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(verify_failures.load(), 0);
  EXPECT_EQ(update_failures.load(), 0);
  core::EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.in_flight, 0u);
  if (obs::kMetricsEnabled) {
    EXPECT_GT(stats.cache_hits + stats.cache_misses, 0u);
    // The dim-tree counters read the serving package's trees and the
    // partial reveals of cold serves, so force one cold serve against the
    // final epoch before checking them.
    auto fresh =
        workload::GenerateQueryFeatures(fx.package->codebook, 10, 0.3, 650);
    ASSERT_TRUE(engine.Submit(fresh, 5).get().ok());
    stats = engine.Stats();
    EXPECT_GT(stats.memo_builds + stats.memo_hits, 0u);
  }
}

TEST(QueryEngineTest, InFlightQueriesKeepTheirSnapshot) {
  EngineFixture fx;
  core::EngineOptions opts;
  opts.num_workers = 2;
  core::QueryEngine engine(fx.package, fx.owner.public_params, opts);

  auto old_snapshot = engine.CurrentSnapshot();
  auto features =
      workload::GenerateQueryFeatures(fx.package->codebook, 10, 0.3, 1);
  std::future<core::EngineResponse> pending = engine.Submit(features, 5);

  workload::CorpusParams qp;
  qp.num_clusters = 128;
  auto ins = engine.InsertImage(fx.owner.private_key, 20000,
                                workload::GenerateQueryBovw(qp, 20, 7),
                                workload::GenerateImageBlob(20000));
  ASSERT_TRUE(ins.ok()) << ins.status().message();

  core::EngineResponse resp = pending.get();
  // The pre-update submission was served under the pre-update snapshot...
  EXPECT_EQ(resp.snapshot->version, old_snapshot->version);
  core::Client old_client(old_snapshot->params);
  EXPECT_TRUE(old_client.Verify(features, 5, resp.response.vo).ok());

  // ...while new submissions see the new state, verified under its params.
  core::EngineResponse fresh = engine.Submit(features, 5).get();
  EXPECT_GT(fresh.snapshot->version, old_snapshot->version);
  core::Client new_client(fresh.snapshot->params);
  EXPECT_TRUE(new_client.Verify(features, 5, fresh.response.vo).ok());

  // The two snapshots are distinct objects with distinct signed roots.
  EXPECT_NE(resp.snapshot->package.get(), fresh.snapshot->package.get());
  EXPECT_NE(old_snapshot->params.root_signature,
            fresh.snapshot->params.root_signature);
}

}  // namespace
}  // namespace imageproof
