// Ablation/extension bench — epoch-keyed result cache + group-varint VO
// compression under Zipfian closed-loop traffic (ROADMAP item 4).
//
// Real image-retrieval traffic is heavily skewed: a small set of popular
// queries dominates. This bench drives a closed loop of repeated queries
// drawn from a Zipfian popularity distribution over a fixed pool
// (workload::ZipfQueryMix) against two otherwise-identical engines — result
// cache off vs on — and reports the p50/p99 latency, throughput, and hit
// rate. A separate section serves every pool entry cold with and without
// group-varint VO compression and reports bytes/query, i.e. what a miss
// costs on the wire with the compressed framing negotiated.
//
// Determinism is asserted in-bench, not assumed: for every pool entry the
// cold ServiceProvider bytes, the engine's miss bytes (dim trees from the
// package), and the engine's hit bytes (cached response) must be
// byte-identical, and all of them — plus the compressed variant — must pass
// Client::Verify.
//
//   --zipf-s <s>   skew of the query popularity distribution (default 1.0;
//                  0 = uniform over the pool)
//
// Non-smoke runs enforce the ROADMAP item 4 acceptance thresholds (>=5x
// p50 speedup at >=80% hit rate, >=25% bytes/query reduction on misses)
// and exit nonzero if unmet.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/query_engine.h"

using namespace imageproof;
using namespace imageproof::bench;

namespace {

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

struct LoopResult {
  double wall_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double qps = 0;
  size_t errors = 0;
};

// Closed-loop load: `threads` clients, each drawing pool indices from its
// own deterministic Rng stream and waiting for each response before the
// next submit. Both engines see the exact same draw sequences.
LoopResult RunLoop(core::QueryEngine& engine, const workload::ZipfQueryMix& mix,
                   unsigned threads, size_t queries_per_thread, size_t k,
                   uint64_t seed_base) {
  std::vector<std::vector<double>> latencies(threads);
  std::vector<size_t> errors(threads, 0);
  Stopwatch wall;
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(seed_base + t);
      latencies[t].reserve(queries_per_thread);
      for (size_t q = 0; q < queries_per_thread; ++q) {
        size_t idx = mix.Draw(rng);
        Stopwatch timer;
        auto fut = engine.Submit(mix.query(idx), k);
        core::EngineResponse r = fut.get();
        latencies[t].push_back(timer.ElapsedMillis());
        if (!r.ok()) ++errors[t];
      }
    });
  }
  for (auto& c : clients) c.join();
  LoopResult out;
  out.wall_ms = wall.ElapsedMillis();
  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  out.p50_ms = Percentile(all, 0.50);
  out.p99_ms = Percentile(all, 0.99);
  out.qps = all.empty() ? 0.0
                        : static_cast<double>(all.size()) /
                              (out.wall_ms / 1000.0);
  for (size_t e : errors) out.errors += e;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip this bench's own flags before InitBench: BenchReport::Init exits
  // on anything it does not recognize.
  double zipf_s = 1.0;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--zipf-s") == 0 && i + 1 < argc) {
      zipf_s = std::atof(argv[++i]);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  InitBench(static_cast<int>(passthrough.size()), passthrough.data(),
            "abl_cache");

  // Small codebook, many images per visual word: the inverted-index-
  // dominated regime (long posting lists) that large-scale deployments
  // sit in and that the group-varint compressor targets. The tree/reveal
  // sections are digest- and coordinate-dominated (high-entropy, not
  // varint-shaped), so their share of the VO is what bounds the total
  // compression win.
  DeploymentSpec spec;
  spec.num_images = SmokeMode() ? 2000 : 20000;
  spec.num_clusters = SmokeMode() ? 256 : 512;
  spec.dims = SmokeMode() ? 32 : 64;
  // OptimizedBoth = dim-Merkle reveal + frequency groups: the configuration
  // whose VO both the dim trees and the group-varint compressor target.
  Deployment d(core::Config::OptimizedBoth(), spec);
  auto package =
      std::shared_ptr<const core::SpPackage>(std::move(d.owner.package));

  const size_t kPool = SmokeMode() ? 16 : 64;
  const size_t kFeatures = 8;
  const size_t kTopK = SmokeMode() ? 16 : 32;
  const unsigned kThreads = 4;
  const size_t kQueriesPerThread = SmokeMode() ? 40 : 200;

  workload::QueryMixParams mix_params;
  mix_params.pool_size = kPool;
  mix_params.num_features = kFeatures;
  mix_params.zipf_s = zipf_s;
  mix_params.seed = 42;
  workload::ZipfQueryMix mix(package->codebook, package->corpus, mix_params);

  std::printf("Extension — Zipfian result cache + VO compression "
              "(pool=%zu, s=%.2f, %u clients x %zu queries, k=%zu)\n",
              kPool, zipf_s, kThreads, kQueriesPerThread, kTopK);

  core::EngineOptions base_opts;
  base_opts.num_workers = kThreads;
  base_opts.queue_capacity = 128;

  // --- Byte-identity + verification: cold SP vs engine miss (both prove
  // partial reveals from the package's dim trees) vs engine hit (cached)
  // must serialize identically; all variants verify. ---
  size_t identity_failures = 0;
  size_t verify_failures = 0;
  {
    core::EngineOptions opts = base_opts;
    opts.cache_capacity = kPool * 2;
    core::QueryEngine engine(package, d.owner.public_params, opts);
    core::ServiceProvider sp(package.get());
    core::SubmitOptions compressed;
    compressed.compress_vo = true;
    for (size_t i = 0; i < mix.pool_size(); ++i) {
      const auto& features = mix.query(i);
      core::QueryResponse cold = sp.Query(features, kTopK);
      Bytes cold_bytes = cold.vo.Serialize();

      core::EngineResponse miss = engine.Submit(features, kTopK).get();
      core::EngineResponse hit = engine.Submit(features, kTopK).get();
      Bytes miss_bytes = miss.response.vo.Serialize();
      Bytes hit_bytes = hit.response.vo.Serialize();
      if (miss_bytes != cold_bytes || hit_bytes != cold_bytes) {
        ++identity_failures;
      }
      core::EngineResponse comp = engine.Submit(features, kTopK, compressed)
                                      .get();
      for (const core::QueryResponse* resp :
           {&cold, &miss.response, &hit.response, &comp.response}) {
        if (!d.client->Verify(features, kTopK, resp->vo).ok()) {
          ++verify_failures;
        }
      }
    }
    core::EngineStats s = engine.Stats();
    if (s.cache_hits == 0) ++identity_failures;  // hits must actually be hits
    std::printf("  identity: %zu pool entries, %zu mismatches, "
                "%zu verify failures\n",
                mix.pool_size(), identity_failures, verify_failures);
  }

  // --- Closed-loop latency, cache off vs on, identical draw sequences. ---
  core::EngineOptions off_opts = base_opts;  // cache_capacity = 0
  LoopResult off;
  {
    core::QueryEngine engine(package, d.owner.public_params, off_opts);
    off = RunLoop(engine, mix, kThreads, kQueriesPerThread, kTopK, 7000);
  }
  core::EngineOptions on_opts = base_opts;
  on_opts.cache_capacity = kPool * 2;
  LoopResult on;
  double hit_rate = 0.0;
  double memo_share = 0.0;
  std::string engine_metrics;
  {
    core::QueryEngine engine(package, d.owner.public_params, on_opts);
    on = RunLoop(engine, mix, kThreads, kQueriesPerThread, kTopK, 7000);
    core::EngineStats s = engine.Stats();
    uint64_t lookups = s.cache_hits + s.cache_misses;
    hit_rate = lookups == 0 ? 0.0
                            : static_cast<double>(s.cache_hits) /
                                  static_cast<double>(lookups);
    uint64_t memo_total = s.memo_hits + s.memo_builds;
    memo_share = memo_total == 0 ? 0.0
                                 : static_cast<double>(s.memo_hits) /
                                       static_cast<double>(memo_total);
    engine_metrics = engine.MetricsSnapshot();
  }
  double speedup = on.p50_ms > 0 ? off.p50_ms / on.p50_ms : 0.0;

  std::printf("%10s | %10s %10s %10s %8s\n", "cache", "qps", "p50_ms",
              "p99_ms", "errors");
  std::printf("-----------------------------------------------------\n");
  std::printf("%10s | %10.1f %10.3f %10.3f %8zu\n", "off", off.qps, off.p50_ms,
              off.p99_ms, off.errors);
  std::printf("%10s | %10.1f %10.3f %10.3f %8zu\n", "on", on.qps, on.p50_ms,
              on.p99_ms, on.errors);
  std::printf("  p50 speedup %.1fx, hit rate %.1f%%, memo share %.1f%%\n",
              speedup, hit_rate * 100.0, memo_share * 100.0);

  // --- Bytes/query on misses: every pool entry served cold, raw framing vs
  // group-varint compressed framing. ---
  size_t raw_bytes = 0;
  size_t compressed_bytes = 0;
  {
    core::QueryEngine engine(package, d.owner.public_params, off_opts);
    core::SubmitOptions compressed;
    compressed.compress_vo = true;
    for (size_t i = 0; i < mix.pool_size(); ++i) {
      raw_bytes += engine.Submit(mix.query(i), kTopK)
                       .get()
                       .response.vo.Serialize()
                       .size();
      compressed_bytes += engine.Submit(mix.query(i), kTopK, compressed)
                              .get()
                              .response.vo.Serialize()
                              .size();
    }
  }
  double raw_per_query =
      static_cast<double>(raw_bytes) / static_cast<double>(mix.pool_size());
  double compressed_per_query = static_cast<double>(compressed_bytes) /
                                static_cast<double>(mix.pool_size());
  double reduction =
      raw_bytes == 0 ? 0.0
                     : 1.0 - static_cast<double>(compressed_bytes) /
                                 static_cast<double>(raw_bytes);
  std::printf("  VO bytes/query: raw %.0f, compressed %.0f (%.1f%% smaller)\n",
              raw_per_query, compressed_per_query, reduction * 100.0);

  BenchReport::Global().AddValue("cache.zipf_s", zipf_s);
  BenchReport::Global().AddValue("cache.pool_size",
                                 static_cast<double>(kPool));
  BenchReport::Global().AddValue("cache.off.qps", off.qps);
  BenchReport::Global().AddValue("cache.off.p50_ms", off.p50_ms);
  BenchReport::Global().AddValue("cache.off.p99_ms", off.p99_ms);
  BenchReport::Global().AddValue("cache.on.qps", on.qps);
  BenchReport::Global().AddValue("cache.on.p50_ms", on.p50_ms);
  BenchReport::Global().AddValue("cache.on.p99_ms", on.p99_ms);
  BenchReport::Global().AddValue("cache.p50_speedup", speedup);
  BenchReport::Global().AddValue("cache.hit_rate", hit_rate);
  BenchReport::Global().AddValue("cache.memo_share_rate", memo_share);
  BenchReport::Global().AddValue("cache.bytes_per_query_raw", raw_per_query);
  BenchReport::Global().AddValue("cache.bytes_per_query_compressed",
                                 compressed_per_query);
  BenchReport::Global().AddValue("cache.bytes_reduction", reduction);
  BenchReport::Global().AddValue("cache.identity_failures",
                                 static_cast<double>(identity_failures));
  BenchReport::Global().AddValue("cache.verify_failures",
                                 static_cast<double>(verify_failures));
  BenchReport::Global().AddJson("engine_metrics", engine_metrics);

  int code = 0;
  if (identity_failures != 0 || verify_failures != 0 ||
      off.errors + on.errors != 0) {
    std::fprintf(stderr, "abl_cache: determinism/verification FAILED\n");
    code = 1;
  }
  if (!SmokeMode()) {
    // ROADMAP item 4 acceptance thresholds, enforced at full scale only
    // (smoke scales are too small for stable ratios).
    if (speedup < 5.0 || hit_rate < 0.80) {
      std::fprintf(stderr,
                   "abl_cache: cache thresholds unmet (speedup %.1fx, "
                   "hit rate %.1f%%)\n",
                   speedup, hit_rate * 100.0);
      code = 1;
    }
    if (reduction < 0.25) {
      std::fprintf(stderr,
                   "abl_cache: compression threshold unmet (%.1f%%)\n",
                   reduction * 100.0);
      code = 1;
    }
  }
  return FinishBench(code);
}
