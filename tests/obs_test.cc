// Tests for the observability layer (src/obs): concurrent-exactness of the
// primitives, the log-bucket quantile error bound, deterministic JSON
// output, and — the invariant everything else rests on — that metric
// recording never perturbs query output.
//
// The value assertions gate on obs::kMetricsEnabled so the same suite runs
// (and still exercises the API surface) under -DIMAGEPROOF_NO_METRICS=ON,
// where every read legitimately returns zero. The concurrency tests also
// run under the TSan preset, which is what actually checks the relaxed
// atomics are race-free as claimed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/owner.h"
#include "core/server.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "workload/synthetic.h"

namespace imageproof {
namespace {

// ---------------------------------------------------------------------------
// Primitives under concurrency.
// ---------------------------------------------------------------------------

TEST(ObsCounterTest, ConcurrentAddsAreExact) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(c.Value(), kThreads * kPerThread);
  } else {
    EXPECT_EQ(c.Value(), 0u);
  }
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(ObsGaugeTest, TracksLevelThroughConcurrentUpDown) {
  obs::Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) {
        g.Add(3);
        g.Sub(2);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(g.Value(), int64_t{kThreads} * kPerThread);
  } else {
    EXPECT_EQ(g.Value(), 0);
  }
  g.Set(-5);
  EXPECT_EQ(g.Value(), obs::kMetricsEnabled ? -5 : 0);
}

TEST(ObsHistogramTest, ConcurrentRecordsAreExact) {
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(1 + (i * kThreads + t) % 1000);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!obs::kMetricsEnabled) {
    EXPECT_EQ(h.Count(), 0u);
    return;
  }
  EXPECT_EQ(h.Count(), kThreads * kPerThread);
  obs::HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_EQ(s.sum, h.Sum());
}

// ---------------------------------------------------------------------------
// Bucket mapping and quantile error bound.
// ---------------------------------------------------------------------------

// BucketOf's bit-trick fast path must agree with the bucket definition
// [edges[b], edges[b+1]) everywhere, including octave boundaries and the
// integer-rounded low buckets. (BucketOf is live in both build modes.)
TEST(ObsHistogramTest, BucketOfMatchesEdgesExhaustivelyLow) {
  EXPECT_EQ(obs::Histogram::BucketOf(0), 0u);
  for (uint64_t v = 1; v <= 1u << 20; ++v) {
    size_t b = obs::Histogram::BucketOf(v);
    ASSERT_LT(b, obs::Histogram::kBuckets);
    ASSERT_GE(v, obs::Histogram::BucketLowerEdgeInt(b)) << "v=" << v;
    if (b + 1 < obs::Histogram::kBuckets) {
      ASSERT_LT(v, obs::Histogram::BucketLowerEdgeInt(b + 1)) << "v=" << v;
    }
  }
}

TEST(ObsHistogramTest, BucketOfMatchesEdgesAtHighOctaveBoundaries) {
  for (int msb = 20; msb < 32; ++msb) {
    for (int64_t delta = -2; delta <= 2; ++delta) {
      uint64_t v = (uint64_t{1} << msb) + delta;
      size_t b = obs::Histogram::BucketOf(v);
      ASSERT_GE(v, obs::Histogram::BucketLowerEdgeInt(b)) << "v=" << v;
      if (b + 1 < obs::Histogram::kBuckets) {
        ASSERT_LT(v, obs::Histogram::BucketLowerEdgeInt(b + 1)) << "v=" << v;
      }
    }
  }
  // Values past the last bucket edge saturate instead of indexing out.
  EXPECT_EQ(obs::Histogram::BucketOf(UINT64_MAX),
            obs::Histogram::kBuckets - 1);
}

// The documented guarantee: true quantile q <= estimate <= q * 2^(1/4).
TEST(ObsHistogramTest, QuantilesWithinLogBucketBound) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::Histogram h;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> log_u(0.0, std::log(1e7));
  std::vector<uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = static_cast<uint64_t>(std::exp(log_u(rng))) + 1;
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  const double kBound = std::pow(2.0, 0.25);
  for (double p : {0.50, 0.90, 0.95, 0.99}) {
    auto rank = static_cast<size_t>(std::ceil(p * values.size()));
    double true_q = static_cast<double>(values[rank - 1]);
    double est = h.Percentile(p);
    EXPECT_GE(est, true_q) << "p=" << p;
    EXPECT_LE(est, true_q * kBound * (1 + 1e-9)) << "p=" << p;
  }
  obs::HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, values.size());
  EXPECT_EQ(s.min, values.front());
  EXPECT_EQ(s.max, values.back());
  EXPECT_DOUBLE_EQ(s.p50, h.Percentile(0.50));
  EXPECT_DOUBLE_EQ(s.p99, h.Percentile(0.99));
}

TEST(ObsScopedTimerTest, RecordsOnceStopDetaches) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::Histogram h;
  {
    obs::ScopedTimer t(h);
    (void)t.Stop();  // records and detaches
  }                  // destructor must not record a second sample
  EXPECT_EQ(h.Count(), 1u);
  {
    obs::ScopedTimer t(h);
  }
  EXPECT_EQ(h.Count(), 2u);
}

// ---------------------------------------------------------------------------
// JSON output: deterministic, stable key order, correct escaping.
// ---------------------------------------------------------------------------

TEST(ObsJsonTest, WriterGolden) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("str").String("a\"b\\c\n");
  w.Key("int").U64(42);
  w.Key("neg").I64(-7);
  w.Key("frac").Double(3.5);
  w.Key("whole").Double(2.0);
  w.Key("nan").Double(std::nan(""));
  w.Key("arr").BeginArray();
  w.U64(1);
  w.U64(2);
  w.EndArray();
  w.Key("obj").BeginObject();
  w.Key("t").Bool(true);
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"str\":\"a\\\"b\\\\c\\n\",\"int\":42,\"neg\":-7,"
            "\"frac\":3.500,\"whole\":2,\"nan\":null,"
            "\"arr\":[1,2],\"obj\":{\"t\":true}}");
}

TEST(ObsRegistryTest, ToJsonGolden) {
  obs::Registry r;
  r.GetCounter("a.count").Add(3);
  r.GetGauge("g.level").Set(-2);
  obs::Histogram& h = r.GetHistogram("h.us");
  h.Record(1);
  h.Record(100);
  if (!obs::kMetricsEnabled) {
    // Disabled builds report an honest empty document, not zero-filled data.
    EXPECT_EQ(r.ToJson(), "{}");
    return;
  }
  EXPECT_EQ(r.ToJson(),
            "{\"counters\":{\"a.count\":3},"
            "\"gauges\":{\"g.level\":-2},"
            "\"histograms\":{\"h.us\":{\"count\":2,\"sum\":101,\"min\":1,"
            "\"max\":100,\"p50\":1.189,\"p95\":107.635,\"p99\":107.635}}}");
  // Two snapshots of unchanged state are byte-identical (diff-friendliness).
  EXPECT_EQ(r.ToJson(), r.ToJson());
  r.Reset();
  EXPECT_EQ(r.GetCounter("a.count").Value(), 0u);
  EXPECT_EQ(r.GetHistogram("h.us").Count(), 0u);
}

TEST(ObsRegistryTest, ReferencesAreStableAcrossLookups) {
  obs::Registry r;
  obs::Counter& c1 = r.GetCounter("same.name");
  obs::Counter& c2 = r.GetCounter("same.name");
  EXPECT_EQ(&c1, &c2);
}

// ---------------------------------------------------------------------------
// The load-bearing invariant: instrumentation only observes. Running the
// full authenticated query path with metrics recording (twice, with a
// registry reset in between) must produce byte-identical VOs.
// ---------------------------------------------------------------------------

TEST(ObsDeterminismTest, MetricRecordingDoesNotPerturbQueryOutput) {
  core::Config config = core::Config::ImageProof();
  config.rsa_bits = 512;
  workload::CorpusParams cp;
  cp.num_images = 120;
  cp.num_clusters = 64;
  cp.seed = 7;
  auto corpus = workload::GenerateCorpus(cp);
  std::unordered_map<bovw::ImageId, Bytes> blobs;
  for (const auto& [id, v] : corpus) blobs[id] = workload::GenerateImageBlob(id);
  workload::CodebookParams cbp;
  cbp.num_clusters = 64;
  cbp.dims = 16;
  core::OwnerOutput owner = core::BuildDeployment(
      config, workload::GenerateCodebook(cbp), std::move(corpus),
      std::move(blobs));
  core::ServiceProvider sp(owner.package.get());

  auto features =
      workload::GenerateQueryFeatures(owner.package->codebook, 10, 0.3, 99);
  core::QueryResponse first = sp.Query(features, 5);
  obs::Registry::Global().Reset();
  core::QueryResponse second = sp.Query(features, 5);
  EXPECT_EQ(first.vo.Serialize(), second.vo.Serialize());
  ASSERT_EQ(first.topk.size(), second.topk.size());
  for (size_t i = 0; i < first.topk.size(); ++i) {
    EXPECT_EQ(first.topk[i].id, second.topk[i].id);
    EXPECT_EQ(first.topk[i].score, second.topk[i].score);
  }
  // And the instrumented path still verifies.
  core::Client client(owner.public_params);
  EXPECT_TRUE(client.Verify(features, 5, second.vo).ok());
  obs::Registry& reg = obs::Registry::Global();
  if (obs::kMetricsEnabled) {
    // The reset isolated the second query: exactly one query since Reset().
    EXPECT_EQ(reg.GetCounter("sp.queries").Value(), 1u);
    // One verify runs the inverted VO's parse step once, on its helper
    // thread, and every caller-thread stage once.
    EXPECT_EQ(reg.GetCounter("client.verifies").Value(), 1u);
    for (const char* name :
         {"client.stage.inv_prepare_us", "client.stage.reveal_verify_us",
          "client.stage.mrkd_replay_us", "client.stage.bovw_check_us",
          "client.stage.inv_verify_us", "client.stage.sig_verify_us"}) {
      EXPECT_EQ(reg.GetHistogram(name).Count(), 1u) << name;
    }
  } else {
    EXPECT_EQ(reg.GetHistogram("client.stage.inv_prepare_us").Count(), 0u);
  }
}

}  // namespace
}  // namespace imageproof
