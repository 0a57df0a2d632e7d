// Property tests for the retrieval-kernel layer (common/kernels.h).
//
// The load-bearing guarantee is bit-exactness: the AVX2 and portable
// implementations must produce identical doubles for every input, because
// query responses (and hence client verification) must not depend on which
// path the dispatcher picked. The tests sweep randomized dimensions
// (including non-multiple-of-8 tails), lengths, and value regimes
// (denormals, huge magnitudes, signed zeros) and compare raw bit patterns.
//
// The file also pins the allocation contract: a warm kern::SearchScratch /
// core::QueryScratch makes the search-stage machinery heap-allocation-free,
// verified with a counting global operator new.

#include "common/kernels.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <unordered_map>
#include <vector>

#include "ann/points.h"
#include "ann/rkd_forest.h"
#include "common/random.h"
#include "common/varint_kernels.h"
#include "core/owner.h"
#include "core/server.h"
#include "workload/synthetic.h"

// ---------------------------------------------------------------------------
// Counting allocation hook. Every global allocation in the binary routes
// through these; the zero-alloc tests diff the counter around a warm search.
// The replacements keep malloc underneath so sanitizer interposition (ASan
// poisoning, LSan bookkeeping) still sees every allocation.

namespace {
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n == 0 ? align : n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace imageproof {
namespace {

using kern::internal::KernelImpls;

// Random floats across the regimes that stress summation order: denormals,
// huge and tiny magnitudes, signed zeros, and ordinary values. Never NaN or
// infinity — distances over them are not meaningful inputs.
float RandomFloat(Rng& rng) {
  const uint64_t regime = rng.NextU64() % 16;
  const float sign = (rng.NextU64() & 1) ? 1.0f : -1.0f;
  if (regime == 0) {
    // Denormal: zero exponent, random mantissa.
    uint32_t bits = static_cast<uint32_t>(rng.NextU64()) & 0x007FFFFFu;
    if (rng.NextU64() & 1) bits |= 0x80000000u;
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
  }
  if (regime == 1) return sign * 0.0f;
  if (regime == 2) {
    // Huge: ~2^100 scale.
    return sign * std::ldexp(1.0f + static_cast<float>(rng.NextU64() % 1000) /
                                        1000.0f,
                             100);
  }
  if (regime == 3) {
    // Tiny normal: ~2^-120 scale.
    return sign * std::ldexp(1.0f + static_cast<float>(rng.NextU64() % 1000) /
                                        1000.0f,
                             -120);
  }
  return sign * static_cast<float>(rng.NextU64() % 1000000) / 3333.0f;
}

std::vector<float> RandomVec(Rng& rng, size_t n) {
  std::vector<float> v(n);
  for (float& f : v) f = RandomFloat(rng);
  return v;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Dimension sweep: every tail length mod 8, plus larger sizes spanning
// multiple prune-check windows.
const size_t kDims[] = {1,  2,  3,   5,   7,   8,   9,   15,  16,  17,
                        24, 31, 32,  33,  40,  63,  64,  65,  96,  127,
                        128, 129, 200, 256, 333, 512, 1000};

// The canonical order restated from its definition: 8 lane accumulators,
// lane i%8, reduced by ReduceLanes. Locks the implementations to the
// documented order, not merely to each other.
double LaneReferenceSquaredL2(const float* a, const float* b, size_t n) {
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t i = 0; i < n; ++i) {
    double diff = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    lanes[i & 7] += diff * diff;
  }
  return kern::internal::ReduceLanes(lanes);
}

TEST(KernelsTest, PortableMatchesLaneReference) {
  Rng rng(101);
  for (size_t n : kDims) {
    for (int trial = 0; trial < 8; ++trial) {
      auto a = RandomVec(rng, n);
      auto b = RandomVec(rng, n);
      double expect = LaneReferenceSquaredL2(a.data(), b.data(), n);
      double got = kern::internal::Portable().squared_l2(a.data(), b.data(), n);
      EXPECT_TRUE(BitEqual(expect, got)) << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(KernelsTest, Avx2MatchesPortableBitExact) {
  const KernelImpls* avx2 = kern::internal::Avx2();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 path not available in this build";
  const KernelImpls& portable = kern::internal::Portable();
  Rng rng(202);
  for (size_t n : kDims) {
    for (int trial = 0; trial < 16; ++trial) {
      auto a = RandomVec(rng, n);
      auto b = RandomVec(rng, n);
      EXPECT_TRUE(BitEqual(portable.squared_l2(a.data(), b.data(), n),
                           avx2->squared_l2(a.data(), b.data(), n)))
          << "squared_l2 n=" << n << " trial=" << trial;
      EXPECT_TRUE(BitEqual(portable.dot(a.data(), b.data(), n),
                           avx2->dot(a.data(), b.data(), n)))
          << "dot n=" << n << " trial=" << trial;
      EXPECT_TRUE(BitEqual(portable.squared_norm(a.data(), n),
                           avx2->squared_norm(a.data(), n)))
          << "squared_norm n=" << n << " trial=" << trial;
    }
  }
}

TEST(GroupVarintKernelTest, Avx2MatchesPortableBitExact) {
  kern::internal::GroupVarintDecodeFn avx2 =
      kern::internal::GroupVarintDecodeAvx2();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 path not available in this build";
  Rng rng(303);
  const uint32_t boundaries[] = {0, 1, 0xFFu, 0x100u, 0xFFFFu, 0x10000u,
                                 0xFFFFFFu, 0x1000000u, 0xFFFFFFFFu};
  for (size_t n : {0u, 1u, 3u, 4u, 5u, 15u, 16u, 17u, 64u, 333u, 4096u}) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<uint32_t> values(n);
      for (auto& v : values) {
        v = (rng.NextBounded(2) == 0)
                ? boundaries[rng.NextBounded(std::size(boundaries))]
                : static_cast<uint32_t>(rng.NextU64());
      }
      ByteWriter w;
      kern::GroupVarintEncode(values.data(), n, w);
      // Trailing garbage after the block: the AVX2 fast path may look at
      // (but never consume) bytes past the block while 16 bytes remain, and
      // both decoders must still stop at exactly the block boundary.
      Bytes encoded = w.Take();
      size_t block = encoded.size();
      for (int g = 0; g < 24; ++g) {
        encoded.push_back(static_cast<uint8_t>(rng.NextU64()));
      }

      std::vector<uint32_t> portable_out(n + 1, 0xA5A5A5A5u);
      std::vector<uint32_t> avx2_out(n + 1, 0x5A5A5A5Au);
      ByteReader pr(encoded);
      ByteReader ar(encoded);
      ASSERT_TRUE(kern::internal::GroupVarintDecodePortable(pr, n,
                                                            portable_out.data())
                      .ok());
      ASSERT_TRUE(avx2(ar, n, avx2_out.data()).ok());
      EXPECT_EQ(pr.remaining(), encoded.size() - block) << "n=" << n;
      EXPECT_EQ(ar.remaining(), encoded.size() - block) << "n=" << n;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(portable_out[i], avx2_out[i]) << "n=" << n << " i=" << i;
      }

      // Truncations: both paths must agree on rejection too.
      for (size_t len = 0; len < block; len += (block / 7) + 1) {
        Bytes prefix(encoded.begin(), encoded.begin() + len);
        ByteReader tp(prefix);
        ByteReader ta(prefix);
        Status sp = kern::internal::GroupVarintDecodePortable(
            tp, n, portable_out.data());
        Status sa = avx2(ta, n, avx2_out.data());
        EXPECT_EQ(sp.ok(), sa.ok()) << "n=" << n << " len=" << len;
        if (n > 0) {
          EXPECT_FALSE(sp.ok()) << "n=" << n << " len=" << len;
        }
      }
    }
  }
}

TEST(KernelsTest, BatchMatchesSingleBitExact) {
  std::vector<const KernelImpls*> impls = {&kern::internal::Portable()};
  if (kern::internal::Avx2() != nullptr) {
    impls.push_back(kern::internal::Avx2());
  }
  Rng rng(303);
  // Row counts cover every remainder of the 4-row interleave in the AVX2
  // batch kernel; stride > dims exercises strided row-major layouts.
  for (const KernelImpls* impl : impls) {
    for (size_t dims : {1u, 7u, 8u, 17u, 64u, 128u, 130u}) {
      for (size_t n_rows : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 33u}) {
        const size_t stride = dims + (rng.NextU64() % 3);
        auto q = RandomVec(rng, dims);
        auto rows = RandomVec(rng, n_rows * stride);
        std::vector<double> out(n_rows, -1.0);
        impl->squared_l2_batch(q.data(), rows.data(), stride, n_rows, dims,
                               out.data());
        for (size_t r = 0; r < n_rows; ++r) {
          double single =
              impl->squared_l2(q.data(), rows.data() + r * stride, dims);
          EXPECT_TRUE(BitEqual(single, out[r]))
              << "dims=" << dims << " rows=" << n_rows << " r=" << r;
        }
      }
    }
  }
}

TEST(KernelsTest, PrunedSemantics) {
  std::vector<const KernelImpls*> impls = {&kern::internal::Portable()};
  if (kern::internal::Avx2() != nullptr) {
    impls.push_back(kern::internal::Avx2());
  }
  Rng rng(404);
  const double kInf = std::numeric_limits<double>::infinity();
  for (size_t n : kDims) {
    for (int trial = 0; trial < 8; ++trial) {
      auto a = RandomVec(rng, n);
      auto b = RandomVec(rng, n);
      const double exact = kern::internal::Portable().squared_l2(
          a.data(), b.data(), n);
      // Bounds below, at, and above the exact distance, plus infinity.
      const double bounds[] = {exact * 0.25, exact * 0.75, exact, exact * 1.5,
                               kInf};
      for (const KernelImpls* impl : impls) {
        // An unreachable bound returns the exact canonical distance.
        EXPECT_TRUE(
            BitEqual(exact, impl->squared_l2_pruned(a.data(), b.data(), n,
                                                    kInf)));
        for (double bound : bounds) {
          double pruned =
              impl->squared_l2_pruned(a.data(), b.data(), n, bound);
          // Partial sums of squares are nondecreasing, so the return value
          // never exceeds the exact distance...
          EXPECT_LE(pruned, exact);
          // ...and a value below the bound means no prune fired: it must be
          // the exact canonical distance, bit for bit.
          if (pruned < bound) {
            EXPECT_TRUE(BitEqual(pruned, exact))
                << "n=" << n << " bound=" << bound;
          }
        }
      }
      if (impls.size() == 2) {
        // Both paths check the partial sum at the same cadence, so they
        // must take the same prune decision and return identical bits.
        for (double bound : bounds) {
          EXPECT_TRUE(BitEqual(
              impls[0]->squared_l2_pruned(a.data(), b.data(), n, bound),
              impls[1]->squared_l2_pruned(a.data(), b.data(), n, bound)))
              << "n=" << n << " bound=" << bound;
        }
      }
    }
  }
}

TEST(KernelsTest, PublicEntryPointsMatchCanonical) {
  Rng rng(505);
  for (size_t n : {1u, 8u, 17u, 128u, 333u}) {
    auto a = RandomVec(rng, n);
    auto b = RandomVec(rng, n);
    double expect = LaneReferenceSquaredL2(a.data(), b.data(), n);
    EXPECT_TRUE(BitEqual(expect, kern::SquaredL2(a.data(), b.data(), n)));
    EXPECT_TRUE(BitEqual(expect, ann::SquaredL2(a.data(), b.data(), n)));
    double out[1];
    kern::SquaredL2Batch(a.data(), b.data(), n, 1, n, out);
    EXPECT_TRUE(BitEqual(expect, out[0]));
  }
}

TEST(KernelsTest, ScalarRefAgreesWithinRounding) {
  // The pre-PR sequential loop is not bit-compatible with the canonical
  // order but must agree to rounding — a gross mismatch means a kernel bug,
  // not reassociation.
  Rng rng(606);
  for (size_t n : {16u, 128u, 512u}) {
    std::vector<float> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.NextU64() % 1000) / 10.0f;
      b[i] = static_cast<float>(rng.NextU64() % 1000) / 10.0f;
    }
    double ref = kern::internal::SquaredL2ScalarRef(a.data(), b.data(), n);
    double got = kern::SquaredL2(a.data(), b.data(), n);
    EXPECT_NEAR(ref, got, 1e-9 * std::max(1.0, std::abs(ref)));
  }
}

// ---------------------------------------------------------------------------
// Top-k and accumulator.

TEST(TopKTest, MatchesSortTruncate) {
  Rng rng(707);
  for (size_t n : {0u, 1u, 5u, 100u}) {
    for (size_t k : {0u, 1u, 3u, 10u, 100u, 200u}) {
      std::vector<kern::ScoredEntry> entries(n);
      for (auto& e : entries) {
        // Few distinct scores force tie-breaking through ids.
        e.score = static_cast<double>(rng.NextU64() % 7);
        e.id = rng.NextU64() % 50;
      }
      std::vector<kern::ScoredEntry> expect = entries;
      std::sort(expect.begin(), expect.end(),
                [](const kern::ScoredEntry& a, const kern::ScoredEntry& b) {
                  return kern::ScoredWorse(b, a);
                });
      if (expect.size() > k) expect.resize(k);

      std::vector<kern::ScoredEntry> heap;
      for (const auto& e : entries) kern::TopKPush(heap, k, e);
      kern::TopKFinish(heap);

      ASSERT_EQ(expect.size(), heap.size()) << "n=" << n << " k=" << k;
      for (size_t i = 0; i < heap.size(); ++i) {
        // Equal (score, id) pairs are interchangeable; compare the ordered
        // (score, id) sequence.
        EXPECT_EQ(expect[i].score, heap[i].score) << "i=" << i;
        EXPECT_EQ(expect[i].id, heap[i].id) << "i=" << i;
      }
    }
  }
}

TEST(ScoreAccumulatorTest, MatchesMapAndKeepsFirstTouchOrder) {
  Rng rng(808);
  kern::ScoreAccumulator acc;
  for (int round = 0; round < 3; ++round) {
    acc.Clear();
    std::unordered_map<uint64_t, double> expect;
    std::vector<uint64_t> first_touch;
    for (int i = 0; i < 5000; ++i) {
      uint64_t key = rng.NextU64() % 700;
      double delta = static_cast<double>(rng.NextU64() % 1000) / 7.0;
      if (!expect.contains(key)) first_touch.push_back(key);
      expect[key] += delta;
      acc.Add(key, delta);
    }
    ASSERT_EQ(expect.size(), acc.size());
    for (size_t i = 0; i < acc.size(); ++i) {
      EXPECT_EQ(first_touch[i], acc.key(i)) << "round=" << round;
      EXPECT_EQ(expect[acc.key(i)], acc.value(i)) << "round=" << round;
    }
  }
}

// ---------------------------------------------------------------------------
// PointSet regressions.

TEST(PointSetTest, TryFromRowsRejectsRagged) {
  auto ok = ann::PointSet::TryFromRows({{1, 2, 3}, {4, 5, 6}});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(3u, ok->dims());
  EXPECT_EQ(2u, ok->size());

  auto ragged = ann::PointSet::TryFromRows({{1, 2, 3}, {4, 5}});
  ASSERT_FALSE(ragged.ok());
  EXPECT_NE(ragged.status().message().find("ragged"), std::string::npos);
  EXPECT_NE(ragged.status().message().find("row 1"), std::string::npos);

  EXPECT_TRUE(ann::PointSet::TryFromRows({}).ok());
}

#if GTEST_HAS_DEATH_TEST
TEST(PointSetTest, FromRowsAbortsOnRagged) {
  EXPECT_DEATH(ann::PointSet::FromRows({{1, 2}, {3}}), "ragged point rows");
}
#endif

TEST(PointSetTest, StorageIsAligned) {
  ann::PointSet ps(16, 4);
  EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(ps.row(0)) %
                    kern::kPointAlignment);
}

// ---------------------------------------------------------------------------
// Allocation contract.

TEST(AllocTest, WarmForestSearchDoesNotAllocate) {
  Rng rng(909);
  const size_t dims = 16, n = 256;
  ann::PointSet points(dims, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dims; ++d) {
      points.row(i)[d] = static_cast<float>(rng.NextU64() % 1000) / 10.0f;
    }
  }
  ann::RkdForest forest(points, ann::ForestParams{});
  std::vector<std::vector<float>> queries;
  for (int q = 0; q < 8; ++q) {
    std::vector<float> v(dims);
    for (float& f : v) f = static_cast<float>(rng.NextU64() % 1000) / 10.0f;
    queries.push_back(std::move(v));
  }

  kern::SearchScratch scratch;
  std::vector<ann::NearestResult> warm(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    warm[q] = forest.ApproxNearest(queries[q].data(), &scratch);
  }

  const uint64_t before = AllocCount();
  for (int rep = 0; rep < 20; ++rep) {
    for (size_t q = 0; q < queries.size(); ++q) {
      ann::NearestResult r = forest.ApproxNearest(queries[q].data(), &scratch);
      ASSERT_EQ(warm[q].index, r.index);
      ASSERT_TRUE(BitEqual(warm[q].dist_sq, r.dist_sq));
    }
  }
  EXPECT_EQ(0u, AllocCount() - before);
}

TEST(AllocTest, WarmScoreAccumulatorAndTopKDoNotAllocate) {
  Rng rng(1010);
  std::vector<std::pair<uint64_t, double>> postings(3000);
  for (auto& [id, imp] : postings) {
    id = rng.NextU64() % 500;
    imp = static_cast<double>(rng.NextU64() % 1000) / 9.0;
  }
  kern::SearchScratch scratch;
  auto run = [&] {
    scratch.scores.Clear();
    for (const auto& [id, imp] : postings) scratch.scores.Add(id, imp);
    scratch.score_heap.clear();
    for (size_t i = 0; i < scratch.scores.size(); ++i) {
      kern::TopKPush(scratch.score_heap, 10,
                     {scratch.scores.value(i), scratch.scores.key(i)});
    }
    kern::TopKFinish(scratch.score_heap);
  };
  run();  // warm-up grows every buffer to steady state
  const uint64_t before = AllocCount();
  for (int rep = 0; rep < 20; ++rep) run();
  EXPECT_EQ(0u, AllocCount() - before);
}

TEST(AllocTest, WarmQueryScratchReducesAllocations) {
  core::Config config = core::Config::ImageProof();
  config.rsa_bits = 512;
  config.sign_images = false;
  workload::CorpusParams cp;
  cp.num_images = 400;
  cp.num_clusters = 256;
  cp.seed = 5;
  auto corpus = workload::GenerateCorpus(cp);
  workload::CodebookParams cbp;
  cbp.num_clusters = 256;
  cbp.dims = 16;
  cbp.seed = 6;
  core::OwnerOutput owner = core::BuildDeployment(
      config, workload::GenerateCodebook(cbp), std::move(corpus), {}, 7);
  core::ServiceProvider sp(owner.package.get());
  auto features = workload::FeaturesFromBovw(
      owner.package->codebook, owner.package->corpus[0].second, 30, 0.25, 0.2,
      8);

  core::QueryScratch scratch;
  auto count_query = [&](core::QueryScratch* s) {
    const uint64_t before = AllocCount();
    core::QueryResponse resp;
    Status st = sp.Query(features, 10, {}, {}, &resp, s);
    EXPECT_TRUE(st.ok()) << st.message();
    return AllocCount() - before;
  };

  const uint64_t cold = count_query(&scratch);   // grows the scratch
  const uint64_t warm = count_query(&scratch);   // steady state
  const uint64_t bare = count_query(nullptr);    // no scratch at all
  // The warm call still allocates (VO bytes, candidate sets, response
  // payload — caller-owned output), but strictly less than the cold call
  // and the scratch-free call: the search machinery no longer allocates.
  EXPECT_LT(warm, cold);
  EXPECT_LT(warm, bare);
}

}  // namespace
}  // namespace imageproof
