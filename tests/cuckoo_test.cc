// Tests for the cuckoo filter: membership semantics, deletion support,
// false-positive behavior, serialization, and the paper's MaxCount bound
// (Algorithm 2 / Lemma 1).

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "bench/counting_bloom.h"
#include "cuckoo/cuckoo_filter.h"

namespace imageproof::cuckoo {
namespace {

TEST(CuckooParamsTest, GeometryForMaxItems) {
  CuckooParams p = CuckooParams::ForMaxItems(1000);
  EXPECT_EQ(p.num_buckets & (p.num_buckets - 1), 0u) << "power of two";
  EXPECT_GE(p.num_buckets, 600u);
  EXPECT_EQ(p.slots_per_bucket, 4u);
}

TEST(CuckooFilterTest, NoFalseNegatives) {
  CuckooParams params = CuckooParams::ForMaxItems(500);
  CuckooFilter filter(params);
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(filter.Insert(i * 1000003 + 7)) << i;
  }
  for (uint64_t i = 0; i < 500; ++i) {
    EXPECT_TRUE(filter.Contains(i * 1000003 + 7)) << i;
  }
}

TEST(CuckooFilterTest, LowFalsePositiveRate) {
  CuckooParams params = CuckooParams::ForMaxItems(2000);
  CuckooFilter filter(params);
  for (uint64_t i = 0; i < 2000; ++i) ASSERT_TRUE(filter.Insert(i));
  int fp = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    if (filter.Contains(1000000 + i)) ++fp;
  }
  // 8-bit fingerprints at <50% load: expect well under 3% (the paper's FPR
  // regime where cuckoo beats Bloom).
  EXPECT_LT(fp, probes * 3 / 100);
}

TEST(CuckooFilterTest, DeleteRemovesExactlyOneOccurrence) {
  CuckooParams params = CuckooParams::ForMaxItems(100);
  CuckooFilter filter(params);
  ASSERT_TRUE(filter.Insert(42));
  ASSERT_TRUE(filter.Insert(42));  // duplicate insertion is legal
  EXPECT_EQ(filter.Count(), 2u);
  EXPECT_TRUE(filter.Delete(42));
  EXPECT_TRUE(filter.Contains(42));  // one copy remains
  EXPECT_TRUE(filter.Delete(42));
  EXPECT_FALSE(filter.Contains(42));
  EXPECT_FALSE(filter.Delete(42));  // nothing left
  EXPECT_EQ(filter.Count(), 0u);
}

TEST(CuckooFilterTest, DeleteThenReinsert) {
  CuckooParams params = CuckooParams::ForMaxItems(300);
  CuckooFilter filter(params);
  for (uint64_t i = 0; i < 300; ++i) ASSERT_TRUE(filter.Insert(i));
  for (uint64_t i = 0; i < 300; i += 2) EXPECT_TRUE(filter.Delete(i));
  for (uint64_t i = 1; i < 300; i += 2) EXPECT_TRUE(filter.Contains(i));
  for (uint64_t i = 0; i < 300; i += 2) ASSERT_TRUE(filter.Insert(i));
  for (uint64_t i = 0; i < 300; ++i) EXPECT_TRUE(filter.Contains(i));
}

TEST(CuckooFilterTest, SerializationRoundTrip) {
  CuckooParams params = CuckooParams::ForMaxItems(200);
  CuckooFilter filter(params);
  for (uint64_t i = 0; i < 150; ++i) ASSERT_TRUE(filter.Insert(i * 31 + 5));
  Bytes data = filter.Serialize();
  auto restored = CuckooFilter::Deserialize(data);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->StateDigest(), filter.StateDigest());
  for (uint64_t i = 0; i < 150; ++i) {
    EXPECT_TRUE(restored->Contains(i * 31 + 5));
  }
  // Restored filter keeps deleting deterministically like the original.
  CuckooFilter copy = *restored;
  uint32_t b1, b2;
  ASSERT_TRUE(filter.Delete(36, &b1));
  ASSERT_TRUE(copy.Delete(36, &b2));
  EXPECT_EQ(b1, b2);
  EXPECT_EQ(copy.StateDigest(), filter.StateDigest());
}

TEST(CuckooFilterTest, DeserializeRejectsMalformed) {
  CuckooFilter filter(CuckooParams::ForMaxItems(50));
  Bytes data = filter.Serialize();
  Bytes truncated(data.begin(), data.end() - 1);
  EXPECT_FALSE(CuckooFilter::Deserialize(truncated).ok());
  Bytes trailing = data;
  trailing.push_back(0);
  EXPECT_FALSE(CuckooFilter::Deserialize(trailing).ok());
  Bytes bad_params = data;
  bad_params[0] = 3;  // non-power-of-two bucket count
  EXPECT_FALSE(CuckooFilter::Deserialize(bad_params).ok());
}

TEST(CuckooFilterTest, StateDigestTracksContent) {
  CuckooParams params = CuckooParams::ForMaxItems(100);
  CuckooFilter a(params), b(params);
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
  ASSERT_TRUE(a.Insert(7));
  EXPECT_NE(a.StateDigest(), b.StateDigest());
  ASSERT_TRUE(b.Insert(7));
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
}

TEST(CuckooFilterTest, SharedGeometryGivesSharedBuckets) {
  // Lemma 1 requires an item's fingerprint/buckets to agree across filters.
  CuckooParams params = CuckooParams::ForMaxItems(128);
  CuckooFilter a(params), b(params);
  for (uint64_t item : {1ULL, 99ULL, 123456789ULL}) {
    EXPECT_EQ(a.Fingerprint(item), b.Fingerprint(item));
    EXPECT_EQ(a.Bucket1(item), b.Bucket1(item));
  }
}

TEST(CuckooFilterTest, AltBucketIsInvolution) {
  CuckooFilter f(CuckooParams::ForMaxItems(256));
  for (uint64_t item = 0; item < 64; ++item) {
    uint16_t fp = f.Fingerprint(item);
    uint32_t b1 = f.Bucket1(item);
    uint32_t b2 = f.AltBucket(b1, fp);
    EXPECT_EQ(f.AltBucket(b2, fp), b1);
  }
}

TEST(CuckooFilterTest, SixteenBitFingerprints) {
  CuckooParams params = CuckooParams::ForMaxItems(100, /*fingerprint_bits=*/16);
  CuckooFilter filter(params);
  for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(filter.Insert(i));
  for (uint64_t i = 0; i < 100; ++i) EXPECT_TRUE(filter.Contains(i));
  auto restored = CuckooFilter::Deserialize(filter.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->StateDigest(), filter.StateDigest());
}

// MaxCount (Algorithm 2): gamma upper-bounds the true max frequency of any
// item across the filter set.
// Membership by scanning both candidate buckets slot by slot.
bool ScanContains(const CuckooFilter& f, const Probe& p) {
  for (uint32_t b : {p.b1, p.b2}) {
    for (uint32_t s = 0; s < f.params().slots_per_bucket; ++s) {
      if (f.slot(b, s) == p.fingerprint) return true;
    }
  }
  return false;
}

TEST(CuckooFilterTest, ProbeFormsMatchItemForms) {
  // 4 slots per bucket takes the one-word bucket test; 2 and 8 the scan.
  for (uint32_t slots : {4u, 2u, 8u}) {
    CuckooParams params =
        CuckooParams::ForMaxItems(300, /*fingerprint_bits=*/12);
    params.slots_per_bucket = slots;
    CuckooFilter by_item(params), by_probe(params);
    for (uint64_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(by_item.Insert(i * 7919));
      ASSERT_TRUE(by_probe.Insert(i * 7919));
    }
    // Members (multiples of 7919 below 300 * 7919) and mostly non-members.
    for (uint64_t item = 0; item < 300 * 7919; item += 1201) {
      const Probe p = by_probe.ProbeOf(item);
      EXPECT_EQ(p.fingerprint, by_item.Fingerprint(item));
      EXPECT_EQ(p.b1, by_item.Bucket1(item));
      EXPECT_EQ(p.b2, by_item.AltBucket(p.b1, p.fingerprint));
      EXPECT_EQ(by_probe.Contains(p), ScanContains(by_probe, p)) << item;
      EXPECT_EQ(by_item.Contains(item), ScanContains(by_probe, p)) << item;
    }
    for (uint64_t i = 0; i < 300; ++i) {
      EXPECT_TRUE(by_probe.Contains(by_probe.ProbeOf(i * 7919))) << i;
    }
    for (uint64_t i = 0; i < 300; i += 2) {
      uint32_t b_item = 0, b_probe = 0;
      ASSERT_TRUE(by_item.Delete(i * 7919, &b_item));
      ASSERT_TRUE(by_probe.Delete(by_probe.ProbeOf(i * 7919), &b_probe));
      EXPECT_EQ(b_item, b_probe);
    }
    EXPECT_EQ(by_item.Serialize(), by_probe.Serialize()) << slots;
  }
}

TEST(MaxCountTest, BoundsTrueFrequency) {
  CuckooParams params = CuckooParams::ForMaxItems(200);
  Rng rng(77);
  std::vector<CuckooFilter> filters(20, CuckooFilter(params));
  std::vector<std::set<uint64_t>> contents(20);
  // Insert random items; item 7 goes into 15 filters (the heavy hitter).
  for (int f = 0; f < 20; ++f) {
    for (int i = 0; i < 100; ++i) {
      uint64_t item = rng.NextBounded(5000) + 100;
      if (contents[f].insert(item).second) {
        ASSERT_TRUE(filters[f].Insert(item));
      }
    }
  }
  for (int f = 0; f < 15; ++f) {
    if (contents[f].insert(7).second) {
      ASSERT_TRUE(filters[f].Insert(7));
    }
  }
  // True max frequency across filters.
  size_t true_max = 0;
  std::set<uint64_t> all_items;
  for (const auto& c : contents) all_items.insert(c.begin(), c.end());
  for (uint64_t item : all_items) {
    size_t freq = 0;
    for (const auto& c : contents) freq += c.count(item);
    true_max = std::max(true_max, freq);
  }
  std::vector<const CuckooFilter*> ptrs;
  for (const auto& f : filters) ptrs.push_back(&f);
  uint32_t gamma = MaxCountTracker(ptrs).Gamma();
  EXPECT_GE(gamma, true_max);  // Lemma 1
}

TEST(MaxCountTest, EmptyFilterSet) {
  EXPECT_EQ(MaxCountTracker({}).Gamma(), 0u);
}

TEST(MaxCountTest, TrackerMatchesRescanUnderDeletions) {
  CuckooParams params = CuckooParams::ForMaxItems(100);
  std::vector<CuckooFilter> filters(8, CuckooFilter(params));
  for (int f = 0; f < 8; ++f) {
    for (uint64_t i = 0; i < 60; ++i) {
      ASSERT_TRUE(filters[f].Insert(i * (f + 1)));
    }
  }
  std::vector<const CuckooFilter*> ptrs;
  for (const auto& f : filters) ptrs.push_back(&f);
  // A tracker built from the current filters is a rescan.
  MaxCountTracker tracker(ptrs);
  EXPECT_EQ(tracker.Gamma(), MaxCountTracker(ptrs).Gamma());

  Rng rng(13);
  for (int step = 0; step < 200; ++step) {
    int f = static_cast<int>(rng.NextBounded(8));
    uint64_t item = rng.NextBounded(60) * (f + 1);
    uint32_t bucket;
    if (filters[f].Delete(item, &bucket)) {
      tracker.OnDelete(bucket, filters[f].Fingerprint(item));
    }
    ASSERT_EQ(tracker.Gamma(), MaxCountTracker(ptrs).Gamma())
        << "step " << step;
  }
}

// Brute-force Algorithm 2 over a (bucket, fingerprint) -> count map.
uint32_t BruteForceGamma(const std::vector<const CuckooFilter*>& filters) {
  std::map<std::pair<uint32_t, uint16_t>, uint32_t> counts;
  uint32_t max = 0;
  for (const CuckooFilter* f : filters) {
    for (uint32_t b = 0; b < f->params().num_buckets; ++b) {
      for (uint32_t s = 0; s < f->params().slots_per_bucket; ++s) {
        if (f->slot(b, s) != 0) {
          max = std::max(max, ++counts[{b, f->slot(b, s)}]);
        }
      }
    }
  }
  return 2 * max;
}

TEST(MaxCountTest, TrackerMatchesBruteForceUnderDeletions) {
  for (uint32_t fp_bits : {4u, 8u, 16u}) {
    CuckooParams params = CuckooParams::ForMaxItems(64, fp_bits);
    std::vector<CuckooFilter> filters(12, CuckooFilter(params));
    Rng rng(fp_bits);
    std::vector<std::vector<uint64_t>> items(filters.size());
    for (size_t f = 0; f < filters.size(); ++f) {
      for (int i = 0; i < 40; ++i) {
        uint64_t item = rng.NextBounded(120);  // heavy overlap across filters
        if (filters[f].Insert(item)) items[f].push_back(item);
      }
    }
    std::vector<const CuckooFilter*> ptrs;
    for (const auto& f : filters) ptrs.push_back(&f);
    MaxCountTracker tracker(ptrs);
    ASSERT_TRUE(tracker.ok());
    ASSERT_EQ(tracker.Gamma(), BruteForceGamma(ptrs)) << fp_bits;
    for (size_t f = 0; f < filters.size(); ++f) {
      for (uint64_t item : items[f]) {
        uint32_t bucket = 0;
        ASSERT_TRUE(filters[f].Delete(item, &bucket));
        tracker.OnDelete(bucket, filters[f].Fingerprint(item));
        ASSERT_EQ(tracker.Gamma(), BruteForceGamma(ptrs)) << fp_bits;
      }
    }
    EXPECT_EQ(tracker.Gamma(), 0u);
  }
}

TEST(MaxCountTest, MixedGeometryRefused) {
  CuckooParams small = CuckooParams::ForMaxItems(4);
  CuckooParams wide = CuckooParams::ForMaxItems(1000, /*fingerprint_bits=*/16);
  CuckooFilter a(small), b(wide);
  for (uint64_t i = 0; i < 4; ++i) ASSERT_TRUE(a.Insert(i));
  for (uint64_t i = 0; i < 1000; ++i) ASSERT_TRUE(b.Insert(i));
  for (const auto& ptrs : {std::vector<const CuckooFilter*>{&a, &b},
                           std::vector<const CuckooFilter*>{&b, &a}}) {
    MaxCountTracker tracker(ptrs);
    EXPECT_FALSE(tracker.ok());
    EXPECT_EQ(tracker.Gamma(), std::numeric_limits<uint32_t>::max());
    tracker.OnDelete(3, 0xFFFF);  // tracks nothing; must not index anything
  }
  // Parameters beyond the geometry count too: a differing seed changes every
  // probe.
  CuckooParams reseeded = small;
  reseeded.seed ^= 1;
  CuckooFilter c(reseeded);
  EXPECT_FALSE(MaxCountTracker({&a, &c}).ok());
}

// ---------------------------------------------------------------------------
// Counting Bloom filter (the comparison structure)
// ---------------------------------------------------------------------------

TEST(CountingBloomTest, NoFalseNegatives) {
  CountingBloomFilter filter(BloomParams::ForMaxItems(500));
  for (uint64_t i = 0; i < 500; ++i) ASSERT_TRUE(filter.Insert(i * 7 + 1));
  for (uint64_t i = 0; i < 500; ++i) EXPECT_TRUE(filter.Contains(i * 7 + 1));
}

TEST(CountingBloomTest, LowFalsePositiveRate) {
  CountingBloomFilter filter(BloomParams::ForMaxItems(2000));
  for (uint64_t i = 0; i < 2000; ++i) ASSERT_TRUE(filter.Insert(i));
  int fp = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    if (filter.Contains(1000000 + i)) ++fp;
  }
  EXPECT_LT(fp, probes * 2 / 100);
}

TEST(CountingBloomTest, DeleteSupportsMultiplicity) {
  CountingBloomFilter filter(BloomParams::ForMaxItems(100));
  ASSERT_TRUE(filter.Insert(42));
  ASSERT_TRUE(filter.Insert(42));
  EXPECT_TRUE(filter.Delete(42));
  EXPECT_TRUE(filter.Contains(42));
  EXPECT_TRUE(filter.Delete(42));
  EXPECT_FALSE(filter.Contains(42));
  EXPECT_FALSE(filter.Delete(42));
}

TEST(CountingBloomTest, CounterSaturationRejected) {
  CountingBloomFilter filter(BloomParams::ForMaxItems(64));
  // The same item 15 times saturates its counters; the 16th insert fails
  // cleanly and the filter still contains the item.
  for (int i = 0; i < 15; ++i) ASSERT_TRUE(filter.Insert(7)) << i;
  EXPECT_FALSE(filter.Insert(7));
  EXPECT_TRUE(filter.Contains(7));
}

TEST(CountingBloomTest, StateDigestTracksContent) {
  BloomParams params = BloomParams::ForMaxItems(100);
  CountingBloomFilter a(params), b(params);
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
  ASSERT_TRUE(a.Insert(5));
  EXPECT_NE(a.StateDigest(), b.StateDigest());
  ASSERT_TRUE(a.Delete(5));
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
}

TEST(CuckooStressTest, HighLoadInsertMostlySucceeds) {
  // At the paper's 60%-of-max sizing, load stays below ~42% and inserts
  // never fail; push to ~90% to confirm the eviction path works.
  CuckooParams params;
  params.num_buckets = 64;
  CuckooFilter filter(params);
  size_t capacity = params.num_buckets * params.slots_per_bucket;
  size_t inserted = 0;
  for (uint64_t i = 0; i < capacity * 9 / 10; ++i) {
    if (filter.Insert(i)) ++inserted;
  }
  EXPECT_GE(inserted, capacity * 8 / 10);
  EXPECT_EQ(filter.Count(), inserted);
}

}  // namespace
}  // namespace imageproof::cuckoo
