// Ablation — cuckoo filter vs counting Bloom filter as the deletable
// set-membership structure (the design choice Section II-B motivates:
// cuckoo filters give better lookups and less space at FPR < 3%).
//
// Both structures are sized for the same item count, then measured on
// serialized size (what a VO would carry), false-positive rate after the
// verifier-style delete-half workload, and lookup/delete throughput.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "bench/counting_bloom.h"
#include "cuckoo/cuckoo_filter.h"

using namespace imageproof;
using namespace imageproof::cuckoo;

template <typename Filter>
void Measure(const char* name, Filter& filter, size_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    if (!filter.Insert(i)) {
      std::printf("%-16s insert failed at %llu\n", name,
                  static_cast<unsigned long long>(i));
      return;
    }
  }
  // Verifier-style workload: delete half the members (popped images).
  for (uint64_t i = 0; i < n; i += 2) filter.Delete(i);

  // FPR against items never inserted.
  const int probes = 200000;
  int fp = 0;
  for (int i = 0; i < probes; ++i) {
    if (filter.Contains(1000000 + i)) ++fp;
  }

  // Lookup throughput.
  Stopwatch lookup_timer;
  uint64_t sink = 0;
  for (int r = 0; r < 10; ++r) {
    for (uint64_t i = 0; i < n; ++i) sink += filter.Contains(i);
  }
  double lookup_ns = lookup_timer.ElapsedMillis() * 1e6 / (10.0 * n);

  // Delete+reinsert throughput.
  Stopwatch mut_timer;
  for (uint64_t i = 1; i < n; i += 2) {
    filter.Delete(i);
    filter.Insert(i);
  }
  double mut_ns = mut_timer.ElapsedMillis() * 1e6 / n;

  std::printf("%-16s %10zu %12.3f%% %12.1f %12.1f%s\n", name,
              filter.Serialize().size(), 100.0 * fp / probes, lookup_ns,
              mut_ns, sink == 0 ? " (!)" : "");
}

int main(int argc, char** argv) {
  bench::InitBench(argc, argv, "abl_membership");
  std::printf("Ablation — deletable set-membership structures (per list of n "
              "items, half deleted)\n");
  std::printf("%-16s %10s %13s %12s %12s\n", "structure", "bytes", "FPR",
              "lookup_ns", "del+ins_ns");
  std::printf("----------------------------------------------------------------"
              "---\n");
  for (size_t n : {500, 2000, 8000}) {
    std::printf("n = %zu\n", n);
    CuckooFilter cuckoo8(CuckooParams::ForMaxItems(n, 8));
    Measure("cuckoo 8-bit", cuckoo8, n);
    CuckooFilter cuckoo12(CuckooParams::ForMaxItems(n, 12));
    Measure("cuckoo 12-bit", cuckoo12, n);
    CountingBloomFilter bloom(BloomParams::ForMaxItems(n));
    Measure("counting bloom", bloom, n);
  }
  std::printf("(expected: cuckoo smaller at comparable FPR, faster lookups — "
              "the paper's Section II-B rationale)\n");
  return bench::FinishBench(0);
}
