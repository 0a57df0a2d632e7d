// Counting Bloom filter — the classical deletable approximate-membership
// alternative the cuckoo filter is measured against (Fan et al., CoNEXT'14,
// Table 1; the ImageProof paper cites the same comparison when motivating
// cuckoo filters: better lookups and less space below 3% FPR).
//
// Four-bit counters, k independent hash functions derived from one 64-bit
// mix. Provided for the abl_membership benchmark and as a drop-in mental
// model; the authenticated index always uses cuckoo filters (they ship in
// VOs, where their compactness matters most).

#ifndef IMAGEPROOF_BENCH_COUNTING_BLOOM_H_
#define IMAGEPROOF_BENCH_COUNTING_BLOOM_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "crypto/digest.h"

namespace imageproof::cuckoo {

struct BloomParams {
  uint64_t num_counters = 1024;  // 4-bit counters
  uint32_t num_hashes = 4;
  uint64_t seed = 0xB100F;

  // Sizes the filter for `max_items` at roughly the same FPR an 8-bit
  // cuckoo filter achieves (~1-2%): ~10 counters per item, 7 hashes would
  // be optimal for plain Bloom; counting Blooms conventionally use 4-5.
  static BloomParams ForMaxItems(size_t max_items, uint64_t seed = 0xB100F);
};

class CountingBloomFilter {
 public:
  explicit CountingBloomFilter(BloomParams params);

  // Returns false on counter saturation (15), which would make future
  // deletions unsafe.
  bool Insert(uint64_t item);
  bool Contains(uint64_t item) const;
  // Removes one occurrence; false if any counter is already zero.
  bool Delete(uint64_t item);

  size_t SizeBytes() const { return counters_.size(); }
  const BloomParams& params() const { return params_; }

  Bytes Serialize() const;
  crypto::Digest StateDigest() const;

 private:
  uint64_t CounterIndex(uint64_t item, uint32_t hash_index) const;
  uint8_t Get(uint64_t index) const;
  void Set(uint64_t index, uint8_t value);

  BloomParams params_;
  std::vector<uint8_t> counters_;  // two 4-bit counters per byte
};

}  // namespace imageproof::cuckoo

#endif  // IMAGEPROOF_BENCH_COUNTING_BLOOM_H_
