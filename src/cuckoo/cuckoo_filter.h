// Cuckoo filter (Fan, Andersen, Kaminsky, Mitzenmacher — CoNEXT 2014),
// from scratch.
//
// A compact approximate-membership structure storing an f-bit fingerprint
// per item in one of two buckets chosen by partial-key cuckoo hashing
// (bucket2 = bucket1 XOR hash(fingerprint), so relocation never needs the
// original key). ImageProof attaches one filter per Merkle inverted list;
// the paper exploits that filters support *deletion* — the verifier removes
// the revealed (popped) images and then bounds the remaining lists'
// contribution via MaxCount (Algorithm 2).
//
// Every filter in one index shares identical geometry and hash seeds, which
// Lemma 1 of the paper requires: an item's fingerprint and candidate buckets
// must coincide across all filters.

#ifndef IMAGEPROOF_CUCKOO_CUCKOO_FILTER_H_
#define IMAGEPROOF_CUCKOO_CUCKOO_FILTER_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/digest.h"

namespace imageproof::cuckoo {

struct CuckooParams {
  uint32_t num_buckets = 64;   // power of two
  uint32_t slots_per_bucket = 4;
  uint32_t fingerprint_bits = 8;  // 1..16
  uint64_t seed = 0xF117E2;       // shared across all filters of one index
  uint32_t max_kicks = 500;

  // Geometry sized per the paper's setting: buckets for ~60% of
  // `max_items` at 4 slots, rounded up to a power of two.
  static CuckooParams ForMaxItems(size_t max_items, uint32_t fingerprint_bits = 8,
                                  uint64_t seed = 0xF117E2);

  bool operator==(const CuckooParams&) const = default;
};

// An item's fingerprint and both candidate buckets. Filters that share
// CuckooParams (every filter of one index, Lemma 1) give an item the same
// probe, so it can be derived once and tested against all of them.
struct Probe {
  uint32_t b1 = 0;
  uint32_t b2 = 0;
  uint16_t fingerprint = 0;
};

class CuckooFilter {
 public:
  explicit CuckooFilter(CuckooParams params);

  // Inserts an item; false iff the filter is too loaded (max_kicks spent).
  bool Insert(uint64_t item);

  // The item's probe under this filter's parameters.
  Probe ProbeOf(uint64_t item) const;

  // Approximate membership: false => definitely absent. The probe form
  // requires a probe derived under this filter's params().
  bool Contains(uint64_t item) const;
  bool Contains(const Probe& probe) const {
    if (params_.slots_per_bucket == 4) {  // the default: one word per bucket
      return BucketHolds4(probe.b1, probe.fingerprint) ||
             BucketHolds4(probe.b2, probe.fingerprint);
    }
    return Find(probe.b1, probe.b2, probe.fingerprint) != kAbsent;
  }

  // Removes one stored occurrence of the item's fingerprint, scanning its
  // first bucket before its alternate bucket (slot order) so SP and client
  // mutate identical states. Returns the bucket the fingerprint was removed
  // from via `removed_bucket` (if non-null); false if absent.
  bool Delete(uint64_t item, uint32_t* removed_bucket = nullptr);
  bool Delete(const Probe& probe, uint32_t* removed_bucket = nullptr);

  size_t Count() const;  // occupied slots

  // Slot accessors used by MaxCount: 0 = empty, otherwise fingerprint
  // (fingerprints are never 0).
  uint16_t slot(uint32_t bucket, uint32_t s) const {
    return table_[static_cast<size_t>(bucket) * params_.slots_per_bucket + s];
  }
  const CuckooParams& params() const { return params_; }

  // Fingerprint/buckets of an item under this filter's parameters.
  uint16_t Fingerprint(uint64_t item) const;
  uint32_t Bucket1(uint64_t item) const;
  uint32_t AltBucket(uint32_t bucket, uint16_t fingerprint) const;

  // Canonical serialization (hashed into the inverted-list digest, and
  // shipped inside VOs).
  Bytes Serialize() const;
  static Result<CuckooFilter> Deserialize(const Bytes& data);
  // h(Theta): digest of the canonical serialization.
  crypto::Digest StateDigest() const;

 private:
  // MaxCount scans table_ directly.
  friend class MaxCountTracker;

  bool InsertFingerprint(uint16_t fp, uint32_t bucket);
  // Table position of `fp` in bucket b1, else in b2 (slot order), or
  // kAbsent.
  static constexpr size_t kAbsent = ~size_t{0};
  size_t Find(uint32_t b1, uint32_t b2, uint16_t fp) const {
    const uint32_t spb = params_.slots_per_bucket;
    for (uint32_t b : {b1, b2}) {
      const size_t base = static_cast<size_t>(b) * spb;
      for (uint32_t s = 0; s < spb; ++s) {
        if (table_[base + s] == fp) return base + s;
      }
      if (b1 == b2) break;
    }
    return kAbsent;
  }
  bool Remove(uint32_t b1, uint32_t b2, uint16_t fp, uint32_t* removed_bucket);
  // Whether a 4-slot bucket holds `fp`: the four slots compared as one
  // 64-bit word (a lane of the XOR is zero exactly where a slot matches).
  bool BucketHolds4(uint32_t bucket, uint16_t fp) const {
    constexpr uint64_t kLanes = 0x0001000100010001ULL;
    uint64_t word;
    std::memcpy(&word, &table_[static_cast<size_t>(bucket) * 4], sizeof word);
    const uint64_t x = word ^ (fp * kLanes);
    return ((x - kLanes) & ~x & (kLanes << 15)) != 0;
  }

  CuckooParams params_;
  std::vector<uint16_t> table_;  // num_buckets * slots_per_bucket
  uint64_t kick_state_;          // deterministic eviction-choice state
};

// Algorithm 2 (MaxCount): upper-bounds the number of posting lists that can
// still contain any single image, given the filters of the lists with
// unrevealed postings: gamma = 2 * max over bucket index i of the highest
// multiplicity of one fingerprint in bucket i across all filters.
//
// Construction scans the filters' current contents once; the tracker then
// keeps gamma current under deletions, so each check costs O(1) instead of
// a rescan. Each bucket keeps its distinct fingerprints as a short run of
// (fingerprint, count) pairs, so a tracker costs memory in proportion to
// the occupied slots, not to the (bucket, fingerprint) key space, and
// construction fills nothing beyond them.
//
// The filters must share one geometry (Lemma 1). A tracker given filters
// whose params() differ refuses them: ok() is false, it tracks nothing,
// and Gamma() bounds nothing (the uint32_t maximum).
class MaxCountTracker {
 public:
  explicit MaxCountTracker(const std::vector<const CuckooFilter*>& filters);

  bool ok() const { return ok_; }

  // Records that `fingerprint` was deleted from `bucket` of one filter.
  void OnDelete(uint32_t bucket, uint16_t fingerprint);

  uint32_t Gamma() const {
    return ok_ ? 2 * current_max_ : std::numeric_limits<uint32_t>::max();
  }

 private:
  bool ok_ = true;
  std::vector<uint32_t> offsets_;    // bucket b's runs: [offsets_[b], [b+1])
  std::vector<uint16_t> fps_;        // run fingerprint, distinct per bucket
  std::vector<uint32_t> counts_;     // run multiplicity
  std::vector<uint64_t> histogram_;  // multiplicity -> how many runs have it
  uint32_t current_max_ = 0;
};

}  // namespace imageproof::cuckoo

#endif  // IMAGEPROOF_CUCKOO_CUCKOO_FILTER_H_
