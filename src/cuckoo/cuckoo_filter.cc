#include "cuckoo/cuckoo_filter.h"

#include <algorithm>
#include <utility>

#include "crypto/hasher.h"
#include "crypto/sha3.h"

namespace imageproof::cuckoo {

using crypto::Mix64;

CuckooParams CuckooParams::ForMaxItems(size_t max_items,
                                       uint32_t fingerprint_bits,
                                       uint64_t seed) {
  CuckooParams p;
  p.fingerprint_bits = fingerprint_bits;
  p.seed = seed;
  // 60% of the maximum posting-list length, as in the paper's setup, with 4
  // slots per bucket; rounded up to a power of two for XOR-based partial-key
  // hashing. The +3 keeps tiny indexes from degenerating to one bucket.
  size_t target = (max_items * 6) / 10 + 3;
  uint32_t buckets = 4;
  while (buckets < target) buckets <<= 1;
  p.num_buckets = buckets;
  return p;
}

CuckooFilter::CuckooFilter(CuckooParams params)
    : params_(params),
      table_(static_cast<size_t>(params.num_buckets) * params.slots_per_bucket, 0),
      kick_state_(params.seed ^ 0x9E3779B97F4A7C15ULL) {}

uint16_t CuckooFilter::Fingerprint(uint64_t item) const {
  uint64_t h = Mix64(item ^ (params_.seed * 0xA24BAED4963EE407ULL));
  uint16_t fp = static_cast<uint16_t>(h & ((1u << params_.fingerprint_bits) - 1));
  return fp == 0 ? 1 : fp;  // 0 marks an empty slot
}

uint32_t CuckooFilter::Bucket1(uint64_t item) const {
  return static_cast<uint32_t>(Mix64(item ^ params_.seed) &
                               (params_.num_buckets - 1));
}

uint32_t CuckooFilter::AltBucket(uint32_t bucket, uint16_t fp) const {
  return (bucket ^ static_cast<uint32_t>(Mix64(fp ^ (params_.seed >> 7)))) &
         (params_.num_buckets - 1);
}

bool CuckooFilter::InsertFingerprint(uint16_t fp, uint32_t bucket) {
  // Try both candidate buckets first.
  uint32_t b2 = AltBucket(bucket, fp);
  for (uint32_t b : {bucket, b2}) {
    for (uint32_t s = 0; s < params_.slots_per_bucket; ++s) {
      size_t pos = static_cast<size_t>(b) * params_.slots_per_bucket + s;
      if (table_[pos] == 0) {
        table_[pos] = fp;
        return true;
      }
    }
  }
  // Random-walk eviction starting from b2 (deterministic state).
  uint32_t cur = b2;
  for (uint32_t kick = 0; kick < params_.max_kicks; ++kick) {
    kick_state_ = Mix64(kick_state_ + kick + 1);
    uint32_t victim = static_cast<uint32_t>(kick_state_ % params_.slots_per_bucket);
    size_t pos = static_cast<size_t>(cur) * params_.slots_per_bucket + victim;
    std::swap(fp, table_[pos]);
    cur = AltBucket(cur, fp);
    for (uint32_t s = 0; s < params_.slots_per_bucket; ++s) {
      size_t p = static_cast<size_t>(cur) * params_.slots_per_bucket + s;
      if (table_[p] == 0) {
        table_[p] = fp;
        return true;
      }
    }
  }
  return false;
}

bool CuckooFilter::Insert(uint64_t item) {
  return InsertFingerprint(Fingerprint(item), Bucket1(item));
}

Probe CuckooFilter::ProbeOf(uint64_t item) const {
  Probe p;
  p.fingerprint = Fingerprint(item);
  p.b1 = Bucket1(item);
  p.b2 = AltBucket(p.b1, p.fingerprint);
  return p;
}

bool CuckooFilter::Contains(uint64_t item) const {
  const uint16_t fp = Fingerprint(item);
  const uint32_t b1 = Bucket1(item);
  return Contains(Probe{b1, AltBucket(b1, fp), fp});
}

bool CuckooFilter::Delete(uint64_t item, uint32_t* removed_bucket) {
  const uint16_t fp = Fingerprint(item);
  const uint32_t b1 = Bucket1(item);
  return Remove(b1, AltBucket(b1, fp), fp, removed_bucket);
}

bool CuckooFilter::Delete(const Probe& p, uint32_t* removed_bucket) {
  return Remove(p.b1, p.b2, p.fingerprint, removed_bucket);
}

bool CuckooFilter::Remove(uint32_t b1, uint32_t b2, uint16_t fp,
                          uint32_t* removed_bucket) {
  const size_t pos = Find(b1, b2, fp);
  if (pos == kAbsent) return false;
  table_[pos] = 0;
  if (removed_bucket) {
    const size_t b1_base = static_cast<size_t>(b1) * params_.slots_per_bucket;
    *removed_bucket = pos - b1_base < params_.slots_per_bucket ? b1 : b2;
  }
  return true;
}

size_t CuckooFilter::Count() const {
  size_t n = 0;
  for (uint16_t v : table_) n += (v != 0);
  return n;
}

Bytes CuckooFilter::Serialize() const {
  ByteWriter w;
  w.PutU32(params_.num_buckets);
  w.PutU32(params_.slots_per_bucket);
  w.PutU32(params_.fingerprint_bits);
  w.PutU64(params_.seed);
  w.PutU32(params_.max_kicks);
  for (uint16_t v : table_) {
    w.PutU8(static_cast<uint8_t>(v & 0xFF));
    if (params_.fingerprint_bits > 8) w.PutU8(static_cast<uint8_t>(v >> 8));
  }
  return w.Take();
}

Result<CuckooFilter> CuckooFilter::Deserialize(const Bytes& data) {
  ByteReader r(data);
  CuckooParams p;
  Status s;
  if (!(s = r.GetU32(&p.num_buckets)).ok()) return s;
  if (!(s = r.GetU32(&p.slots_per_bucket)).ok()) return s;
  if (!(s = r.GetU32(&p.fingerprint_bits)).ok()) return s;
  if (!(s = r.GetU64(&p.seed)).ok()) return s;
  if (!(s = r.GetU32(&p.max_kicks)).ok()) return s;
  if (p.num_buckets == 0 || (p.num_buckets & (p.num_buckets - 1)) != 0 ||
      p.slots_per_bucket == 0 || p.slots_per_bucket > 8 ||
      p.fingerprint_bits == 0 || p.fingerprint_bits > 16) {
    return Status::Error("cuckoo: invalid parameters");
  }
  size_t slots = static_cast<size_t>(p.num_buckets) * p.slots_per_bucket;
  if (slots > (1u << 28)) return Status::Error("cuckoo: table too large");
  CuckooFilter f(p);
  uint16_t mask = static_cast<uint16_t>((1u << p.fingerprint_bits) - 1);
  for (size_t i = 0; i < slots; ++i) {
    uint8_t lo = 0, hi = 0;
    if (!(s = r.GetU8(&lo)).ok()) return s;
    uint16_t v = lo;
    if (p.fingerprint_bits > 8) {
      if (!(s = r.GetU8(&hi)).ok()) return s;
      v |= static_cast<uint16_t>(hi) << 8;
    }
    if ((v & ~mask) != 0) return Status::Error("cuckoo: fingerprint overflow");
    f.table_[i] = v;
  }
  if (!r.AtEnd()) return Status::Error("cuckoo: trailing bytes");
  return f;
}

crypto::Digest CuckooFilter::StateDigest() const {
  return crypto::Sha3(Serialize());
}

MaxCountTracker::MaxCountTracker(const std::vector<const CuckooFilter*>& filters) {
  if (filters.empty()) return;
  const CuckooParams& params = filters[0]->params();
  for (const CuckooFilter* f : filters) {
    if (f->params() != params) {
      ok_ = false;
      return;
    }
  }
  // Per-bucket multiplicities, counted in a fingerprint-indexed scratch
  // that each bucket leaves zeroed for the next.
  const uint32_t spb = params.slots_per_bucket;
  std::vector<const uint16_t*> tables;
  tables.reserve(filters.size());
  for (const CuckooFilter* f : filters) tables.push_back(f->table_.data());
  std::vector<uint32_t> tally(size_t{1} << params.fingerprint_bits, 0);
  // Distinct fingerprints of one bucket, at most one per slot.
  std::vector<uint16_t> distinct(filters.size() * spb);
  offsets_.reserve(params.num_buckets + 1);
  for (uint32_t b = 0; b < params.num_buckets; ++b) {
    offsets_.push_back(static_cast<uint32_t>(fps_.size()));
    size_t n = 0;
    const size_t base = static_cast<size_t>(b) * spb;
    for (const uint16_t* t : tables) {
      for (uint32_t s = 0; s < spb; ++s) {
        const uint16_t fp = t[base + s];
        if (fp == 0) continue;
        distinct[n] = fp;  // kept only if this is its first occurrence
        n += tally[fp]++ == 0;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const uint32_t c = std::exchange(tally[distinct[i]], 0);
      fps_.push_back(distinct[i]);
      counts_.push_back(c);
      current_max_ = std::max(current_max_, c);
    }
  }
  offsets_.push_back(static_cast<uint32_t>(fps_.size()));
  // Multiplicities only fall from here, so current_max_ bounds the range.
  histogram_.assign(current_max_ + 1, 0);
  for (uint32_t c : counts_) ++histogram_[c];
}

void MaxCountTracker::OnDelete(uint32_t bucket, uint16_t fp) {
  if (static_cast<size_t>(bucket) + 1 >= offsets_.size()) return;
  for (uint32_t i = offsets_[bucket]; i < offsets_[bucket + 1]; ++i) {
    if (fps_[i] != fp) continue;
    uint32_t& c = counts_[i];
    if (c == 0) return;  // more deletions than tracked occurrences
    --histogram_[c];
    --c;
    if (c > 0) ++histogram_[c];
    while (current_max_ > 0 && histogram_[current_max_] == 0) --current_max_;
    return;
  }
  // Deletion of an untracked fingerprint: nothing to do.
}

}  // namespace imageproof::cuckoo
