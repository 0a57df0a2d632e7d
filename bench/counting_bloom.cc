#include "bench/counting_bloom.h"

#include "crypto/hasher.h"
#include "crypto/sha3.h"

namespace imageproof::cuckoo {

BloomParams BloomParams::ForMaxItems(size_t max_items, uint64_t seed) {
  BloomParams p;
  p.seed = seed;
  p.num_counters = static_cast<uint64_t>(max_items) * 10 + 16;
  p.num_hashes = 5;
  return p;
}

CountingBloomFilter::CountingBloomFilter(BloomParams params)
    : params_(params), counters_((params.num_counters + 1) / 2, 0) {}

uint64_t CountingBloomFilter::CounterIndex(uint64_t item,
                                           uint32_t hash_index) const {
  // Kirsch-Mitzenmacher double hashing: h_i = h1 + i*h2.
  uint64_t h1 = crypto::Mix64(item ^ params_.seed);
  uint64_t h2 = crypto::Mix64(item + 0x9E3779B97F4A7C15ULL * (params_.seed | 1));
  return (h1 + hash_index * (h2 | 1)) % params_.num_counters;
}

uint8_t CountingBloomFilter::Get(uint64_t index) const {
  uint8_t byte = counters_[index / 2];
  return (index & 1) ? (byte >> 4) : (byte & 0x0F);
}

void CountingBloomFilter::Set(uint64_t index, uint8_t value) {
  uint8_t& byte = counters_[index / 2];
  if (index & 1) {
    byte = static_cast<uint8_t>((byte & 0x0F) | (value << 4));
  } else {
    byte = static_cast<uint8_t>((byte & 0xF0) | (value & 0x0F));
  }
}

bool CountingBloomFilter::Insert(uint64_t item) {
  // Pre-check saturation so a failed insert leaves no partial state.
  for (uint32_t i = 0; i < params_.num_hashes; ++i) {
    if (Get(CounterIndex(item, i)) == 15) return false;
  }
  for (uint32_t i = 0; i < params_.num_hashes; ++i) {
    uint64_t idx = CounterIndex(item, i);
    Set(idx, static_cast<uint8_t>(Get(idx) + 1));
  }
  return true;
}

bool CountingBloomFilter::Contains(uint64_t item) const {
  for (uint32_t i = 0; i < params_.num_hashes; ++i) {
    if (Get(CounterIndex(item, i)) == 0) return false;
  }
  return true;
}

bool CountingBloomFilter::Delete(uint64_t item) {
  for (uint32_t i = 0; i < params_.num_hashes; ++i) {
    if (Get(CounterIndex(item, i)) == 0) return false;
  }
  for (uint32_t i = 0; i < params_.num_hashes; ++i) {
    uint64_t idx = CounterIndex(item, i);
    Set(idx, static_cast<uint8_t>(Get(idx) - 1));
  }
  return true;
}

Bytes CountingBloomFilter::Serialize() const {
  ByteWriter w;
  w.PutU64(params_.num_counters);
  w.PutU32(params_.num_hashes);
  w.PutU64(params_.seed);
  w.PutBytes(counters_.data(), counters_.size());
  return w.Take();
}

crypto::Digest CountingBloomFilter::StateDigest() const {
  return crypto::Sha3(Serialize());
}

}  // namespace imageproof::cuckoo
