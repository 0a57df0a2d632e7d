#include "crypto/sha3.h"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "crypto/keccak_impl.h"

namespace imageproof::crypto {

namespace {

using internal::KeccakF4;
using internal::KeccakPermute;
using internal::LoadLe64;
using internal::StoreLe64;

std::atomic<uint64_t> g_hash_invocations{0};

inline void CountHash() {
  g_hash_invocations.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

namespace internal {

namespace {

// Permutes lane `j` of the interleaved state alone, on the scalar path.
void PermuteLane(uint64_t state[25][4], int j) {
  uint64_t a[25];
  for (int i = 0; i < 25; ++i) a[i] = state[i][j];
  KeccakPermute(a);
  for (int i = 0; i < 25; ++i) state[i][j] = a[i];
}

}  // namespace

bool KeccakF4UsesAvx2() {
#if defined(IMAGEPROOF_SHA3_AVX2)
  // IMAGEPROOF_NO_AVX2 forces the portable path so tests and benches can
  // A/B the two implementations on the same machine.
  static const bool use = __builtin_cpu_supports("avx2") &&
                          std::getenv("IMAGEPROOF_NO_AVX2") == nullptr;
  return use;
#else
  return false;
#endif
}

// Interleaving pays only when the lanes are filled: with the straight-line
// round, a 4-way AVX2 permutation costs ~1.5 scalar ones and a 2-way
// portable pair ~1.4 (bench/abl_hash, permutation section), so a lone busy
// lane (tree tops, the tail of the longest chain) runs the scalar
// permutation, and the portable path skips an idle pair. The portable pair
// runs the shared round body on two states (U64x2), which keeps two
// independent dependency chains in flight.
void KeccakF4(uint64_t state[25][4], unsigned busy) {
  if (busy == 0) return;
  if ((busy & (busy - 1)) == 0) {
    PermuteLane(state, std::countr_zero(busy));
    return;
  }
#if defined(IMAGEPROOF_SHA3_AVX2)
  if (KeccakF4UsesAvx2()) {
    KeccakF4Avx2(state);
    return;
  }
#endif
  U64x2 pair[25];
  for (int half = 0; half < 2; ++half) {
    const unsigned mask = (busy >> (2 * half)) & 3u;
    if (mask == 0) continue;
    if (mask != 3u) {
      PermuteLane(state, 2 * half + (mask == 1u ? 0 : 1));
      continue;
    }
    for (int i = 0; i < 25; ++i) {
      pair[i] = {state[i][2 * half], state[i][2 * half + 1]};
    }
    KeccakPermute(pair);
    for (int i = 0; i < 25; ++i) {
      state[i][2 * half] = pair[i].v0;
      state[i][2 * half + 1] = pair[i].v1;
    }
  }
}

}  // namespace internal

uint64_t HashInvocations() {
  return g_hash_invocations.load(std::memory_order_relaxed);
}

void Sha3_256::KeccakF(uint64_t a[25]) { KeccakPermute(a); }

void Sha3_256::Reset() {
  std::memset(state_, 0, sizeof(state_));
  std::memset(buffer_, 0, sizeof(buffer_));
  buffered_ = 0;
}

void Sha3_256::Absorb(const uint8_t* block) {
  for (size_t i = 0; i < kRate / 8; ++i) {
    state_[i] ^= LoadLe64(block + 8 * i);
  }
  KeccakF(state_);
}

void Sha3_256::Update(const uint8_t* data, size_t n) {
  if (n == 0) return;  // data may be null (an empty buffer's data())
  // Fast path: absorb full blocks straight from the input once the carry
  // buffer is empty, instead of staging every byte through it.
  if (buffered_ > 0) {
    size_t take = kRate - buffered_;
    if (take > n) take = n;
    std::memcpy(buffer_ + buffered_, data, take);
    buffered_ += take;
    data += take;
    n -= take;
    if (buffered_ == kRate) {
      Absorb(buffer_);
      buffered_ = 0;
    }
  }
  while (n >= kRate) {
    Absorb(data);
    data += kRate;
    n -= kRate;
  }
  if (n > 0) {
    std::memcpy(buffer_, data, n);
    buffered_ = n;
  }
}

Digest Sha3_256::Finalize() {
  // Pad with the SHA-3 domain separator 0x06 ... 0x80.
  std::memset(buffer_ + buffered_, 0, kRate - buffered_);
  buffer_[buffered_] = 0x06;
  buffer_[kRate - 1] |= 0x80;
  Absorb(buffer_);

  Digest out;
  for (size_t i = 0; i < kDigestSize / 8; ++i) {
    StoreLe64(out.bytes.data() + 8 * i, state_[i]);
  }
  CountHash();
  return out;
}

Digest Sha3(const uint8_t* data, size_t n) {
  Sha3_256 h;
  h.Update(data, n);
  return h.Finalize();
}

// ---------------------------------------------------------------------------
// Sha3x4
// ---------------------------------------------------------------------------

Sha3x4::Sha3x4() {
  std::memset(state_, 0, sizeof(state_));
  for (int j = 0; j < kLanes; ++j) {
    data_[j] = nullptr;
    len_[j] = off_[j] = 0;
    phase_[j] = kIdle;
  }
}

bool Sha3x4::AnyAbsorbing() const {
  for (int j = 0; j < kLanes; ++j) {
    if (phase_[j] == kAbsorbing) return true;
  }
  return false;
}

void Sha3x4::Start(int lane, const uint8_t* data, size_t n) {
  for (int i = 0; i < 25; ++i) state_[i][lane] = 0;
  data_[lane] = data;
  len_[lane] = n;
  off_[lane] = 0;
  phase_[lane] = kAbsorbing;
}

void Sha3x4::Step() {
  unsigned busy = 0;
  for (int j = 0; j < kLanes; ++j) {
    if (phase_[j] != kAbsorbing) continue;
    busy |= 1u << j;
    const size_t remaining = len_[j] - off_[j];
    if (remaining >= kRate) {
      const uint8_t* block = data_[j] + off_[j];
      for (size_t i = 0; i < kRate / 8; ++i) {
        state_[i][j] ^= LoadLe64(block + 8 * i);
      }
      off_[j] += kRate;
      // An exact-multiple message still owes the all-padding block; the
      // next Step absorbs it, matching the serial Finalize exactly.
    } else {
      uint8_t last[kRate];
      std::memset(last, 0, sizeof(last));
      if (remaining > 0) std::memcpy(last, data_[j] + off_[j], remaining);
      last[remaining] = 0x06;
      last[kRate - 1] |= 0x80;
      for (size_t i = 0; i < kRate / 8; ++i) {
        state_[i][j] ^= LoadLe64(last + 8 * i);
      }
      phase_[j] = kFinalBlock;
    }
  }
  KeccakF4(state_, busy);
  for (int j = 0; j < kLanes; ++j) {
    if (phase_[j] == kFinalBlock) phase_[j] = kDone;
  }
}

Digest Sha3x4::Take(int lane) {
  Digest out;
  for (size_t i = 0; i < kDigestSize / 8; ++i) {
    StoreLe64(out.bytes.data() + 8 * i, state_[i][lane]);
  }
  data_[lane] = nullptr;
  len_[lane] = off_[lane] = 0;
  phase_[lane] = kIdle;
  CountHash();
  return out;
}

}  // namespace imageproof::crypto
