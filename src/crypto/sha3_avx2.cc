// AVX2 instantiation of the interleaved 4-sponge Keccak permutation: each of
// the 25 Keccak lanes is one __m256i holding that lane for all four sponges,
// so theta/rho/pi/chi run on four states per instruction.
//
// This translation unit is the only one compiled with -mavx2 (see
// src/crypto/CMakeLists.txt); callers reach it through the runtime
// __builtin_cpu_supports("avx2") dispatch in sha3.cc, so the rest of the
// library stays runnable on any x86-64.

#if defined(IMAGEPROOF_SHA3_AVX2)

#include <immintrin.h>

#include "crypto/keccak_impl.h"

namespace imageproof::crypto::internal {

namespace {

// may_alias, like __m256i itself: the kernel permutes the caller's
// uint64_t state in place through V256 lvalues, with no staging copy.
struct __attribute__((may_alias)) V256 {
  __m256i v;
};

inline V256 operator^(V256 a, V256 b) {
  return {_mm256_xor_si256(a.v, b.v)};
}
template <int K>
inline V256 Rotl(V256 a) {
  if constexpr (K == 0) {
    return a;
  } else {
    return {_mm256_or_si256(_mm256_slli_epi64(a.v, K),
                            _mm256_srli_epi64(a.v, 64 - K))};
  }
}
// ~a & b, which is exactly what VPANDN computes.
inline V256 AndNotL(V256 a, V256 b) {
  return {_mm256_andnot_si256(a.v, b.v)};
}
inline V256 XorRc(V256 a, uint64_t rc) {
  return {_mm256_xor_si256(a.v, _mm256_set1_epi64x(static_cast<int64_t>(rc)))};
}

}  // namespace

void KeccakF4Avx2(uint64_t state[25][4]) {
  KeccakPermute(reinterpret_cast<V256*>(state));
}

}  // namespace imageproof::crypto::internal

#endif  // IMAGEPROOF_SHA3_AVX2
