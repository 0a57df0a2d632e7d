// Shared Keccak-f[1600] round function, generic over the lane type.
//
// The same straight-line round body serves three instantiations:
//   * uint64_t      — the scalar permutation behind Sha3_256
//   * U64x2         — two interleaved states; plain integer code the
//                     compiler schedules as 2-way ILP (portable Sha3x4 path)
//   * V256 (AVX2)   — four interleaved states, one __m256i per Keccak lane
//                     (sha3_avx2.cc, compiled with -mavx2 and runtime-gated)
//
// Every lane index and rotation count in the round is a compile-time
// constant (template arguments drawn from constexpr tables), so the
// compiler emits no lane loop and only immediate-count shifts, and keeps as
// many lanes in registers as the target has. Nothing relies on an unroll
// pragma, so GCC and clang produce the same straight-line code.
//
// All variants compute bit-identical states: vectorization only changes
// which independent sponges share an instruction, never the arithmetic.
//
// Internal header: include only from crypto/*.cc, and from the tests and
// benches that pin the permutation paths against each other.

#ifndef IMAGEPROOF_CRYPTO_KECCAK_IMPL_H_
#define IMAGEPROOF_CRYPTO_KECCAK_IMPL_H_

#include <cstdint>

namespace imageproof::crypto::internal {

inline constexpr int kKeccakRounds = 24;

inline constexpr uint64_t kKeccakRoundConstants[kKeccakRounds] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808AULL,
    0x8000000080008000ULL, 0x000000000000808BULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008AULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000AULL,
    0x000000008000808BULL, 0x800000000000008BULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800AULL, 0x800000008000000AULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

// Rho rotation amounts and pi destination indices along the single 24-step
// lane permutation cycle starting at lane 1 (the FIPS 202 reference
// tables): step i moves the lane at kKeccakPiln[i - 1] (lane 1 for i = 0)
// to kKeccakPiln[i], rotated left by kKeccakRotc[i].
inline constexpr int kKeccakRotc[kKeccakRounds] = {
    1,  3,  6,  10, 15, 21, 28, 36, 45, 55, 2,  14,
    27, 41, 56, 8,  25, 43, 62, 18, 39, 61, 20, 44,
};
inline constexpr int kKeccakPiln[kKeccakRounds] = {
    10, 7,  11, 17, 18, 3, 5,  16, 8,  21, 24, 4,
    15, 23, 19, 13, 12, 2, 20, 14, 22, 9,  6,  1,
};

// The same cycle as a gather: rho+pi writes B[j] = rotl(A[src[j]], rot[j]).
// Lane 0 is a fixed point with rotation 0.
struct RhoPiGather {
  int src[25];
  int rot[25];
};

constexpr RhoPiGather MakeRhoPiGather() {
  RhoPiGather g{};
  int from = 1;
  for (int i = 0; i < kKeccakRounds; ++i) {
    g.src[kKeccakPiln[i]] = from;
    g.rot[kKeccakPiln[i]] = kKeccakRotc[i];
    from = kKeccakPiln[i];
  }
  return g;
}

inline constexpr RhoPiGather kRhoPi = MakeRhoPiGather();

// Scalar lane ops. Rotation counts are template arguments so every
// instantiation shifts by an immediate.
template <int K>
inline uint64_t Rotl(uint64_t x) {
  if constexpr (K == 0) {
    return x;
  } else {
    return (x << K) | (x >> (64 - K));
  }
}
inline uint64_t AndNotL(uint64_t a, uint64_t b) { return ~a & b; }
inline uint64_t XorRc(uint64_t a, uint64_t rc) { return a ^ rc; }

// Two interleaved lanes; every op is elementwise, so the two permutations
// proceed in lockstep and the compiler interleaves their dependency chains.
struct U64x2 {
  uint64_t v0, v1;
};
inline U64x2 operator^(U64x2 a, U64x2 b) { return {a.v0 ^ b.v0, a.v1 ^ b.v1}; }
template <int K>
inline U64x2 Rotl(U64x2 a) {
  return {Rotl<K>(a.v0), Rotl<K>(a.v1)};
}
inline U64x2 AndNotL(U64x2 a, U64x2 b) {
  return {~a.v0 & b.v0, ~a.v1 & b.v1};
}
inline U64x2 XorRc(U64x2 a, uint64_t rc) { return {a.v0 ^ rc, a.v1 ^ rc}; }

// Theta's column effect on lane J of the gather, then rho+pi: B[J].
template <int J, typename L>
inline L RhoPiLane(const L a[25], const L d[5]) {
  constexpr int kSrc = kRhoPi.src[J];
  return Rotl<kRhoPi.rot[J]>(a[kSrc] ^ d[kSrc % 5]);
}

// Rho+pi gathers row Y of B; chi writes it to row Y of the output state.
template <int Y, typename L>
inline void ChiRow(const L a[25], const L d[5], L e[25]) {
  const L b0 = RhoPiLane<5 * Y + 0>(a, d);
  const L b1 = RhoPiLane<5 * Y + 1>(a, d);
  const L b2 = RhoPiLane<5 * Y + 2>(a, d);
  const L b3 = RhoPiLane<5 * Y + 3>(a, d);
  const L b4 = RhoPiLane<5 * Y + 4>(a, d);
  e[5 * Y + 0] = b0 ^ AndNotL(b1, b2);
  e[5 * Y + 1] = b1 ^ AndNotL(b2, b3);
  e[5 * Y + 2] = b2 ^ AndNotL(b3, b4);
  e[5 * Y + 3] = b3 ^ AndNotL(b4, b0);
  e[5 * Y + 4] = b4 ^ AndNotL(b0, b1);
}

// One round from state `a` into state `e`: theta's column parities, then
// rho+pi and chi row by row, then iota.
template <typename L>
inline void KeccakRound(const L a[25], L e[25], uint64_t rc) {
  const L c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20];
  const L c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21];
  const L c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22];
  const L c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23];
  const L c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24];
  const L d[5] = {c4 ^ Rotl<1>(c1), c0 ^ Rotl<1>(c2), c1 ^ Rotl<1>(c3),
                  c2 ^ Rotl<1>(c4), c3 ^ Rotl<1>(c0)};
  ChiRow<0>(a, d, e);
  ChiRow<1>(a, d, e);
  ChiRow<2>(a, d, e);
  ChiRow<3>(a, d, e);
  ChiRow<4>(a, d, e);
  e[0] = XorRc(e[0], rc);
}

// The full permutation: rounds run in pairs, a -> e then e -> a, so the 24
// rounds end back in `a`. `e` is local, so no store to it can alias a load
// from `a`.
template <typename L>
inline void KeccakPermute(L a[25]) {
  L e[25];
  for (int round = 0; round < kKeccakRounds; round += 2) {
    KeccakRound(a, e, kKeccakRoundConstants[round]);
    KeccakRound(e, a, kKeccakRoundConstants[round + 1]);
  }
}

// Little-endian lane load/store shared by the absorb/squeeze paths.
inline uint64_t LoadLe64(const uint8_t* p) {
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__)
  uint64_t v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
#else
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
#endif
}

inline void StoreLe64(uint8_t* p, uint64_t v) {
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__)
  __builtin_memcpy(p, &v, sizeof(v));
#else
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
#endif
}

// Permutes the sponges of the interleaved 4-sponge state (state[i][j] is
// Keccak lane i of sponge j) whose bit is set in `busy`. An idle sponge's
// state is unspecified afterwards (the AVX2 kernel permutes all four);
// Sha3x4::Start resets a lane before reuse. This is the dispatch behind
// Sha3x4::Step (sha3.cc): the scalar permutation for a lone busy sponge,
// else the AVX2 kernel or the portable pairs. `state` must be 32-byte
// aligned (the AVX2 kernel permutes it in place).
void KeccakF4(uint64_t state[25][4], unsigned busy);

// True when KeccakF4 runs two or more busy lanes on the AVX2 kernel.
bool KeccakF4UsesAvx2();

#if defined(IMAGEPROOF_SHA3_AVX2)
// Defined in sha3_avx2.cc (compiled with -mavx2); callable only after a
// runtime AVX2 check.
void KeccakF4Avx2(uint64_t state[25][4]);
#endif

}  // namespace imageproof::crypto::internal

#endif  // IMAGEPROOF_CRYPTO_KECCAK_IMPL_H_
