// Group varint (StreamVByte-layout) coding for u32 sequences, joining the
// common/kernels.h AVX2/portable dispatch family.
//
// Wire layout for a block of n values: ceil(n/4) control bytes, then the
// data bytes. Each control byte holds four 2-bit fields (value i of the
// quad uses bits 2i..2i+1) giving the byte length - 1 of that value; data
// bytes follow in value order, little-endian, minimal length. The tail
// quad's unused fields are zero and contribute no data bytes. Splitting
// control from data is what makes the decode vectorizable: one control
// byte selects a 16-byte shuffle that expands a whole quad at once.
//
// The encoder is scalar and canonical — minimal lengths, one possible
// byte stream per value sequence — so VO bytes stay deterministic across
// machines. The decoder is runtime-dispatched (AVX2 shuffle-LUT fast path,
// portable scalar otherwise) and MUST produce identical values on every
// path; kernels_test cross-checks internal::DecodePortable against
// internal::DecodeAvx2 on random and adversarial inputs. The same
// IMAGEPROOF_NO_AVX2 build option / environment variable that governs the
// distance kernels disables the SIMD decode.
//
// The decoder treats its input as attacker-controlled: every data-byte run
// is bounds-checked against the reader before it is touched, and a
// truncated stream yields kCorrupted, never a wild read. Values are used
// in digest-bound reconstructions downstream (d-gap image ids, squared
// BoVW norms), so a tampered byte surfaces as a digest mismatch even
// though — like the LEB128 varints elsewhere in the VO — the coding layer
// itself does not need to detect it.

#ifndef IMAGEPROOF_COMMON_VARINT_KERNELS_H_
#define IMAGEPROOF_COMMON_VARINT_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"

namespace imageproof::kern {

// Appends the group-varint block for values[0..n) to `w`. n == 0 appends
// nothing. Canonical: minimal byte lengths, deterministic output.
void GroupVarintEncode(const uint32_t* values, size_t n, ByteWriter& w);

// Exact encoded size of values[0..n) in bytes, without encoding.
size_t GroupVarintEncodedBytes(const uint32_t* values, size_t n);

// Decodes the block for exactly n values from `r`, advancing it past the
// block. kCorrupted if the stream is truncated or the tail quad's unused
// control fields are nonzero. n == 0 reads nothing.
Status GroupVarintDecode(ByteReader& r, size_t n, uint32_t* out);

// ZigZag mapping for signed deltas (ids that are not monotone on the
// wire): small magnitudes of either sign stay small on the wire.
inline uint32_t ZigZagEncode32(int64_t v) {
  return static_cast<uint32_t>((static_cast<uint64_t>(v) << 1) ^
                               static_cast<uint64_t>(v >> 63));
}
inline int64_t ZigZagDecode32(uint32_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// True when the group-varint decode dispatches to the AVX2 path.
bool GroupVarintAvx2Active();

namespace internal {

// Both decode implementations, exposed for bit-exactness tests (mirrors
// KernelImpls::Portable()/Avx2() in kernels.h).
Status GroupVarintDecodePortable(ByteReader& r, size_t n, uint32_t* out);
// Null when the SIMD TU is compiled out or the CPU lacks AVX2.
using GroupVarintDecodeFn = Status (*)(ByteReader&, size_t, uint32_t*);
GroupVarintDecodeFn GroupVarintDecodeAvx2();

}  // namespace internal

}  // namespace imageproof::kern

#endif  // IMAGEPROOF_COMMON_VARINT_KERNELS_H_
