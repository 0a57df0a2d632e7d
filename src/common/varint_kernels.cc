// Scalar group-varint encode (the only encoder — canonical bytes) and the
// portable decode plus the runtime dispatch point. The AVX2 decode lives in
// varint_kernels_avx2.cc, the only TU built with -mavx2.

#include "common/varint_kernels.h"

#include <cstdlib>

namespace imageproof::kern {

namespace {

inline uint32_t ByteLen(uint32_t v) {
  return 1u + (v > 0xFFu) + (v > 0xFFFFu) + (v > 0xFFFFFFu);
}

Status DecodeDispatch(ByteReader& r, size_t n, uint32_t* out) {
  static const internal::GroupVarintDecodeFn fn = [] {
    if (std::getenv("IMAGEPROOF_NO_AVX2") == nullptr) {
      if (auto avx2 = internal::GroupVarintDecodeAvx2()) return avx2;
    }
    return &internal::GroupVarintDecodePortable;
  }();
  return fn(r, n, out);
}

}  // namespace

void GroupVarintEncode(const uint32_t* values, size_t n, ByteWriter& w) {
  for (size_t q = 0; q < n; q += 4) {
    size_t in_quad = n - q < 4 ? n - q : 4;
    uint8_t ctrl = 0;
    for (size_t j = 0; j < in_quad; ++j) {
      ctrl |= static_cast<uint8_t>((ByteLen(values[q + j]) - 1) << (2 * j));
    }
    w.PutU8(ctrl);
  }
  for (size_t i = 0; i < n; ++i) {
    uint32_t v = values[i];
    uint32_t len = ByteLen(v);
    for (uint32_t b = 0; b < len; ++b) {
      w.PutU8(static_cast<uint8_t>(v >> (8 * b)));
    }
  }
}

size_t GroupVarintEncodedBytes(const uint32_t* values, size_t n) {
  size_t total = (n + 3) / 4;
  for (size_t i = 0; i < n; ++i) total += ByteLen(values[i]);
  return total;
}

Status GroupVarintDecode(ByteReader& r, size_t n, uint32_t* out) {
  // Canonical tail: the unused fields of the last control byte must be
  // zero, so a flipped padding bit is rejected rather than ignored.
  const size_t num_ctrl = (n + 3) / 4;
  if (n % 4 != 0 && r.remaining() >= num_ctrl &&
      (r.data()[num_ctrl - 1] >> (2 * (n % 4))) != 0) {
    return Status::Corrupted("gv: nonzero unused control bits");
  }
  return DecodeDispatch(r, n, out);
}

bool GroupVarintAvx2Active() {
  // Probe the resolved dispatch once via a zero-length decode side effect:
  // cheaper to just re-evaluate the same resolution conditions.
  static const bool active = [] {
    return std::getenv("IMAGEPROOF_NO_AVX2") == nullptr &&
           internal::GroupVarintDecodeAvx2() != nullptr;
  }();
  return active;
}

namespace internal {

Status GroupVarintDecodePortable(ByteReader& r, size_t n, uint32_t* out) {
  if (n == 0) return Status::Ok();
  size_t num_ctrl = (n + 3) / 4;
  if (r.remaining() < num_ctrl) {
    return Status::Corrupted("gv: truncated control bytes");
  }
  const uint8_t* ctrl = r.data();
  const uint8_t* data = ctrl + num_ctrl;
  size_t data_avail = r.remaining() - num_ctrl;
  size_t used = 0;
  for (size_t i = 0; i < n; ++i) {
    uint32_t len = ((ctrl[i >> 2] >> (2 * (i & 3))) & 3u) + 1u;
    if (data_avail - used < len) {
      return Status::Corrupted("gv: truncated data bytes");
    }
    uint32_t v = 0;
    for (uint32_t b = 0; b < len; ++b) {
      v |= static_cast<uint32_t>(data[used + b]) << (8 * b);
    }
    out[i] = v;
    used += len;
  }
  return r.Skip(num_ctrl + used);
}

#ifndef IMAGEPROOF_KERNELS_AVX2
GroupVarintDecodeFn GroupVarintDecodeAvx2() { return nullptr; }
#endif

}  // namespace internal

}  // namespace imageproof::kern
