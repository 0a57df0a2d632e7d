// DigestBuilder: the canonical way every ADS in this library computes
// h(field_1 | field_2 | ... | field_n).
//
// Fields are streamed straight into the SHA3-256 sponge using the same
// canonical encodings as common/bytes.h (little-endian integers, IEEE-754
// bit patterns for floats), so a digest is a pure function of the logical
// field values and both SP and client reproduce it bit-for-bit.

#ifndef IMAGEPROOF_CRYPTO_HASHER_H_
#define IMAGEPROOF_CRYPTO_HASHER_H_

#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/digest.h"
#include "crypto/sha3.h"

namespace imageproof::crypto {

class DigestBuilder {
 public:
  DigestBuilder() = default;

  DigestBuilder& AddU8(uint8_t v) {
    sponge_.Update(&v, 1);
    return *this;
  }

  DigestBuilder& AddU32(uint32_t v) {
    uint8_t b[4];
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__)
    // The canonical encoding is little-endian, which on LE targets is the
    // in-memory representation; a single memcpy replaces the shift loop.
    std::memcpy(b, &v, sizeof(b));
#else
    for (int i = 0; i < 4; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
#endif
    sponge_.Update(b, 4);
    return *this;
  }

  DigestBuilder& AddU64(uint64_t v) {
    uint8_t b[8];
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__)
    std::memcpy(b, &v, sizeof(b));
#else
    for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
#endif
    sponge_.Update(b, 8);
    return *this;
  }

  DigestBuilder& AddF64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return AddU64(bits);
  }

  DigestBuilder& AddF32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return AddU32(bits);
  }

  DigestBuilder& AddDigest(const Digest& d) {
    sponge_.Update(d.bytes.data(), d.bytes.size());
    return *this;
  }

  DigestBuilder& AddBytes(const uint8_t* data, size_t n) {
    sponge_.Update(data, n);
    return *this;
  }

  DigestBuilder& AddBytes(const Bytes& b) { return AddBytes(b.data(), b.size()); }

  DigestBuilder& AddString(const std::string& s) {
    return AddBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  Digest Finalize() { return sponge_.Finalize(); }

 private:
  Sha3_256 sponge_;
};

// Appends the canonical encodings DigestBuilder streams into the sponge to
// a byte buffer instead. A preimage written once as a template over its
// sink (e.g. invindex::Posting::Preimage, mrkd::MrkdTree::HashInternal)
// feeds either the streaming hasher or a message buffer for the batch
// paths below, with identical bytes.
class PreimageWriter {
 public:
  explicit PreimageWriter(Bytes* buf) : buf_(buf) {}

  PreimageWriter& AddU32(uint32_t v) { return Put(v, 4); }
  PreimageWriter& AddU64(uint64_t v) { return Put(v, 8); }
  PreimageWriter& AddF32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return Put(bits, 4);
  }
  PreimageWriter& AddF64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return Put(bits, 8);
  }
  PreimageWriter& AddDigest(const Digest& d) {
    buf_->insert(buf_->end(), d.bytes.begin(), d.bytes.end());
    return *this;
  }

 private:
  PreimageWriter& Put(uint64_t v, int n) {
    uint8_t b[8];
    for (int i = 0; i < n; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
    buf_->insert(buf_->end(), b, b + n);
    return *this;
  }

  Bytes* buf_;
};

// h(left | right) — the classic Merkle internal-node combiner.
inline Digest HashPair(const Digest& left, const Digest& right) {
  return DigestBuilder().AddDigest(left).AddDigest(right).Finalize();
}

// ---------------------------------------------------------------------------
// Batch digest API. Same digests as the serial sponge, computed up to four
// messages at a time on the lane-interleaved Keccak (Sha3x4). Inputs of any
// lengths mix freely; a lane that drains early is refilled from the pending
// messages. Use these for the independent-hash inner loops of ADS
// construction (Merkle levels, leaf payloads, commitments); for dependent
// chains, drive Sha3x4 directly.
// ---------------------------------------------------------------------------

// out[i] = Sha3(in[i]) for i in [0, n).
void HashBatch(const BytesView* in, Digest* out, size_t n);

// The same over messages laid end to end in one buffer: message i is
// buf[offsets[i], offsets[i + 1]), for i + 1 < offsets.size().
void HashBatch(const Bytes& buf, const std::vector<size_t>& offsets,
               Digest* out);

// out[i] = HashPair(left[i], right[i]) for i in [0, n).
void HashPairBatch(const Digest* left, const Digest* right, Digest* out,
                   size_t n);

// out[i] = h(domain_prefix | left[i] | right[i]) — the domain-separated
// internal-node form used by merkle::MerkleTree.
void HashPairBatch(uint8_t domain_prefix, const Digest* left,
                   const Digest* right, Digest* out, size_t n);

// Fast non-cryptographic 64-bit mix used for cuckoo-filter bucket selection
// (not for any authenticated digest).
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace imageproof::crypto

#endif  // IMAGEPROOF_CRYPTO_HASHER_H_
