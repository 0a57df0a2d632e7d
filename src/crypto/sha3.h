// SHA3-256 (FIPS 202) implemented from scratch on Keccak-f[1600].
//
// This is the cryptographic hash the ImageProof paper selects for all ADS
// digests. Two execution paths share one straight-line Keccak-f[1600]
// round (crypto/keccak_impl.h: compile-time lane indices and rotation
// counts, rounds in pairs between two states, no lane loop):
//   * Sha3_256 — the incremental single-message sponge on the scalar
//     permutation.
//   * Sha3x4   — four lane-interleaved sponges advanced in lockstep, the
//     engine behind the batch digest API in crypto/hasher.h. On x86-64 with
//     AVX2 each Keccak lane is one 4x64-bit vector; elsewhere a portable
//     2-way-interleaved scalar path provides the ILP win.
// Both are validated against NIST vectors, and the permutation on every
// path against the published Keccak-f output (tests/sha3_kat_test.cc); they
// are byte-identical: batching never changes a digest.

#ifndef IMAGEPROOF_CRYPTO_SHA3_H_
#define IMAGEPROOF_CRYPTO_SHA3_H_

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/digest.h"

namespace imageproof::crypto {

// Incremental SHA3-256 hasher (rate 1088 bits / 136 bytes, capacity 512).
class Sha3_256 {
 public:
  Sha3_256() { Reset(); }

  void Reset();
  void Update(const uint8_t* data, size_t n);
  void Update(const Bytes& b) { Update(b.data(), b.size()); }
  // Finalizes and returns the digest. The hasher must be Reset() before
  // further use.
  Digest Finalize();

 private:
  void Absorb(const uint8_t* block);  // absorbs one rate-sized block
  static void KeccakF(uint64_t state[25]);

  static constexpr size_t kRate = 136;  // bytes
  uint64_t state_[25];
  uint8_t buffer_[kRate];
  size_t buffered_;
};

// One-shot convenience.
Digest Sha3(const uint8_t* data, size_t n);
inline Digest Sha3(const Bytes& b) { return Sha3(b.data(), b.size()); }

// Process-wide count of SHA3 message digests computed (one per Finalize or
// per message completed by a batch path; Keccak permutations are not counted
// individually). Relaxed atomic: cheap next to a hash, safe to read from any
// thread, and monotone — benches and tests assert on deltas, e.g. that an
// incremental Merkle update costs O(log n) hashes.
uint64_t HashInvocations();

// Four independent SHA3-256 sponges advanced in lockstep, one Keccak
// permutation round absorbing one rate-block per active lane. Lanes are
// fully independent: messages may differ in length (a lane that finishes
// early is refilled by the caller while the others keep absorbing), and each
// digest equals the serial Sha3 of that lane's message exactly.
//
// Lifecycle per lane: idle --Start()--> absorbing --(final block Step'd)-->
// done --Take()--> idle. Step() advances every absorbing lane by one block.
// The message bytes passed to Start are borrowed and must stay valid until
// Take. Higher-level helpers (HashBatch/HashPairBatch in crypto/hasher.h)
// wrap the scheduling; use Sha3x4 directly for digest chains where message
// i+1 of a lane depends on the digest of message i.
class Sha3x4 {
 public:
  static constexpr int kLanes = 4;
  static constexpr size_t kRate = 136;  // bytes, same sponge as Sha3_256

  Sha3x4();

  bool idle(int lane) const { return phase_[lane] == kIdle; }
  bool done(int lane) const { return phase_[lane] == kDone; }
  // True while any lane still has blocks to absorb; when it turns false
  // every started message has reached `done`.
  bool AnyAbsorbing() const;

  // Begins hashing `n` bytes at `data` on an idle lane.
  void Start(int lane, const uint8_t* data, size_t n);
  void Start(int lane, const Bytes& b) { Start(lane, b.data(), b.size()); }

  // Absorbs the next block of every absorbing lane and permutes those lanes
  // (interleaved; a lone absorbing lane on the scalar path). Lanes whose
  // padded final block was absorbed become `done`.
  void Step();

  // Returns the digest of a `done` lane and frees it for the next message.
  Digest Take(int lane);

 private:
  enum Phase : uint8_t { kIdle, kAbsorbing, kFinalBlock, kDone };

  alignas(32) uint64_t state_[25][kLanes];
  const uint8_t* data_[kLanes];
  size_t len_[kLanes];
  size_t off_[kLanes];
  Phase phase_[kLanes];
};

}  // namespace imageproof::crypto

#endif  // IMAGEPROOF_CRYPTO_SHA3_H_
