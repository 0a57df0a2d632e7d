// The backward digest chain walker shared by every path that derives chain
// digests: the owner's build and incremental repair, the package store's
// deep verify (MerkleInvertedIndex::VerifyChains) and the client's VO
// verifier (VerifyInvVo).
//
// A chain over entries e_0 .. e_{n-1} with tail digest t is
//     h_j = h(preimage(e_j) | h_{j+1}),   h_n = t,
// where t is the zero digest for a whole list and the first-remaining
// digest for a VO's popped prefix. A chain is inherently sequential, but
// chains are independent of each other, so WalkChains runs up to four of
// them side by side on the lane-interleaved Keccak (crypto::Sha3x4): each
// lane carries one chain and completes its entries strictly in chain
// order, and a drained lane picks up the next chain. A message may take
// several steps (groups vary in length). Only the schedule differs from
// the serial fold: every digest, and the number of digests, is the same.

#ifndef IMAGEPROOF_INVINDEX_CHAIN_H_
#define IMAGEPROOF_INVINDEX_CHAIN_H_

#include <cstddef>

#include "common/bytes.h"
#include "crypto/digest.h"
#include "crypto/hasher.h"
#include "crypto/sha3.h"

namespace imageproof::invindex {

using crypto::Digest;

// One chain to walk: `size` entries from `entries`, anchored at `tail`.
template <class E>
struct ChainSpan {
  const E* entries = nullptr;
  size_t size = 0;
  Digest tail = Digest::Zero();
};

// Computes every digest of the `n` chains, calling
// on_digest(chain index, entry index, digest) once per entry, entry indices
// descending within a chain. An empty chain yields no call (its head is its
// tail). on_digest may store the digest into the entry it names.
template <class E, class OnDigest>
void WalkChains(const ChainSpan<E>* chains, size_t n, OnDigest&& on_digest) {
  constexpr int kLanes = crypto::Sha3x4::kLanes;
  struct Lane {
    size_t chain = 0;
    size_t i = 0;  // entries remaining (current entry is i - 1)
    Digest next;
    Bytes buf;     // message buffer, reused across the lane's entries
  };
  crypto::Sha3x4 eng;
  Lane lanes[kLanes];
  size_t next_chain = 0;
  int active = 0;

  auto start_msg = [&](int j) {
    Lane& lane = lanes[j];
    lane.buf.clear();
    crypto::PreimageWriter w(&lane.buf);
    chains[lane.chain].entries[lane.i - 1].Preimage(w, lane.next);
    eng.Start(j, lane.buf.data(), lane.buf.size());
  };
  auto feed = [&](int j) -> bool {
    while (next_chain < n) {
      const size_t k = next_chain++;
      if (chains[k].size == 0) continue;
      lanes[j].chain = k;
      lanes[j].i = chains[k].size;
      lanes[j].next = chains[k].tail;
      start_msg(j);
      return true;
    }
    return false;
  };

  for (int j = 0; j < kLanes; ++j) {
    if (feed(j)) ++active;
  }
  while (active > 0) {
    eng.Step();
    for (int j = 0; j < kLanes; ++j) {
      if (!eng.done(j)) continue;
      Lane& lane = lanes[j];
      lane.next = eng.Take(j);
      on_digest(lane.chain, lane.i - 1, lane.next);
      if (--lane.i > 0) {
        start_msg(j);
      } else if (!feed(j)) {
        --active;
      }
    }
  }
}

}  // namespace imageproof::invindex

#endif  // IMAGEPROOF_INVINDEX_CHAIN_H_
