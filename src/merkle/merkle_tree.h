// Generic Merkle hash tree with multi-leaf subset proofs (RFC 6962-style
// unbalanced construction with domain-separated leaf/node hashing).
//
// ImageProof uses this for Optimization A (Section VI-A): each codebook
// cluster's dimensions are committed with an MH-tree so the SP can reveal
// only the handful of dimensions needed to prove a candidate is not the
// nearest neighbor.
//
// Construction is level-by-level: level 0 is the leaf digests and each
// higher level hashes adjacent pairs, carrying an odd trailing node up
// unchanged. That bottom-up order is exactly the recursive
// largest-power-of-two-split tree (every recursion subtree [b, e) has b
// divisible by 2^ceil(log2(e-b)), so it *is* the level-k node at index
// b >> k), which lets the build run through the batch digest API
// (crypto::HashBatch) and across threads (common/parallel.h) while staying
// bit-identical to the serial recursion at any thread count. All interior
// digests are retained, so subset proofs are O(revealed * log n) lookups
// instead of O(n) rehashing, and a single-leaf change recomputes only the
// leaf-to-root path (UpdateLeaf, O(log n) hashes).

#ifndef IMAGEPROOF_MERKLE_MERKLE_TREE_H_
#define IMAGEPROOF_MERKLE_MERKLE_TREE_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/digest.h"

namespace imageproof::merkle {

using crypto::Digest;

struct MerkleBuildOptions {
  // Thread cap for the level-parallel build; 0 means hardware concurrency.
  unsigned max_threads = 0;
  // Trees below this many leaves build serially (still batched 4-wide).
  // Keeps the per-cluster dimension trees — built inside an already-parallel
  // owner loop — from spawning nested workers.
  size_t parallel_grain = 2048;
};

// Commits a sequence of leaf payloads. Leaves are hashed with a 0x00 prefix
// and internal nodes with a 0x01 prefix (second-preimage domain separation).
// For n > 1 leaves the split point is the largest power of two < n.
class MerkleTree {
 public:
  explicit MerkleTree(const std::vector<Bytes>& leaf_payloads,
                      const MerkleBuildOptions& options = {});

  size_t leaf_count() const { return leaf_count_; }
  const Digest& root() const { return root_; }

  static Digest HashLeaf(const Bytes& payload);

  // Replaces the payload of one leaf and recomputes only the digests on its
  // leaf-to-root path — O(log n) hashes versus an O(n) rebuild. The
  // resulting tree is byte-identical to reconstructing from scratch with the
  // modified payload (locked in by the randomized property test).
  void UpdateLeaf(size_t index, const Bytes& new_payload);

  // Proof that the leaves at `indices` (sorted, unique, in range) have the
  // claimed payloads: the digests of the maximal subtrees containing no
  // revealed leaf, in traversal order.
  std::vector<Digest> ProveSubset(const std::vector<uint32_t>& indices) const;

  // Recomputes the root from revealed payloads + proof digests. `indices`
  // must be sorted and unique; `payloads` aligns with `indices`.
  static Status VerifySubset(size_t leaf_count, const Digest& root,
                             const std::vector<uint32_t>& indices,
                             const std::vector<Bytes>& payloads,
                             const std::vector<Digest>& proof);

 private:
  // Digest of the subtree covering leaves [begin, end): an O(1) lookup into
  // the stored levels (begin is always 2^k-aligned for recursion subtrees).
  const Digest& NodeDigest(size_t begin, size_t end) const;
  void ProveRange(size_t begin, size_t end, const std::vector<uint32_t>& indices,
                  size_t idx_begin, size_t idx_end,
                  std::vector<Digest>* out) const;

  size_t leaf_count_ = 0;
  // levels_[0] = leaf digests; levels_[k+1] pairs up levels_[k] (odd
  // trailing node carried up unchanged); levels_.back() is {root}. Storing
  // every level costs < 2n digests and buys O(1) interior lookups for
  // proofs plus the O(log n) incremental update path.
  std::vector<std::vector<Digest>> levels_;
  Digest root_;
};

// Reconstructs the roots of many subset proofs together, in two passes, so
// that their hashes share the Keccak lanes.
//
// Add is the first pass over one proof. It makes every structural check
// (index out of range, indices not strictly increasing, proof too short or
// too long, nonempty proof for an empty tree) and records the revealed
// leaves' 0x00-prefixed preimages into one buffer and the internal nodes
// with their heights. It hashes nothing.
//
// Finish is the second pass: one crypto::HashBatch over every recorded
// leaf, then one 0x01-prefixed HashPairBatch per height (a node's children
// are strictly lower). The digests, and how many there are, equal those of
// reconstructing each proof on its own. A batch is scratch of one
// verification: after a failed Add it must be discarded.
class SubsetRootBatch {
 public:
  // First pass over one proof. `indices` must be sorted and unique;
  // payloads[i] is the payload of leaf indices[i] and is copied.
  Status Add(size_t leaf_count, const std::vector<uint32_t>& indices,
             const BytesView* payloads, const std::vector<Digest>& proof);

  // Second pass: (*roots)[i] is the root the i-th Add's proof implies
  // (Digest::Zero() for an empty tree).
  void Finish(std::vector<Digest>* roots);

 private:
  struct Node {
    uint32_t height = 0;  // 0: a revealed leaf or a proof digest
    uint32_t left = 0, right = 0;
  };

  // Mirrors MerkleTree::ProveRange, consuming payloads and proof digests
  // in the same order; *node_out receives the subtree's node.
  Status Record(size_t begin, size_t end, const std::vector<uint32_t>& indices,
                const BytesView* payloads, size_t idx_begin, size_t idx_end,
                const std::vector<Digest>& proof, size_t* proof_pos,
                uint32_t* node_out);
  uint32_t AddNode(const Node& node, const Digest& digest);

  std::vector<Node> nodes_;
  std::vector<Digest> digests_;  // per node; proof digests known at once
  Bytes leaf_bytes_;             // leaf preimages, end to end
  std::vector<size_t> leaf_offsets_{0};
  std::vector<uint32_t> leaf_nodes_;                 // node of each leaf
  std::vector<std::vector<uint32_t>> by_height_;     // internal nodes
  std::vector<uint32_t> roots_;                      // root node per Add
};

// Recomputes the root implied by a subset proof without comparing it to a
// known value (the caller embeds the result in a larger digest). Same input
// contract as MerkleTree::VerifySubset: a SubsetRootBatch of one proof.
Status ReconstructSubsetRoot(size_t leaf_count,
                             const std::vector<uint32_t>& indices,
                             const std::vector<Bytes>& payloads,
                             const std::vector<Digest>& proof, Digest* root_out);

}  // namespace imageproof::merkle

#endif  // IMAGEPROOF_MERKLE_MERKLE_TREE_H_
