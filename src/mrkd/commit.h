// Cluster commitments for the MRKD-tree leaves, plus the candidate-reveal
// section of the BoVW verification object.
//
// A leaf of the MRKD-tree stores feature clusters; its digest (Definition 3)
// must bind each cluster's *coordinates* so the client can check distances.
// Two commitment modes are supported:
//
//   kFullVector  — ccommit = h(id | dims | coord_0 | ... | coord_{d-1});
//                  the base ImageProof scheme. Verifying a candidate
//                  requires revealing the whole vector.
//   kDimMerkle   — ccommit = h(id | dims | merkle_root(coord blocks));
//                  Optimization A (Section VI-A). The SP may reveal only the
//                  few dimensions whose partial distance already proves a
//                  candidate is not the nearest neighbor, authenticated by a
//                  Merkle subset proof. Trades client hashing for VO size.
//                  Merkle leaves cover kDimBlock consecutive dimensions —
//                  per-dimension leaves would make every sibling digest
//                  (32 B) cost more than the 4-byte coordinates it elides,
//                  so block granularity is what makes the optimization
//                  actually shrink the VO.
//
// The reveal section is shared across all MRKD-trees and all query vectors:
// each candidate cluster appears exactly once (the paper's sharing
// strategy), fully if it is some query's assigned cluster, partially
// otherwise (in kDimMerkle mode).

#ifndef IMAGEPROOF_MRKD_COMMIT_H_
#define IMAGEPROOF_MRKD_COMMIT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "ann/points.h"
#include "common/bytes.h"
#include "common/status.h"
#include "crypto/digest.h"
#include "merkle/merkle_tree.h"

namespace imageproof::mrkd {

using crypto::Digest;
using ClusterId = uint32_t;

enum class RevealMode : uint8_t {
  kFullVector = 0,
  kDimMerkle = 1,
};

// Dimensions per Merkle leaf in kDimMerkle mode.
inline constexpr size_t kDimBlock = 8;

// Lazily built coordinate-block Merkle trees of a frozen codebook, one slot
// per cluster: the trees the SP holds under Optimization A. A package in
// kDimMerkle mode owns one (core::SpPackage::dim_trees), so the first
// partial reveal of a cluster builds its tree and every later reveal, by
// the same query or a concurrent one, only runs ProveSubset over it.
//
// Slots are std::atomic pointers filled by build-then-CAS: racing builders
// compute identical trees from the same frozen coordinates, exactly one
// publishes, and the losers delete their copy and adopt the winner.
// Readers are wait-free after the first fill; no locks.
class DimTreeMemo {
 public:
  explicit DimTreeMemo(size_t num_clusters);
  ~DimTreeMemo();
  DimTreeMemo(const DimTreeMemo&) = delete;
  DimTreeMemo& operator=(const DimTreeMemo&) = delete;

  // The tree of cluster `id`, whose coordinates are `coords` (the same
  // ones on every call). Builds and publishes on first use.
  const merkle::MerkleTree& Get(ClusterId id, const float* coords,
                                size_t dims) const;

  // Relaxed counters for the engine's stats, not for control flow: calls
  // answered from a published tree, and trees built here.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t builds() const { return builds_.load(std::memory_order_relaxed); }

 private:
  mutable std::vector<std::atomic<const merkle::MerkleTree*>> slots_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> builds_{0};
};

// Commitment of one cluster (digest embedded in the leaf digest).
Digest ClusterCommitment(RevealMode mode, ClusterId id, const float* coords,
                         size_t dims);

// Owner-side batch form: commitments for every cluster of the codebook,
// parallel across clusters and hashed through the 4-lane batch digest API.
// (*out)[c] == ClusterCommitment(mode, c, points.row(c), points.dims()),
// byte-for-byte.
void ClusterCommitments(RevealMode mode, const ann::PointSet& points,
                        std::vector<Digest>* out);

// A cluster's entry in the reveal section.
struct ClusterReveal {
  ClusterId id = 0;
  bool full = true;
  std::vector<float> coords;           // full: all dims
  std::vector<uint32_t> dim_indices;   // partial: revealed dimension indices
  std::vector<float> dim_values;       // partial: their values
  std::vector<Digest> proof;           // partial: Merkle subset proof
};

// Lower bound on squared distance from q to a partially revealed cluster
// (sum over revealed dimensions only).
double PartialDistanceSq(const float* query,
                         const std::vector<uint32_t>& dim_indices,
                         const std::vector<float>& dim_values);

// SP side: builds the reveal for cluster `id`.
//
// * mode kFullVector, or `full_reveal`: reveals all coordinates.
// * mode kDimMerkle partial: greedily reveals the kDimBlock-dimension
//   blocks with the largest total squared difference against `queries`
//   until, for every query q in `queries` (paired with its exclusion bound
//   `bounds[q]`), PartialDistanceSq(q) > bounds[q]. Falls back to a full
//   reveal if the partial bound cannot strictly exceed every bound or if
//   the partial encoding would not be smaller.
// `dim_trees` supplies the partial reveal's coordinate-block tree: it is
// the package's memo in kDimMerkle mode and may be null in kFullVector mode,
// which never reveals partially.
ClusterReveal BuildReveal(RevealMode mode, ClusterId id, const float* coords,
                          size_t dims, bool full_reveal,
                          const std::vector<const float*>& queries,
                          const std::vector<double>& bounds,
                          const DimTreeMemo* dim_trees);

// Client side: recomputes the cluster commitment from a reveal. Fails if a
// partial reveal is malformed (bad indices / proof). On success the caller
// compares the digest against the one bound into the MRKD leaf.
Status VerifyReveal(RevealMode mode, size_t dims, const ClusterReveal& reveal,
                    Digest* commitment_out);

// The same for a whole reveal section, in two passes: first every check of
// every reveal in order (the first failure is returned), recording the
// partial reveals' subset proofs into one merkle::SubsetRootBatch; then
// that batch reconstructs all their coordinate-block roots together and one
// more batch digests every commitment preimage, all on the Keccak lanes.
// (*commitments)[i] belongs to reveals[i]. VerifyReveal is this over a
// section of one.
Status VerifyReveals(RevealMode mode, size_t dims,
                     const std::vector<ClusterReveal>& reveals,
                     std::vector<Digest>* commitments);

// Canonical serialization of the whole reveal section.
void SerializeReveals(const std::vector<ClusterReveal>& reveals, ByteWriter& w);
Status DeserializeReveals(ByteReader& r, size_t dims,
                          std::vector<ClusterReveal>* out);

}  // namespace imageproof::mrkd

#endif  // IMAGEPROOF_MRKD_COMMIT_H_
