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
//                  actually shrink the VO. The SP keeps every cluster's
//                  block tree (DimTree), built once with the commitments,
//                  and proves each partial reveal from it.
//
// The reveal section is shared across all MRKD-trees and all query vectors:
// each candidate cluster appears exactly once (the paper's sharing
// strategy), fully if it is some query's assigned cluster, partially
// otherwise (in kDimMerkle mode).

#ifndef IMAGEPROOF_MRKD_COMMIT_H_
#define IMAGEPROOF_MRKD_COMMIT_H_

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

// The coordinate-block Merkle tree of one cluster under kDimMerkle: leaf b
// holds the IEEE-754 bits of dimensions [b * kDimBlock, (b + 1) * kDimBlock)
// (the last block may be shorter). Its root is what the commitment binds;
// it is the per-cluster MH-tree the paper's SP stores (Section VI-A).
merkle::MerkleTree DimTree(const float* coords, size_t dims);

// Commitment of one cluster (digest embedded in the leaf digest).
Digest ClusterCommitment(RevealMode mode, ClusterId id, const float* coords,
                         size_t dims);

// Owner-side batch form: commitments for every cluster of the codebook,
// parallel across clusters and hashed through the 4-lane batch digest API.
// (*out)[c] == ClusterCommitment(mode, c, points.row(c), points.dims()),
// byte-for-byte. Under kDimMerkle the block trees the commitments take
// their roots from are kept in *dim_trees when it is given:
// (*dim_trees)[c] == DimTree(points.row(c), points.dims()). Under
// kFullVector *dim_trees is left empty.
void ClusterCommitments(RevealMode mode, const ann::PointSet& points,
                        std::vector<Digest>* out,
                        std::vector<merkle::MerkleTree>* dim_trees = nullptr);

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
// `dim_tree` is the cluster's DimTree, which proves a partial reveal; it
// may be null in kFullVector mode, which never reveals partially.
ClusterReveal BuildReveal(RevealMode mode, ClusterId id, const float* coords,
                          size_t dims, bool full_reveal,
                          const std::vector<const float*>& queries,
                          const std::vector<double>& bounds,
                          const merkle::MerkleTree* dim_tree);

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
