// Merkle randomized k-d tree (Section IV-A) — the first ADS of ImageProof.
//
// Decorates an ann::RkdTree built over the codebook with digests:
//   internal node  h_N = h(l_N | h_left | h_right)            (Definition 2)
//   leaf node      h_N = h(ccommit_1 | h_G1 | ... )           (Definition 3)
// where l_N is the canonical encoding of the splitting hyperplane, ccommit_i
// is the cluster commitment (mrkd/commit.h), and h_Gi is the digest of the
// cluster's Merkle inverted list — which is how the MRKD-tree is linked to
// the second ADS.
//
// Thread safety: every const accessor is safe to call concurrently; the
// search code (mrkd/search.h) reads only through them. The single mutator
// is RefreshListDigest (plus the shared `list_digests` vector it reads,
// owned by SpPackage like the commitments), used by the incremental-update
// path; it must never run concurrently with searches over the same tree.
// Concurrent serving therefore applies updates to a cloned package and
// swaps snapshots (core/query_engine.h) instead of mutating a live one.

#ifndef IMAGEPROOF_MRKD_MRKD_TREE_H_
#define IMAGEPROOF_MRKD_MRKD_TREE_H_

#include <vector>

#include "ann/rkd_tree.h"
#include "crypto/digest.h"
#include "crypto/hasher.h"
#include "mrkd/commit.h"

namespace imageproof::mrkd {

class MrkdTree {
 public:
  // `tree` and both vectors are borrowed and must outlive the MrkdTree.
  // `cluster_commitments[c]` is cluster c's commitment (ClusterCommitments
  // over the tree's codebook) and `list_digests[c]` the digest h_{Gamma_c}
  // of its Merkle inverted list.
  MrkdTree(const ann::RkdTree* tree,
           const std::vector<Digest>& cluster_commitments,
           const std::vector<Digest>& list_digests);

  const ann::RkdTree& tree() const { return *tree_; }
  const Digest& root_digest() const { return node_digests_[tree_->root()]; }
  const Digest& node_digest(int node) const { return node_digests_[node]; }
  const Digest& list_digest(ClusterId c) const { return (*list_digests_)[c]; }
  const Digest& cluster_commitment(ClusterId c) const {
    return (*cluster_commitments_)[c];
  }

  // Digest contribution of a splitting hyperplane, l_N | h_left | h_right,
  // into a DigestBuilder or a crypto::PreimageWriter (shared with the
  // client's replay, which reconstructs internal digests from VO tokens).
  template <class Sink>
  static void HashInternal(Sink& s, uint32_t split_dim, float split_value,
                           const Digest& left, const Digest& right) {
    s.AddU32(split_dim);
    s.AddF32(split_value);
    s.AddDigest(left);
    s.AddDigest(right);
  }

  // Incremental refresh after cluster c's inverted-list digest changed in
  // the shared list-digest vector: recomputes the digest of c's leaf and of
  // every ancestor up to the root — O(log n_C) hashes instead of a full
  // rebuild. Returns the number of nodes rehashed.
  size_t RefreshListDigest(ClusterId c);

 private:
  // Full build: groups nodes by depth and digests each level through the
  // batch API, deepest level first (children before parents).
  void BuildNodeDigests();
  // Appends a node's preimage: its leaf entries or its internal form.
  void PutNodePreimage(Bytes* buf, int node) const;
  Digest RecomputeLocalDigest(int node);  // from children/leaf content only
  void BuildParentsAndLeafMap();

  const ann::RkdTree* tree_;
  const std::vector<Digest>* cluster_commitments_;
  const std::vector<Digest>* list_digests_;
  std::vector<Digest> node_digests_;
  std::vector<int32_t> parents_;       // parent node index, -1 for the root
  std::vector<int32_t> leaf_of_;       // cluster -> leaf node index
};

}  // namespace imageproof::mrkd

#endif  // IMAGEPROOF_MRKD_MRKD_TREE_H_
