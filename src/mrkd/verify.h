// Client-side verification of an MRKDSearch VO: replays the traversal with
// the client's own activity decisions, reconstructs the root digest, and
// extracts the per-query candidate sets.
//
// The replay enforces strict agreement: a subtree may be pruned in the VO
// iff the client computes an empty active set for it. Anything else —
// missing subtrees, gratuitous reveals, malformed tokens — is rejected, so
// a VO that verifies pins down exactly the candidate sets an honest SP
// would produce.

#ifndef IMAGEPROOF_MRKD_VERIFY_H_
#define IMAGEPROOF_MRKD_VERIFY_H_

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "mrkd/commit.h"

namespace imageproof::mrkd {

// Cluster id -> commitment recomputed from the reveal section, sorted by
// id, ids unique.
using CommitmentTable = std::vector<std::pair<ClusterId, Digest>>;

// Cluster c's value in a table sorted by cluster id with unique ids, or
// nullptr.
template <class T>
const T* FindCluster(const std::vector<std::pair<ClusterId, T>>& table,
                     ClusterId c) {
  auto it = std::lower_bound(table.begin(), table.end(), c,
                             [](const std::pair<ClusterId, T>& e,
                                ClusterId id) { return e.first < id; });
  return it != table.end() && it->first == c ? &it->second : nullptr;
}

struct TreeVerifyOutput {
  Digest root = Digest::Zero();  // reconstructed root digest
  std::vector<std::vector<ClusterId>> candidates;  // per query
  // Inverted-list digests observed in leaf tokens; later cross-checked
  // against the inverted-index VO.
  std::map<ClusterId, Digest> list_digests;
};

// Replays the tree VOs of a forest in two passes.
//
// AddTree is the first pass over one tree's token stream. It performs every
// check of the replay — active/pruned discipline, leaf size bound,
// split-dimension range, conflicting list digests within the tree — and
// collects the candidates, recording the nodes into a flat arena. It
// hashes nothing.
//
// Finish is the second pass. It digests the recorded nodes of all trees
// together: every leaf, then the internal nodes height by height (a node's
// children are strictly lower), each height in one batch on the Keccak
// lanes. The digests, and how many there are, equal the one-tree-at-a-time
// recursion's. The arena is scratch of one verification.
class ForestReplay {
 public:
  // `commitments`    every leaf entry's cluster must be present.
  // `queries`/`thresholds_sq` define activity exactly as on the SP.
  // `shared`         false replays one independent stream per query (the
  //                  Baseline layout).
  // All are borrowed for the replay's lifetime.
  ForestReplay(size_t dims, const CommitmentTable& commitments,
               const std::vector<const float*>& queries,
               const std::vector<double>& thresholds_sq, bool shared);

  // First pass over one tree's stream from `r`; fills out->candidates and
  // out->list_digests. out->root stays unset until Finish. After a failure
  // the replay holds a partial tree and must be discarded.
  Status AddTree(ByteReader& r, TreeVerifyOutput* out);

  // Second pass: (*roots)[t] is the root of the t-th added tree. Fails if
  // the per-query streams of a tree reconstruct different roots.
  Status Finish(std::vector<Digest>* roots);

 private:
  struct Node {
    enum Kind : uint8_t { kPruned, kLeaf, kInternal } kind = kPruned;
    uint32_t height = 0;  // 0 for leaves and pruned subtrees
    uint32_t split_dim = 0;
    float split_value = 0;
    uint32_t left = 0, right = 0;  // internal: child node indices
    size_t begin = 0, end = 0;     // leaf: preimage bytes in leaf_bytes_
  };

  Status ReplayRec(const std::vector<uint32_t>& active,
                   const std::vector<double>& mindist, TreeVerifyOutput* out,
                   uint32_t* node_out);
  Status ReplayStream(const std::vector<uint32_t>& initial_active,
                      TreeVerifyOutput* out);

  size_t dims_;
  const CommitmentTable* commitments_;
  const std::vector<const float*>* queries_;
  const std::vector<double>* thresholds_sq_;
  bool shared_;
  ByteReader* reader_ = nullptr;  // stream of the tree being added
  std::vector<std::vector<double>> offsets_;  // [query][dim]

  std::vector<Node> nodes_;
  std::vector<Digest> digests_;  // per node; pruned ones known at once
  Bytes leaf_bytes_;
  std::vector<uint32_t> stream_roots_;  // root node of every stream
  std::vector<size_t> tree_streams_;    // first stream of every tree
  uint32_t max_height_ = 0;
};

// One tree on its own: ForestReplay with a single AddTree, root filled in.
Status VerifyTreeVo(ByteReader& r, size_t dims,
                    const CommitmentTable& commitments,
                    const std::vector<const float*>& queries,
                    const std::vector<double>& thresholds_sq, bool shared,
                    TreeVerifyOutput* out);

}  // namespace imageproof::mrkd

#endif  // IMAGEPROOF_MRKD_VERIFY_H_
