// Randomized k-d tree (the building block of AKM's approximate
// nearest-neighbor search and of the Merkle randomized k-d tree ADS).
//
// At each internal node the split dimension is drawn uniformly from the
// `kTopVarianceDims` dimensions with the largest variance over the node's
// points, and the split value is the mean along that dimension — the
// construction used by FLANN and by the ImageProof paper. The tree structure
// is fully exposed (node array + permuted point index array) because the
// MRKD-tree decorates it with digests and the client re-walks it during
// verification.

#ifndef IMAGEPROOF_ANN_RKD_TREE_H_
#define IMAGEPROOF_ANN_RKD_TREE_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "ann/points.h"

namespace imageproof::ann {

struct RkdNode {
  // Internal node fields; a node is a leaf iff left < 0.
  int32_t split_dim = -1;
  float split_value = 0;
  int32_t left = -1;
  int32_t right = -1;
  // Leaf fields: the node's points are point_indices[begin, end).
  int32_t begin = 0;
  int32_t end = 0;

  bool IsLeaf() const { return left < 0; }
};

class RkdTree {
 public:
  // Builds over all points of `points` (which must outlive the tree).
  // `max_leaf_size` caps the number of points per leaf (the paper uses 2).
  RkdTree(const PointSet& points, int max_leaf_size, uint64_t seed);

  // Reconstructs a tree from stored or copied parts (storage/format.h's
  // GetTree, core::ClonePackage). The caller is responsible for structural
  // validity.
  RkdTree(const PointSet& points, int max_leaf_size,
          std::vector<RkdNode> nodes, std::vector<int32_t> point_indices)
      : points_(&points),
        max_leaf_size_(max_leaf_size),
        nodes_(std::move(nodes)),
        point_indices_(std::move(point_indices)) {}

  const PointSet& points() const { return *points_; }
  const std::vector<RkdNode>& nodes() const { return nodes_; }
  const std::vector<int32_t>& point_indices() const { return point_indices_; }
  int root() const { return 0; }
  int max_leaf_size() const { return max_leaf_size_; }

  // Exact range search: indices of all points within squared distance
  // `radius_sq` of `query` (used by tests as the reference for MRKDSearch).
  std::vector<int32_t> RangeSearch(const float* query, double radius_sq) const;

  // Exact nearest neighbor via branch-and-bound (reference for tests).
  int32_t ExactNearest(const float* query, double* dist_sq_out) const;

 private:
  int BuildNode(int32_t begin, int32_t end, Rng& rng);

  static constexpr int kTopVarianceDims = 5;

  const PointSet* points_;
  int max_leaf_size_;
  std::vector<RkdNode> nodes_;
  std::vector<int32_t> point_indices_;
};

}  // namespace imageproof::ann

#endif  // IMAGEPROOF_ANN_RKD_TREE_H_
