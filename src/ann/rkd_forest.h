// Forest of randomized k-d trees with FLANN-style best-bin-first search —
// the AKM (approximate k-means) nearest-cluster routine of the paper.
//
// All trees are traversed with one shared priority queue keyed by the
// (approximate) minimum distance from the query to each pending subtree; the
// search stops after `max_leaf_checks` leaves have been examined and returns
// the best cluster found so far, exactly as in Philbin et al. (CVPR'07) and
// Muja & Lowe (VISSAPP'09).
//
// Thread safety: ApproxNearest is const; without a scratch it allocates its
// priority queue locally, so concurrent searches over one forest are safe.
// A kern::SearchScratch passed in is the *caller's* single-owner state — one
// scratch per concurrent searcher. A forest never changes after
// construction.

#ifndef IMAGEPROOF_ANN_RKD_FOREST_H_
#define IMAGEPROOF_ANN_RKD_FOREST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ann/rkd_tree.h"
#include "common/kernels.h"

namespace imageproof::ann {

struct ForestParams {
  int num_trees = 8;        // n_t in the paper
  int max_leaf_size = 2;    // clusters per leaf
  int max_leaf_checks = 32; // AKM stops after exploring this many leaves
  uint64_t seed = 0x5EED;

  bool operator==(const ForestParams&) const = default;
};

struct NearestResult {
  int32_t index = -1;    // point (cluster) index, -1 if the set is empty
  double dist_sq = 0.0;  // squared distance to it
};

class RkdForest {
 public:
  // Builds `params.num_trees` randomized trees over `points` (borrowed).
  RkdForest(const PointSet& points, ForestParams params);

  // Adopts already-built trees (a package loaded from storage/package_store.h
  // or cloned by core::ClonePackage keeps its committed tree shapes instead
  // of rebuilding them); the trees must index `points`.
  RkdForest(const PointSet& points, ForestParams params,
            std::vector<std::unique_ptr<RkdTree>> trees)
      : points_(&points), params_(params), trees_(std::move(trees)) {}

  // Approximate nearest neighbor of `query` (AKM step). With a scratch the
  // best-bin-first queue lives in (and warms) the caller's buffers, so a
  // steady-state search allocates nothing; without one a local queue is
  // used. Results are identical either way. Leaf scans use the pruned
  // squared-L2 kernel against the best-so-far bound, with strictly-smaller
  // updates — among exactly tied candidates the first one reached in
  // traversal order wins (deterministic: traversal order is fixed).
  NearestResult ApproxNearest(const float* query,
                              kern::SearchScratch* scratch = nullptr) const;

  const std::vector<std::unique_ptr<RkdTree>>& trees() const { return trees_; }
  const PointSet& points() const { return *points_; }
  const ForestParams& params() const { return params_; }

 private:
  const PointSet* points_;
  ForestParams params_;
  std::vector<std::unique_ptr<RkdTree>> trees_;
};

}  // namespace imageproof::ann

#endif  // IMAGEPROOF_ANN_RKD_FOREST_H_
