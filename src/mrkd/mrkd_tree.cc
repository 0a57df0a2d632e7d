#include "mrkd/mrkd_tree.h"

#include "common/parallel.h"
#include "crypto/hasher.h"

namespace imageproof::mrkd {

MrkdTree::MrkdTree(const ann::RkdTree* tree,
                   const std::vector<Digest>& cluster_commitments,
                   const std::vector<Digest>& list_digests)
    : tree_(tree),
      cluster_commitments_(&cluster_commitments),
      list_digests_(&list_digests) {
  node_digests_.resize(tree_->nodes().size());
  BuildNodeDigests();
  BuildParentsAndLeafMap();
}

void MrkdTree::BuildParentsAndLeafMap() {
  const auto& nodes = tree_->nodes();
  parents_.assign(nodes.size(), -1);
  leaf_of_.assign(tree_->points().size(), -1);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const ann::RkdNode& n = nodes[i];
    if (n.IsLeaf()) {
      for (int32_t j = n.begin; j < n.end; ++j) {
        leaf_of_[tree_->point_indices()[j]] = static_cast<int32_t>(i);
      }
    } else {
      parents_[n.left] = static_cast<int32_t>(i);
      parents_[n.right] = static_cast<int32_t>(i);
    }
  }
}

void MrkdTree::PutNodePreimage(Bytes* buf, int node) const {
  const ann::RkdNode& n = tree_->nodes()[node];
  crypto::PreimageWriter w(buf);
  if (n.IsLeaf()) {
    for (int32_t i = n.begin; i < n.end; ++i) {
      ClusterId c = static_cast<ClusterId>(tree_->point_indices()[i]);
      w.AddDigest((*cluster_commitments_)[c]);
      w.AddDigest((*list_digests_)[c]);
    }
  } else {
    HashInternal(w, static_cast<uint32_t>(n.split_dim), n.split_value,
                 node_digests_[n.left], node_digests_[n.right]);
  }
}

Digest MrkdTree::RecomputeLocalDigest(int node) {
  Bytes buf;
  PutNodePreimage(&buf, node);
  return crypto::Sha3(buf);
}

size_t MrkdTree::RefreshListDigest(ClusterId c) {
  if (c >= leaf_of_.size() || leaf_of_[c] < 0) return 0;
  size_t rehashed = 0;
  for (int32_t node = leaf_of_[c]; node >= 0; node = parents_[node]) {
    node_digests_[node] = RecomputeLocalDigest(node);
    ++rehashed;
  }
  return rehashed;
}

void MrkdTree::BuildNodeDigests() {
  const auto& nodes = tree_->nodes();
  if (nodes.empty()) return;

  // Group nodes by depth (BFS from the root: a node's children always sit
  // one level deeper), then digest the levels deepest-first. Every node's
  // preimage depends only on strictly deeper digests, so within a level the
  // hashes are independent — batched four-wide and chunk-parallel. Each
  // digest is a pure function of its own preimage bytes, so the result is
  // byte-identical to the old post-order recursion.
  std::vector<int32_t> order;
  order.reserve(nodes.size());
  std::vector<size_t> level_begin;  // index into `order` where each depth starts
  order.push_back(static_cast<int32_t>(tree_->root()));
  level_begin.push_back(0);
  size_t frontier = 0;
  while (frontier < order.size()) {
    const size_t level_end = order.size();
    for (; frontier < level_end; ++frontier) {
      const ann::RkdNode& n = nodes[order[frontier]];
      if (!n.IsLeaf()) {
        order.push_back(n.left);
        order.push_back(n.right);
      }
    }
    if (order.size() > level_end) level_begin.push_back(level_end);
  }

  for (size_t lvl = level_begin.size(); lvl-- > 0;) {
    const size_t begin = level_begin[lvl];
    const size_t end = lvl + 1 < level_begin.size() ? level_begin[lvl + 1]
                                                    : order.size();
    ParallelChunks(end - begin, /*chunk=*/512, [&](size_t cb, size_t ce) {
      const size_t count = ce - cb;
      // Assemble this chunk's preimages and batch-digest them.
      Bytes buf;
      std::vector<size_t> offsets(count + 1, 0);
      for (size_t i = 0; i < count; ++i) {
        PutNodePreimage(&buf, order[begin + cb + i]);
        offsets[i + 1] = buf.size();
      }
      std::vector<Digest> outs(count);
      crypto::HashBatch(buf, offsets, outs.data());
      for (size_t i = 0; i < count; ++i) {
        node_digests_[order[begin + cb + i]] = outs[i];
      }
    });
  }
}

}  // namespace imageproof::mrkd
