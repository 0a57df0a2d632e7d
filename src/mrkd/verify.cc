#include "mrkd/verify.h"

#include <algorithm>
#include <cmath>

#include "crypto/hasher.h"
#include "mrkd/mrkd_tree.h"
#include "mrkd/search.h"

namespace imageproof::mrkd {

ForestReplay::ForestReplay(size_t dims, const CommitmentTable& commitments,
                           const std::vector<const float*>& queries,
                           const std::vector<double>& thresholds_sq,
                           bool shared)
    : dims_(dims),
      commitments_(&commitments),
      queries_(&queries),
      thresholds_sq_(&thresholds_sq),
      shared_(shared) {}

Status ForestReplay::ReplayRec(const std::vector<uint32_t>& active,
                               const std::vector<double>& mindist,
                               TreeVerifyOutput* out, uint32_t* node_out) {
  uint8_t kind = 0;
  Status s = reader_->GetU8(&kind);
  if (!s.ok()) return s;

  Node node;
  if (active.empty()) {
    if (kind != kTokenPruned) {
      return Status::Error("mrkd: subtree revealed where no query is active");
    }
    Digest digest;
    if (!(s = crypto::GetDigest(*reader_, &digest)).ok()) return s;
    *node_out = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(node);
    digests_.push_back(digest);
    return Status::Ok();
  }
  if (kind == kTokenPruned) {
    return Status::Error("mrkd: subtree pruned while a query is active");
  }

  if (kind == kTokenLeaf) {
    uint64_t count;
    if (!(s = reader_->GetVarint(&count)).ok()) return s;
    if (count == 0 || count > 4096) {
      return Status::Error("mrkd: implausible leaf size");
    }
    node.kind = Node::kLeaf;
    node.begin = leaf_bytes_.size();
    crypto::PreimageWriter w(&leaf_bytes_);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t cid;
      if (!(s = reader_->GetVarint(&cid)).ok()) return s;
      ClusterId c = static_cast<ClusterId>(cid);
      const Digest* commitment = FindCluster(*commitments_, c);
      if (commitment == nullptr) {
        return Status::Error("mrkd: leaf cluster missing from reveal section");
      }
      Digest list_digest;
      if (!(s = crypto::GetDigest(*reader_, &list_digest)).ok()) return s;
      w.AddDigest(*commitment);
      w.AddDigest(list_digest);
      auto [pos, inserted] = out->list_digests.emplace(c, list_digest);
      if (!inserted && pos->second != list_digest) {
        return Status::Error("mrkd: conflicting inverted-list digests");
      }
      for (uint32_t q : active) out->candidates[q].push_back(c);
    }
    node.end = leaf_bytes_.size();
    *node_out = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(node);
    digests_.emplace_back();
    return Status::Ok();
  }

  if (kind != kTokenInternal) {
    return Status::Error("mrkd: unknown VO token");
  }
  uint64_t split_dim;
  float split_value;
  if (!(s = reader_->GetVarint(&split_dim)).ok()) return s;
  if (split_dim >= dims_) {
    return Status::Error("mrkd: split dimension out of range");
  }
  if (!(s = reader_->GetF32(&split_value)).ok()) return s;

  const int d = static_cast<int>(split_dim);
  std::vector<uint32_t> left_active, right_active;
  std::vector<double> left_mindist, right_mindist;
  std::vector<std::pair<uint32_t, double>> left_saved, right_saved;
  for (size_t k = 0; k < active.size(); ++k) {
    uint32_t q = active[k];
    double diff = static_cast<double>((*queries_)[q][d]) - split_value;
    bool near_is_left = diff < 0;
    double old_off = offsets_[q][d];
    double far_dist = mindist[k] - old_off * old_off + diff * diff;
    double t = (*thresholds_sq_)[q];
    if (near_is_left) {
      left_active.push_back(q);
      left_mindist.push_back(mindist[k]);
    } else {
      right_active.push_back(q);
      right_mindist.push_back(mindist[k]);
    }
    if (far_dist <= t) {
      if (near_is_left) {
        right_active.push_back(q);
        right_mindist.push_back(far_dist);
        right_saved.emplace_back(q, old_off);
      } else {
        left_active.push_back(q);
        left_mindist.push_back(far_dist);
        left_saved.emplace_back(q, old_off);
      }
    }
  }

  auto descend = [&](const std::vector<uint32_t>& child_active,
                     const std::vector<double>& child_mindist,
                     const std::vector<std::pair<uint32_t, double>>& saved,
                     uint32_t* child) -> Status {
    for (const auto& [q, old_off] : saved) {
      double diff = static_cast<double>((*queries_)[q][d]) - split_value;
      offsets_[q][d] = std::abs(diff);
      (void)old_off;
    }
    Status st = ReplayRec(child_active, child_mindist, out, child);
    for (const auto& [q, old_off] : saved) offsets_[q][d] = old_off;
    return st;
  };

  node.kind = Node::kInternal;
  node.split_dim = static_cast<uint32_t>(split_dim);
  node.split_value = split_value;
  if (!(s = descend(left_active, left_mindist, left_saved, &node.left)).ok()) {
    return s;
  }
  if (!(s = descend(right_active, right_mindist, right_saved, &node.right))
           .ok()) {
    return s;
  }
  node.height =
      1 + std::max(nodes_[node.left].height, nodes_[node.right].height);
  max_height_ = std::max(max_height_, node.height);
  *node_out = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(node);
  digests_.emplace_back();
  return Status::Ok();
}

Status ForestReplay::ReplayStream(const std::vector<uint32_t>& initial_active,
                                  TreeVerifyOutput* out) {
  offsets_.assign(queries_->size(), std::vector<double>(dims_, 0.0));
  std::vector<double> mindist(initial_active.size(), 0.0);
  uint32_t root = 0;
  Status s = ReplayRec(initial_active, mindist, out, &root);
  if (!s.ok()) return s;
  stream_roots_.push_back(root);
  return Status::Ok();
}

Status ForestReplay::AddTree(ByteReader& r, TreeVerifyOutput* out) {
  reader_ = &r;
  out->candidates.assign(queries_->size(), {});
  tree_streams_.push_back(stream_roots_.size());
  if (shared_) {
    std::vector<uint32_t> all(queries_->size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
    return ReplayStream(all, out);
  }
  // Baseline layout: one stream per query; Finish checks that every stream
  // reconstructs the same root.
  for (uint32_t q = 0; q < queries_->size(); ++q) {
    Status s = ReplayStream({q}, out);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status ForestReplay::Finish(std::vector<Digest>* roots) {
  // Nodes by height: leaves first, then internal nodes, each height's
  // preimages depending only on digests of lower heights.
  std::vector<uint32_t> order;
  std::vector<size_t> height_begin(max_height_ + 2, 0);
  for (const Node& n : nodes_) {
    if (n.kind != Node::kPruned) ++height_begin[n.height + 1];
  }
  for (uint32_t h = 0; h <= max_height_; ++h) {
    height_begin[h + 1] += height_begin[h];
  }
  order.resize(height_begin.back());
  {
    std::vector<size_t> fill(height_begin.begin(), height_begin.end() - 1);
    for (uint32_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].kind != Node::kPruned) order[fill[nodes_[i].height]++] = i;
    }
  }

  Bytes buf;
  std::vector<size_t> offsets;
  std::vector<Digest> outs;
  for (uint32_t h = 0; h <= max_height_; ++h) {
    const size_t begin = height_begin[h], end = height_begin[h + 1];
    buf.clear();
    offsets.assign(1, 0);
    crypto::PreimageWriter w(&buf);
    for (size_t i = begin; i < end; ++i) {
      const Node& n = nodes_[order[i]];
      if (n.kind == Node::kLeaf) {
        buf.insert(buf.end(), leaf_bytes_.begin() + n.begin,
                   leaf_bytes_.begin() + n.end);
      } else {
        MrkdTree::HashInternal(w, n.split_dim, n.split_value,
                               digests_[n.left], digests_[n.right]);
      }
      offsets.push_back(buf.size());
    }
    outs.resize(end - begin);
    crypto::HashBatch(buf, offsets, outs.data());
    for (size_t i = begin; i < end; ++i) digests_[order[i]] = outs[i - begin];
  }

  roots->clear();
  for (size_t t = 0; t < tree_streams_.size(); ++t) {
    const size_t first = tree_streams_[t];
    const size_t last = t + 1 < tree_streams_.size() ? tree_streams_[t + 1]
                                                      : stream_roots_.size();
    // A Baseline tree replayed for no query has no stream and no root.
    const Digest root =
        first < last ? digests_[stream_roots_[first]] : Digest::Zero();
    for (size_t i = first + 1; i < last; ++i) {
      if (digests_[stream_roots_[i]] != root) {
        return Status::Error(
            "mrkd: per-query streams reconstruct different roots");
      }
    }
    roots->push_back(root);
  }
  return Status::Ok();
}

Status VerifyTreeVo(ByteReader& r, size_t dims,
                    const CommitmentTable& commitments,
                    const std::vector<const float*>& queries,
                    const std::vector<double>& thresholds_sq, bool shared,
                    TreeVerifyOutput* out) {
  ForestReplay replay(dims, commitments, queries, thresholds_sq, shared);
  Status s = replay.AddTree(r, out);
  if (!s.ok()) return s;
  std::vector<Digest> roots;
  if (!(s = replay.Finish(&roots)).ok()) return s;
  out->root = roots.front();
  return Status::Ok();
}

}  // namespace imageproof::mrkd
