#include "merkle/merkle_tree.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/parallel.h"
#include "crypto/hasher.h"

namespace imageproof::merkle {

namespace {

// Largest power of two strictly less than n (n >= 2).
size_t SplitPoint(size_t n) {
  size_t p = 1;
  while (p * 2 < n) p *= 2;
  return p;
}

Digest HashNode(const Digest& left, const Digest& right) {
  return crypto::DigestBuilder()
      .AddU8(0x01)
      .AddDigest(left)
      .AddDigest(right)
      .Finalize();
}

// Batch granularity for the level-parallel build. Fixed (not derived from
// the thread count) so the chunk decomposition — and therefore every digest
// — is identical at any max_threads.
constexpr size_t kBuildChunk = 1024;

}  // namespace

Digest MerkleTree::HashLeaf(const Bytes& payload) {
  return crypto::DigestBuilder().AddU8(0x00).AddBytes(payload).Finalize();
}

MerkleTree::MerkleTree(const std::vector<Bytes>& leaf_payloads,
                       const MerkleBuildOptions& options)
    : leaf_count_(leaf_payloads.size()) {
  if (leaf_count_ == 0) {
    root_ = Digest::Zero();
    return;
  }
  const unsigned threads =
      leaf_count_ < options.parallel_grain ? 1 : options.max_threads;

  // Level 0: leaf digests, batch-hashed in chunks. Each chunk assembles the
  // 0x00-prefixed messages into one scratch buffer and feeds them to the
  // 4-lane engine.
  levels_.emplace_back(leaf_count_);
  std::vector<Digest>& leaf_level = levels_[0];
  ParallelChunks(
      leaf_count_, kBuildChunk,
      [&](size_t begin, size_t end) {
        const size_t count = end - begin;
        size_t total = 0;
        for (size_t i = begin; i < end; ++i) {
          total += 1 + leaf_payloads[i].size();
        }
        std::vector<uint8_t> scratch(total);
        std::vector<BytesView> msgs;
        msgs.reserve(count);
        size_t off = 0;
        for (size_t i = begin; i < end; ++i) {
          const Bytes& p = leaf_payloads[i];
          scratch[off] = 0x00;
          if (!p.empty()) std::memcpy(scratch.data() + off + 1, p.data(), p.size());
          msgs.emplace_back(scratch.data() + off, 1 + p.size());
          off += 1 + p.size();
        }
        crypto::HashBatch(msgs.data(), leaf_level.data() + begin, count);
      },
      threads);

  // Pair up each level; an odd trailing node is carried to the next level
  // unchanged (it is the right child of some ancestor higher up — the
  // largest-power-of-two split never pads).
  while (levels_.back().size() > 1) {
    const std::vector<Digest>& prev = levels_.back();
    const size_t pairs = prev.size() / 2;
    std::vector<Digest> next((prev.size() + 1) / 2);
    ParallelChunks(
        pairs, kBuildChunk,
        [&](size_t begin, size_t end) {
          const size_t count = end - begin;
          std::vector<Digest> lefts(count);
          std::vector<Digest> rights(count);
          for (size_t i = 0; i < count; ++i) {
            lefts[i] = prev[2 * (begin + i)];
            rights[i] = prev[2 * (begin + i) + 1];
          }
          crypto::HashPairBatch(0x01, lefts.data(), rights.data(),
                                next.data() + begin, count);
        },
        threads);
    if (prev.size() % 2 != 0) next.back() = prev.back();
    levels_.push_back(std::move(next));
  }
  root_ = levels_.back()[0];
}

void MerkleTree::UpdateLeaf(size_t index, const Bytes& new_payload) {
  levels_[0][index] = HashLeaf(new_payload);
  size_t idx = index;
  for (size_t k = 0; k + 1 < levels_.size(); ++k) {
    const std::vector<Digest>& cur = levels_[k];
    const size_t parent = idx / 2;
    Digest& dst = levels_[k + 1][parent];
    if (2 * parent + 1 < cur.size()) {
      dst = HashNode(cur[2 * parent], cur[2 * parent + 1]);
    } else {
      dst = cur[2 * parent];  // carried-up odd node: no hash
    }
    idx = parent;
  }
  root_ = levels_.back()[0];
}

const Digest& MerkleTree::NodeDigest(size_t begin, size_t end) const {
  // Every subtree the recursion visits covers [begin, begin + len) with
  // begin divisible by 2^ceil(log2(len)) — so it is exactly the stored
  // node levels_[k][begin >> k].
  const size_t len = end - begin;
  const size_t k =
      len == 1 ? 0 : static_cast<size_t>(std::bit_width(len - 1));
  return levels_[k][begin >> k];
}

void MerkleTree::ProveRange(size_t begin, size_t end,
                            const std::vector<uint32_t>& indices,
                            size_t idx_begin, size_t idx_end,
                            std::vector<Digest>* out) const {
  if (idx_begin == idx_end) {
    // No revealed leaf inside this subtree: emit its digest.
    out->push_back(NodeDigest(begin, end));
    return;
  }
  if (end - begin == 1) return;  // the leaf itself is revealed
  size_t mid = begin + SplitPoint(end - begin);
  size_t idx_mid = idx_begin;
  while (idx_mid < idx_end && indices[idx_mid] < mid) ++idx_mid;
  ProveRange(begin, mid, indices, idx_begin, idx_mid, out);
  ProveRange(mid, end, indices, idx_mid, idx_end, out);
}

std::vector<Digest> MerkleTree::ProveSubset(
    const std::vector<uint32_t>& indices) const {
  std::vector<Digest> out;
  if (leaf_count_ == 0) return out;
  ProveRange(0, leaf_count_, indices, 0, indices.size(), &out);
  return out;
}

uint32_t SubsetRootBatch::AddNode(const Node& node, const Digest& digest) {
  nodes_.push_back(node);
  digests_.push_back(digest);
  return static_cast<uint32_t>(nodes_.size() - 1);
}

Status SubsetRootBatch::Record(size_t begin, size_t end,
                               const std::vector<uint32_t>& indices,
                               const BytesView* payloads, size_t idx_begin,
                               size_t idx_end, const std::vector<Digest>& proof,
                               size_t* proof_pos, uint32_t* node_out) {
  if (idx_begin == idx_end) {
    if (*proof_pos >= proof.size()) {
      return Status::Error("merkle: proof too short");
    }
    *node_out = AddNode({}, proof[(*proof_pos)++]);
    return Status::Ok();
  }
  if (end - begin == 1) {
    if (indices[idx_begin] != begin || idx_end - idx_begin != 1) {
      return Status::Error("merkle: indices out of order or duplicated");
    }
    const BytesView& p = payloads[idx_begin];
    leaf_bytes_.push_back(0x00);
    leaf_bytes_.insert(leaf_bytes_.end(), p.data, p.data + p.size);
    leaf_offsets_.push_back(leaf_bytes_.size());
    *node_out = AddNode({}, Digest::Zero());
    leaf_nodes_.push_back(*node_out);
    return Status::Ok();
  }
  size_t mid = begin + SplitPoint(end - begin);
  size_t idx_mid = idx_begin;
  while (idx_mid < idx_end && indices[idx_mid] < mid) ++idx_mid;
  Node node;
  Status s = Record(begin, mid, indices, payloads, idx_begin, idx_mid, proof,
                    proof_pos, &node.left);
  if (!s.ok()) return s;
  s = Record(mid, end, indices, payloads, idx_mid, idx_end, proof, proof_pos,
             &node.right);
  if (!s.ok()) return s;
  node.height =
      1 + std::max(nodes_[node.left].height, nodes_[node.right].height);
  *node_out = AddNode(node, Digest::Zero());
  if (by_height_.size() < node.height) by_height_.resize(node.height);
  by_height_[node.height - 1].push_back(*node_out);
  return Status::Ok();
}

Status SubsetRootBatch::Add(size_t leaf_count,
                            const std::vector<uint32_t>& indices,
                            const BytesView* payloads,
                            const std::vector<Digest>& proof) {
  for (size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= leaf_count) return Status::Error("merkle: index out of range");
    if (i > 0 && indices[i] <= indices[i - 1]) {
      return Status::Error("merkle: indices not strictly increasing");
    }
  }
  if (leaf_count == 0) {
    if (!indices.empty() || !proof.empty()) {
      return Status::Error("merkle: nonempty proof for empty tree");
    }
    roots_.push_back(AddNode({}, Digest::Zero()));
    return Status::Ok();
  }
  size_t proof_pos = 0;
  uint32_t root = 0;
  Status s = Record(0, leaf_count, indices, payloads, 0, indices.size(), proof,
                    &proof_pos, &root);
  if (!s.ok()) return s;
  if (proof_pos != proof.size()) return Status::Error("merkle: proof too long");
  roots_.push_back(root);
  return Status::Ok();
}

void SubsetRootBatch::Finish(std::vector<Digest>* roots) {
  std::vector<Digest> outs(leaf_nodes_.size());
  crypto::HashBatch(leaf_bytes_, leaf_offsets_, outs.data());
  for (size_t i = 0; i < leaf_nodes_.size(); ++i) {
    digests_[leaf_nodes_[i]] = outs[i];
  }
  std::vector<Digest> lefts, rights;
  for (const std::vector<uint32_t>& level : by_height_) {
    lefts.clear();
    rights.clear();
    for (uint32_t n : level) {
      lefts.push_back(digests_[nodes_[n].left]);
      rights.push_back(digests_[nodes_[n].right]);
    }
    outs.resize(level.size());
    crypto::HashPairBatch(0x01, lefts.data(), rights.data(), outs.data(),
                          level.size());
    for (size_t i = 0; i < level.size(); ++i) digests_[level[i]] = outs[i];
  }
  roots->clear();
  for (uint32_t r : roots_) roots->push_back(digests_[r]);
}

Status ReconstructSubsetRoot(size_t leaf_count,
                             const std::vector<uint32_t>& indices,
                             const std::vector<Bytes>& payloads,
                             const std::vector<Digest>& proof,
                             Digest* root_out) {
  if (indices.size() != payloads.size()) {
    return Status::Error("merkle: indices/payloads size mismatch");
  }
  const std::vector<BytesView> views(payloads.begin(), payloads.end());
  SubsetRootBatch batch;
  Status s = batch.Add(leaf_count, indices, views.data(), proof);
  if (!s.ok()) return s;
  std::vector<Digest> roots;
  batch.Finish(&roots);
  *root_out = roots.front();
  return Status::Ok();
}

Status MerkleTree::VerifySubset(size_t leaf_count, const Digest& root,
                                const std::vector<uint32_t>& indices,
                                const std::vector<Bytes>& payloads,
                                const std::vector<Digest>& proof) {
  Digest computed = Digest::Zero();
  Status s = ReconstructSubsetRoot(leaf_count, indices, payloads, proof,
                                   &computed);
  if (!s.ok()) return s;
  if (leaf_count > 0 && computed != root) {
    return Status::Error("merkle: root mismatch");
  }
  return Status::Ok();
}

}  // namespace imageproof::merkle
