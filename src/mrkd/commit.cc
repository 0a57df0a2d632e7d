#include "mrkd/commit.h"

#include <algorithm>

#include "common/parallel.h"
#include "crypto/hasher.h"

namespace imageproof::mrkd {

namespace {

size_t NumBlocks(size_t dims) { return (dims + kDimBlock - 1) / kDimBlock; }

// Appends the commitment preimage of one cluster, mode | id | dims | body,
// where body is the coordinates (kFullVector) or `block_root`, the root of
// its coordinate-block Merkle tree (kDimMerkle). The one encoder behind
// ClusterCommitment and both batches (the owner's ClusterCommitments, the
// client's VerifyReveals).
void PutCommitmentPreimage(ByteWriter& w, RevealMode mode, ClusterId id,
                           size_t dims, const float* coords,
                           const Digest* block_root) {
  w.PutU8(static_cast<uint8_t>(mode));
  w.PutU32(id);
  w.PutU32(static_cast<uint32_t>(dims));
  if (mode == RevealMode::kFullVector) {
    w.PutF32s(coords, dims);
  } else {
    crypto::PutDigest(w, *block_root);
  }
}

}  // namespace

merkle::MerkleTree DimTree(const float* coords, size_t dims) {
  std::vector<Bytes> leaves(NumBlocks(dims));
  for (size_t b = 0; b < leaves.size(); ++b) {
    ByteWriter w;
    w.PutF32s(coords + b * kDimBlock,
              std::min(kDimBlock, dims - b * kDimBlock));
    leaves[b] = w.Take();
  }
  return merkle::MerkleTree(leaves);
}

Digest ClusterCommitment(RevealMode mode, ClusterId id, const float* coords,
                         size_t dims) {
  ByteWriter w;
  Digest block_root = Digest::Zero();
  if (mode == RevealMode::kDimMerkle) block_root = DimTree(coords, dims).root();
  PutCommitmentPreimage(w, mode, id, dims, coords, &block_root);
  return crypto::Sha3(w.bytes());
}

void ClusterCommitments(RevealMode mode, const ann::PointSet& points,
                        std::vector<Digest>* out,
                        std::vector<merkle::MerkleTree>* dim_trees) {
  const size_t n = points.size();
  const size_t dims = points.dims();
  const bool dim_merkle = mode == RevealMode::kDimMerkle;
  out->assign(n, Digest::Zero());
  std::vector<merkle::MerkleTree> local_trees;
  std::vector<merkle::MerkleTree>& trees = dim_trees ? *dim_trees : local_trees;
  trees.assign(dim_merkle ? n : 0, merkle::MerkleTree(std::vector<Bytes>{}));
  ParallelChunks(n, /*chunk=*/256, [&](size_t begin, size_t end) {
    const size_t count = end - begin;
    // Encode the chunk's preimages into one buffer, then digest them four
    // at a time.
    ByteWriter w;
    std::vector<size_t> offsets(count + 1, 0);
    for (size_t c = begin; c < end; ++c) {
      if (dim_merkle) trees[c] = DimTree(points.row(c), dims);
      PutCommitmentPreimage(w, mode, static_cast<ClusterId>(c), dims,
                            points.row(c),
                            dim_merkle ? &trees[c].root() : nullptr);
      offsets[c - begin + 1] = w.bytes().size();
    }
    crypto::HashBatch(w.bytes(), offsets, out->data() + begin);
  });
}

double PartialDistanceSq(const float* query,
                         const std::vector<uint32_t>& dim_indices,
                         const std::vector<float>& dim_values) {
  double acc = 0;
  for (size_t i = 0; i < dim_indices.size(); ++i) {
    double diff = static_cast<double>(query[dim_indices[i]]) - dim_values[i];
    acc += diff * diff;
  }
  return acc;
}

ClusterReveal BuildReveal(RevealMode mode, ClusterId id, const float* coords,
                          size_t dims, bool full_reveal,
                          const std::vector<const float*>& queries,
                          const std::vector<double>& bounds,
                          const merkle::MerkleTree* dim_tree) {
  ClusterReveal reveal;
  reveal.id = id;
  if (mode == RevealMode::kFullVector || full_reveal || queries.empty()) {
    reveal.full = true;
    reveal.coords.assign(coords, coords + dims);
    return reveal;
  }

  // Greedy block selection: order blocks by total squared difference summed
  // over the queries this cluster must be excluded for.
  const size_t num_blocks = NumBlocks(dims);
  std::vector<double> gain(num_blocks, 0.0);
  for (const float* q : queries) {
    for (size_t d = 0; d < dims; ++d) {
      double diff = static_cast<double>(q[d]) - coords[d];
      gain[d / kDimBlock] += diff * diff;
    }
  }
  std::vector<uint32_t> order(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) order[b] = static_cast<uint32_t>(b);
  std::sort(order.begin(), order.end(),
            [&gain](uint32_t a, uint32_t b) { return gain[a] > gain[b]; });

  std::vector<double> partial(queries.size(), 0.0);
  std::vector<uint32_t> chosen_blocks;
  bool all_excluded = false;
  for (uint32_t blk : order) {
    chosen_blocks.push_back(blk);
    size_t begin = static_cast<size_t>(blk) * kDimBlock;
    size_t end = std::min(dims, begin + kDimBlock);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      for (size_t d = begin; d < end; ++d) {
        double diff = static_cast<double>(queries[qi][d]) - coords[d];
        partial[qi] += diff * diff;
      }
    }
    all_excluded = true;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      if (partial[qi] <= bounds[qi]) {
        all_excluded = false;
        break;
      }
    }
    if (all_excluded) break;
  }

  if (!all_excluded || chosen_blocks.size() >= num_blocks) {
    // Partial reveal cannot strictly beat every bound (e.g., exact ties),
    // or would reveal everything anyway: fall back to the full vector.
    reveal.full = true;
    reveal.coords.assign(coords, coords + dims);
    return reveal;
  }

  std::sort(chosen_blocks.begin(), chosen_blocks.end());
  reveal.full = false;
  for (uint32_t blk : chosen_blocks) {
    size_t begin = static_cast<size_t>(blk) * kDimBlock;
    size_t end = std::min(dims, begin + kDimBlock);
    for (size_t d = begin; d < end; ++d) {
      reveal.dim_indices.push_back(static_cast<uint32_t>(d));
      reveal.dim_values.push_back(coords[d]);
    }
  }
  reveal.proof = dim_tree->ProveSubset(chosen_blocks);
  return reveal;
}

namespace {

// First-pass scratch of one reveal section, reused across its partial
// reveals so that no block allocates a payload of its own.
struct BlockScratch {
  std::vector<uint32_t> blocks;   // revealed block indices
  Bytes payloads;                 // their leaf payloads, end to end
  std::vector<size_t> ends;       // payload i ends at ends[i]
  std::vector<BytesView> views;
};

// First pass over one reveal: every check of the reveal. In kDimMerkle
// mode its block root joins `roots`, which reconstructs it in the second
// pass: a partial reveal's from its subset proof, a full reveal's from
// every block.
Status CheckReveal(RevealMode mode, size_t dims, const ClusterReveal& reveal,
                   merkle::SubsetRootBatch* roots, BlockScratch* scratch) {
  scratch->blocks.clear();
  scratch->payloads.clear();
  scratch->ends.clear();
  crypto::PreimageWriter w(&scratch->payloads);
  if (reveal.full) {
    if (reveal.coords.size() != dims) {
      return Status::Error("reveal: wrong coordinate count");
    }
    if (mode != RevealMode::kDimMerkle) return Status::Ok();
    for (size_t d = 0; d < dims; ++d) {
      w.AddF32(reveal.coords[d]);
      if ((d + 1) % kDimBlock == 0 || d + 1 == dims) {
        scratch->blocks.push_back(static_cast<uint32_t>(d / kDimBlock));
        scratch->ends.push_back(scratch->payloads.size());
      }
    }
  } else {
    if (mode != RevealMode::kDimMerkle) {
      return Status::Error("reveal: partial reveal in full-vector mode");
    }
    if (reveal.dim_indices.size() != reveal.dim_values.size() ||
        reveal.dim_indices.empty()) {
      return Status::Error("reveal: malformed partial reveal");
    }
    // Revealed dimensions must form complete, strictly increasing blocks.
    size_t i = 0;
    while (i < reveal.dim_indices.size()) {
      uint32_t d0 = reveal.dim_indices[i];
      if (d0 % kDimBlock != 0) {
        return Status::Error("reveal: partial reveal not block-aligned");
      }
      uint32_t blk = d0 / kDimBlock;
      if (!scratch->blocks.empty() && blk <= scratch->blocks.back()) {
        return Status::Error("reveal: blocks out of order");
      }
      size_t block_len = std::min<size_t>(kDimBlock, dims - d0);
      if (i + block_len > reveal.dim_indices.size()) {
        return Status::Error("reveal: incomplete block");
      }
      for (size_t j = 0; j < block_len; ++j) {
        if (reveal.dim_indices[i + j] != d0 + j) {
          return Status::Error("reveal: incomplete block");
        }
        w.AddF32(reveal.dim_values[i + j]);
      }
      scratch->blocks.push_back(blk);
      scratch->ends.push_back(scratch->payloads.size());
      i += block_len;
    }
  }
  scratch->views.clear();
  size_t begin = 0;
  for (size_t end : scratch->ends) {
    scratch->views.emplace_back(scratch->payloads.data() + begin, end - begin);
    begin = end;
  }
  // A full reveal carries no proof: every block is revealed.
  return roots->Add(NumBlocks(dims), scratch->blocks, scratch->views.data(),
                    reveal.proof);
}

// Both passes over reveals[0, n): checks every reveal in order (the first
// failure is returned), reconstructs all block roots together, then
// digests every commitment preimage in one batch.
Status VerifyRevealSection(RevealMode mode, size_t dims,
                           const ClusterReveal* reveals, size_t n,
                           Digest* commitments) {
  merkle::SubsetRootBatch batch;
  BlockScratch scratch;
  for (size_t i = 0; i < n; ++i) {
    Status s = CheckReveal(mode, dims, reveals[i], &batch, &scratch);
    if (!s.ok()) return s;
  }
  std::vector<Digest> roots;
  batch.Finish(&roots);
  ByteWriter w;
  std::vector<size_t> offsets(n + 1, 0);
  size_t next_root = 0;
  for (size_t i = 0; i < n; ++i) {
    const ClusterReveal& r = reveals[i];
    if (mode == RevealMode::kFullVector) {
      PutCommitmentPreimage(w, mode, r.id, dims, r.coords.data(), nullptr);
    } else {
      PutCommitmentPreimage(w, mode, r.id, dims, nullptr, &roots[next_root++]);
    }
    offsets[i + 1] = w.bytes().size();
  }
  crypto::HashBatch(w.bytes(), offsets, commitments);
  return Status::Ok();
}

}  // namespace

Status VerifyReveal(RevealMode mode, size_t dims, const ClusterReveal& reveal,
                    Digest* commitment_out) {
  return VerifyRevealSection(mode, dims, &reveal, 1, commitment_out);
}

Status VerifyReveals(RevealMode mode, size_t dims,
                     const std::vector<ClusterReveal>& reveals,
                     std::vector<Digest>* commitments) {
  commitments->resize(reveals.size());
  return VerifyRevealSection(mode, dims, reveals.data(), reveals.size(),
                             commitments->data());
}

void SerializeReveals(const std::vector<ClusterReveal>& reveals, ByteWriter& w) {
  w.PutVarint(reveals.size());
  for (const ClusterReveal& r : reveals) {
    w.PutVarint(r.id);
    w.PutU8(r.full ? 1 : 0);
    if (r.full) {
      w.PutF32s(r.coords.data(), r.coords.size());
    } else {
      w.PutVarint(r.dim_indices.size());
      for (size_t i = 0; i < r.dim_indices.size(); ++i) {
        w.PutVarint(r.dim_indices[i]);
        w.PutF32(r.dim_values[i]);
      }
      w.PutVarint(r.proof.size());
      for (const Digest& d : r.proof) crypto::PutDigest(w, d);
    }
  }
}

Status DeserializeReveals(ByteReader& r, size_t dims,
                          std::vector<ClusterReveal>* out) {
  uint64_t count;
  Status s = r.GetVarint(&count);
  if (!s.ok()) return s;
  // Each reveal needs at least 3 bytes (id + flag + payload byte).
  if (count > r.remaining() / 3) {
    return Status::Error("reveal: count exceeds input size");
  }
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ClusterReveal rev;
    uint64_t id;
    if (!(s = r.GetVarint(&id)).ok()) return s;
    rev.id = static_cast<ClusterId>(id);
    uint8_t full = 0;
    if (!(s = r.GetU8(&full)).ok()) return s;
    rev.full = full != 0;
    if (rev.full) {
      rev.coords.resize(dims);
      if (!(s = r.GetF32s(rev.coords.data(), dims)).ok()) return s;
    } else {
      uint64_t n;
      if (!(s = r.GetVarint(&n)).ok()) return s;
      if (n == 0 || n > dims) return Status::Error("reveal: bad dim count");
      rev.dim_indices.resize(n);
      rev.dim_values.resize(n);
      for (uint64_t j = 0; j < n; ++j) {
        uint64_t d;
        if (!(s = r.GetVarint(&d)).ok()) return s;
        if (d >= dims) return Status::Error("reveal: dim index out of range");
        rev.dim_indices[j] = static_cast<uint32_t>(d);
        if (!(s = r.GetF32(&rev.dim_values[j])).ok()) return s;
      }
      uint64_t proof_len;
      if (!(s = r.GetVarint(&proof_len)).ok()) return s;
      if (proof_len > dims + 64) return Status::Error("reveal: proof too long");
      rev.proof.resize(proof_len);
      for (uint64_t j = 0; j < proof_len; ++j) {
        if (!(s = crypto::GetDigest(r, &rev.proof[j])).ok()) return s;
      }
    }
    out->push_back(std::move(rev));
  }
  return Status::Ok();
}

}  // namespace imageproof::mrkd
