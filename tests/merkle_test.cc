// Tests for the generic Merkle hash tree and its multi-leaf subset proofs.

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/random.h"
#include "crypto/hasher.h"
#include "crypto/sha3.h"
#include "merkle/merkle_tree.h"

namespace imageproof::merkle {
namespace {

std::vector<Bytes> MakeLeaves(size_t n, uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<Bytes> leaves(n);
  for (auto& leaf : leaves) {
    size_t len = 1 + rng.NextBounded(16);
    for (size_t i = 0; i < len; ++i) {
      leaf.push_back(static_cast<uint8_t>(rng.NextU64()));
    }
  }
  return leaves;
}

TEST(MerkleTreeTest, RootDeterministicAndSensitive) {
  auto leaves = MakeLeaves(9);
  MerkleTree t1(leaves), t2(leaves);
  EXPECT_EQ(t1.root(), t2.root());
  leaves[4][0] ^= 1;
  MerkleTree t3(leaves);
  EXPECT_NE(t1.root(), t3.root());
}

TEST(MerkleTreeTest, LeafOrderMatters) {
  auto leaves = MakeLeaves(4);
  MerkleTree t1(leaves);
  std::swap(leaves[0], leaves[1]);
  MerkleTree t2(leaves);
  EXPECT_NE(t1.root(), t2.root());
}

TEST(MerkleTreeTest, SingleLeafProof) {
  auto leaves = MakeLeaves(1);
  MerkleTree tree(leaves);
  auto proof = tree.ProveSubset({0});
  EXPECT_TRUE(proof.empty());
  EXPECT_TRUE(
      MerkleTree::VerifySubset(1, tree.root(), {0}, {leaves[0]}, proof).ok());
}

TEST(MerkleTreeTest, EmptySubsetProofIsJustTheRoot) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  auto proof = tree.ProveSubset({});
  ASSERT_EQ(proof.size(), 1u);
  EXPECT_EQ(proof[0], tree.root());
  EXPECT_TRUE(MerkleTree::VerifySubset(8, tree.root(), {}, {}, proof).ok());
}

class MerkleSubsetTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MerkleSubsetTest, AllSingletonProofsVerify) {
  size_t n = GetParam();
  auto leaves = MakeLeaves(n, n);
  MerkleTree tree(leaves);
  for (uint32_t i = 0; i < n; ++i) {
    auto proof = tree.ProveSubset({i});
    EXPECT_TRUE(
        MerkleTree::VerifySubset(n, tree.root(), {i}, {leaves[i]}, proof).ok())
        << "leaf " << i << " of " << n;
  }
}

TEST_P(MerkleSubsetTest, RandomSubsetsVerify) {
  size_t n = GetParam();
  auto leaves = MakeLeaves(n, n * 31);
  MerkleTree tree(leaves);
  Rng rng(n * 7 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint32_t> indices;
    std::vector<Bytes> payloads;
    for (uint32_t i = 0; i < n; ++i) {
      if (rng.NextDouble() < 0.3) {
        indices.push_back(i);
        payloads.push_back(leaves[i]);
      }
    }
    auto proof = tree.ProveSubset(indices);
    EXPECT_TRUE(
        MerkleTree::VerifySubset(n, tree.root(), indices, payloads, proof).ok());
  }
}

TEST_P(MerkleSubsetTest, TamperedPayloadRejected) {
  size_t n = GetParam();
  if (n < 2) return;
  auto leaves = MakeLeaves(n, n * 13);
  MerkleTree tree(leaves);
  std::vector<uint32_t> indices = {0, static_cast<uint32_t>(n - 1)};
  std::vector<Bytes> payloads = {leaves[0], leaves[n - 1]};
  auto proof = tree.ProveSubset(indices);
  payloads[1][0] ^= 0xFF;
  EXPECT_FALSE(
      MerkleTree::VerifySubset(n, tree.root(), indices, payloads, proof).ok());
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleSubsetTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 33, 128));

TEST(MerkleTreeTest, TamperedProofRejected) {
  auto leaves = MakeLeaves(10);
  MerkleTree tree(leaves);
  std::vector<uint32_t> indices = {2, 5};
  std::vector<Bytes> payloads = {leaves[2], leaves[5]};
  auto proof = tree.ProveSubset(indices);
  ASSERT_FALSE(proof.empty());
  proof[0].bytes[0] ^= 1;
  EXPECT_FALSE(
      MerkleTree::VerifySubset(10, tree.root(), indices, payloads, proof).ok());
}

TEST(MerkleTreeTest, WrongIndexRejected) {
  auto leaves = MakeLeaves(10);
  MerkleTree tree(leaves);
  auto proof = tree.ProveSubset({3});
  // Claiming the same payload belongs to a different index must fail.
  EXPECT_FALSE(
      MerkleTree::VerifySubset(10, tree.root(), {4}, {leaves[3]}, proof).ok());
}

TEST(MerkleTreeTest, MalformedProofsRejectedCleanly) {
  auto leaves = MakeLeaves(10);
  MerkleTree tree(leaves);
  std::vector<uint32_t> indices = {1};
  std::vector<Bytes> payloads = {leaves[1]};
  auto proof = tree.ProveSubset(indices);

  auto too_short = proof;
  too_short.pop_back();
  EXPECT_FALSE(MerkleTree::VerifySubset(10, tree.root(), indices, payloads,
                                        too_short)
                   .ok());

  auto too_long = proof;
  too_long.push_back(Digest::Zero());
  EXPECT_FALSE(
      MerkleTree::VerifySubset(10, tree.root(), indices, payloads, too_long)
          .ok());

  EXPECT_FALSE(MerkleTree::VerifySubset(10, tree.root(), {5, 5},
                                        {leaves[5], leaves[5]}, proof)
                   .ok())
      << "duplicate indices";
  EXPECT_FALSE(MerkleTree::VerifySubset(10, tree.root(), {99}, {leaves[1]},
                                        proof)
                   .ok())
      << "out of range";
  EXPECT_FALSE(MerkleTree::VerifySubset(10, tree.root(), {5, 2},
                                        {leaves[5], leaves[2]}, proof)
                   .ok())
      << "unsorted";
}

// The build must produce the same bytes at any thread count / grain: the
// chunked batch-hash decomposition is fixed by chunk size, not workers.
TEST(MerkleTreeTest, ParallelBuildMatchesSerialAtAnyThreadCount) {
  for (size_t n : {1u, 2u, 3u, 100u, 1337u, 4096u, 5000u}) {
    auto leaves = MakeLeaves(n, n * 17 + 3);
    MerkleTree serial(leaves, {.max_threads = 1, .parallel_grain = ~size_t{0}});
    for (unsigned threads : {2u, 3u, 8u}) {
      MerkleTree parallel(leaves,
                          {.max_threads = threads, .parallel_grain = 1});
      ASSERT_EQ(serial.root(), parallel.root()) << "n=" << n << " t=" << threads;
    }
  }
}

// Randomized UpdateLeaf sequences must track a from-scratch rebuild exactly
// — root and subset proofs byte-identical after every step.
TEST(MerkleTreeTest, IncrementalUpdateMatchesRebuild) {
  for (size_t n : {1u, 2u, 3u, 5u, 8u, 13u, 64u, 129u}) {
    auto leaves = MakeLeaves(n, n * 101 + 7);
    MerkleTree tree(leaves);
    Rng rng(n * 9 + 5);
    for (int step = 0; step < 24; ++step) {
      size_t idx = rng.NextBounded(n);
      Bytes payload;
      size_t len = 1 + rng.NextBounded(20);
      for (size_t i = 0; i < len; ++i) {
        payload.push_back(static_cast<uint8_t>(rng.NextU64()));
      }
      leaves[idx] = payload;
      tree.UpdateLeaf(idx, payload);
      MerkleTree rebuilt(leaves);
      ASSERT_EQ(tree.root(), rebuilt.root()) << "n=" << n << " step=" << step;
      std::vector<uint32_t> indices;
      std::vector<Bytes> payloads;
      for (uint32_t i = 0; i < n; ++i) {
        if (rng.NextDouble() < 0.25) {
          indices.push_back(i);
          payloads.push_back(leaves[i]);
        }
      }
      ASSERT_EQ(tree.ProveSubset(indices), rebuilt.ProveSubset(indices));
      ASSERT_TRUE(MerkleTree::VerifySubset(n, tree.root(), indices, payloads,
                                           tree.ProveSubset(indices))
                      .ok());
    }
  }
}

// UpdateLeaf is O(log n): one leaf hash plus at most ceil(log2(n)) node
// hashes, measured with the process-wide hash-invocation counter.
TEST(MerkleTreeTest, UpdateLeafHashCountLogarithmic) {
  for (size_t n : {1u, 2u, 5u, 64u, 1000u}) {
    auto leaves = MakeLeaves(n, n + 77);
    MerkleTree tree(leaves);
    const size_t depth =
        n <= 1 ? 0 : static_cast<size_t>(std::bit_width(n - 1));
    Rng rng(n);
    for (int step = 0; step < 8; ++step) {
      uint64_t before = crypto::HashInvocations();
      tree.UpdateLeaf(rng.NextBounded(n), {0xAB, static_cast<uint8_t>(step)});
      uint64_t spent = crypto::HashInvocations() - before;
      EXPECT_LE(spent, 1 + depth) << "n=" << n;
      EXPECT_GE(spent, 1u);
    }
  }
}

TEST(MerkleTreeTest, LeafNodeDomainSeparation) {
  // A leaf whose payload equals the concatenation of two digests must not
  // collide with the internal node over those digests.
  auto leaves = MakeLeaves(2);
  MerkleTree tree(leaves);
  Bytes fake_leaf;
  Digest l0 = MerkleTree::HashLeaf(leaves[0]);
  Digest l1 = MerkleTree::HashLeaf(leaves[1]);
  fake_leaf.insert(fake_leaf.end(), l0.bytes.begin(), l0.bytes.end());
  fake_leaf.insert(fake_leaf.end(), l1.bytes.begin(), l1.bytes.end());
  MerkleTree fake({fake_leaf});
  EXPECT_NE(fake.root(), tree.root());
}

// ---------------------------------------------------------------------------
// SubsetRootBatch: many proofs reconstructed together on the Keccak lanes.
// ---------------------------------------------------------------------------

// Textbook reference: the recursive largest-power-of-two-split
// reconstruction, one serial hash per revealed leaf and internal node.
struct TextbookReconstruct {
  const std::vector<uint32_t>& indices;
  const std::vector<Bytes>& payloads;
  const std::vector<Digest>& proof;
  size_t proof_pos = 0;
  uint64_t hashes = 0;

  Digest Range(size_t begin, size_t end, size_t idx_begin, size_t idx_end) {
    if (idx_begin == idx_end) return proof.at(proof_pos++);
    if (end - begin == 1) {
      ++hashes;
      return crypto::DigestBuilder()
          .AddU8(0x00)
          .AddBytes(payloads[idx_begin])
          .Finalize();
    }
    size_t split = 1;
    while (split * 2 < end - begin) split *= 2;
    const size_t mid = begin + split;
    size_t idx_mid = idx_begin;
    while (idx_mid < idx_end && indices[idx_mid] < mid) ++idx_mid;
    const Digest left = Range(begin, mid, idx_begin, idx_mid);
    const Digest right = Range(mid, end, idx_mid, idx_end);
    ++hashes;
    return crypto::DigestBuilder()
        .AddU8(0x01)
        .AddDigest(left)
        .AddDigest(right)
        .Finalize();
  }
};

struct SubsetJob {
  size_t n = 0;
  std::vector<uint32_t> indices;
  std::vector<Bytes> payloads;
  std::vector<Digest> proof;
  Digest tree_root;
};

// A job over `n` leaves revealing an empty, single, full or random subset
// (by `shape`), with an honest proof.
SubsetJob MakeJob(size_t n, int shape, Rng& rng) {
  SubsetJob job;
  job.n = n;
  auto leaves = MakeLeaves(n, rng.NextU64());
  MerkleTree tree(leaves);
  job.tree_root = tree.root();
  const uint64_t single = rng.NextBounded(n);
  for (uint32_t i = 0; i < n; ++i) {
    const bool take = shape == 1   ? i == single
                      : shape == 2 ? true
                      : shape == 3 ? rng.NextDouble() < 0.35
                                   : false;
    if (take) {
      job.indices.push_back(i);
      job.payloads.push_back(leaves[i]);
    }
  }
  job.proof = tree.ProveSubset(job.indices);
  return job;
}

std::vector<std::vector<BytesView>> AddJobs(const std::vector<SubsetJob>& jobs,
                                            SubsetRootBatch* batch) {
  std::vector<std::vector<BytesView>> views;
  for (const SubsetJob& job : jobs) {
    views.emplace_back(job.payloads.begin(), job.payloads.end());
    EXPECT_TRUE(
        batch->Add(job.n, job.indices, views.back().data(), job.proof).ok());
  }
  return views;
}

TEST(SubsetRootBatchTest, MixedBatchesMatchTextbookReference) {
  Rng rng(7070);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t jobs_in_batch = 1 + rng.NextBounded(12);
    std::vector<SubsetJob> jobs;
    for (size_t j = 0; j < jobs_in_batch; ++j) {
      jobs.push_back(MakeJob(1 + rng.NextBounded(70),
                             static_cast<int>(rng.NextBounded(4)), rng));
    }
    std::vector<Digest> want;
    uint64_t want_hashes = 0;
    for (const SubsetJob& job : jobs) {
      TextbookReconstruct ref{job.indices, job.payloads, job.proof};
      want.push_back(ref.Range(0, job.n, 0, job.indices.size()));
      ASSERT_EQ(ref.proof_pos, job.proof.size());
      ASSERT_EQ(want.back(), job.tree_root) << "reference is honest";
      want_hashes += ref.hashes;
    }
    SubsetRootBatch batch;
    auto views = AddJobs(jobs, &batch);
    std::vector<Digest> got;
    const uint64_t before = crypto::HashInvocations();
    batch.Finish(&got);
    EXPECT_EQ(crypto::HashInvocations() - before, want_hashes)
        << "trial " << trial;
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

TEST(SubsetRootBatchTest, TamperedJobInTheMiddleChangesOnlyItsRoot) {
  Rng rng(99);
  std::vector<SubsetJob> jobs;
  for (size_t n : {9u, 33u, 64u, 5u, 70u}) jobs.push_back(MakeJob(n, 3, rng));
  jobs[2] = MakeJob(64, 1, rng);  // one revealed leaf, guaranteed
  jobs[2].payloads[0][0] ^= 0x10;
  SubsetRootBatch batch;
  auto views = AddJobs(jobs, &batch);
  std::vector<Digest> roots;
  batch.Finish(&roots);
  ASSERT_EQ(roots.size(), jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    if (j == 2) {
      EXPECT_NE(roots[j], jobs[j].tree_root);
    } else {
      EXPECT_EQ(roots[j], jobs[j].tree_root) << j;
    }
  }
}

TEST(SubsetRootBatchTest, EmptyTreeAndEmptyBatch) {
  SubsetRootBatch batch;
  ASSERT_TRUE(batch.Add(0, {}, nullptr, {}).ok());
  std::vector<Digest> roots;
  batch.Finish(&roots);
  EXPECT_EQ(roots, std::vector<Digest>{Digest::Zero()});
  SubsetRootBatch none;
  none.Finish(&roots);
  EXPECT_TRUE(roots.empty());
}

// Every malformed proof fails with the message the one-proof-at-a-time
// recursion gave, through ReconstructSubsetRoot and through a batch that
// already holds a good proof.
TEST(SubsetRootBatchTest, MalformedProofErrorsUnchanged) {
  auto leaves = MakeLeaves(10);
  MerkleTree tree(leaves);
  const std::vector<uint32_t> one = {1};
  const std::vector<Bytes> one_payload = {leaves[1]};
  const auto proof = tree.ProveSubset(one);
  auto too_short = proof;
  too_short.pop_back();
  auto too_long = proof;
  too_long.push_back(Digest::Zero());

  struct Case {
    const char* what;
    size_t n;
    std::vector<uint32_t> indices;
    std::vector<Bytes> payloads;
    std::vector<Digest> proof;
    const char* error;
  };
  const std::vector<Case> cases = {
      {"too short", 10, one, one_payload, too_short, "merkle: proof too short"},
      {"too long", 10, one, one_payload, too_long, "merkle: proof too long"},
      {"duplicate", 10, {5, 5}, {leaves[5], leaves[5]}, proof,
       "merkle: indices not strictly increasing"},
      {"unsorted", 10, {5, 2}, {leaves[5], leaves[2]}, proof,
       "merkle: indices not strictly increasing"},
      {"out of range", 10, {99}, {leaves[1]}, proof,
       "merkle: index out of range"},
      {"empty tree", 0, {}, {}, proof,
       "merkle: nonempty proof for empty tree"},
      {"empty proof", 10, {}, {}, {}, "merkle: proof too short"},
  };
  for (const Case& c : cases) {
    Digest root;
    Status s =
        ReconstructSubsetRoot(c.n, c.indices, c.payloads, c.proof, &root);
    ASSERT_FALSE(s.ok()) << c.what;
    EXPECT_EQ(s.message(), c.error) << c.what;

    SubsetRootBatch batch;
    const std::vector<BytesView> good(one_payload.begin(), one_payload.end());
    ASSERT_TRUE(batch.Add(10, one, good.data(), proof).ok());
    const std::vector<BytesView> views(c.payloads.begin(), c.payloads.end());
    s = batch.Add(c.n, c.indices, views.data(), c.proof);
    ASSERT_FALSE(s.ok()) << c.what;
    EXPECT_EQ(s.message(), c.error) << c.what;
  }
  Digest root;
  Status s = ReconstructSubsetRoot(10, {1, 2}, {leaves[1]}, proof, &root);
  EXPECT_EQ(s.message(), "merkle: indices/payloads size mismatch");
}

}  // namespace
}  // namespace imageproof::merkle
