// Tests for the Merkle randomized k-d tree ADS: digest construction,
// MRKDSearch VO generation, client replay verification, node sharing, and
// the Optimization-A candidate reveals.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "ann/rkd_tree.h"
#include "common/random.h"
#include "crypto/sha3.h"
#include "mrkd/commit.h"
#include "mrkd/mrkd_tree.h"
#include "mrkd/search.h"
#include "mrkd/verify.h"

namespace imageproof::mrkd {
namespace {

constexpr size_t kDims = 8;

struct Fixture {
  ann::PointSet clusters;
  std::vector<Digest> commitments;
  std::vector<Digest> list_digests;
  std::unique_ptr<ann::RkdTree> tree;
  std::unique_ptr<MrkdTree> mrkd;
  std::vector<std::vector<float>> query_storage;
  std::vector<const float*> queries;
  std::vector<double> thresholds_sq;

  Fixture(size_t num_clusters, size_t num_queries, RevealMode mode,
          uint64_t seed) {
    Rng rng(seed);
    clusters = ann::PointSet(kDims, 0);
    clusters.set_dims(kDims);
    for (size_t i = 0; i < num_clusters; ++i) {
      std::vector<float> p(kDims);
      for (auto& v : p) v = static_cast<float>(rng.NextGaussian());
      clusters.AppendRow(p);
    }
    list_digests.resize(num_clusters);
    for (size_t i = 0; i < num_clusters; ++i) {
      Bytes payload{static_cast<uint8_t>(i), static_cast<uint8_t>(i >> 8)};
      list_digests[i] = crypto::Sha3(payload);
    }
    tree = std::make_unique<ann::RkdTree>(clusters, 2, seed + 1);
    ClusterCommitments(mode, clusters, &commitments);
    mrkd = std::make_unique<MrkdTree>(tree.get(), commitments, list_digests);
    for (size_t i = 0; i < num_queries; ++i) {
      std::vector<float> q(kDims);
      for (auto& v : q) v = static_cast<float>(rng.NextGaussian());
      query_storage.push_back(q);
      thresholds_sq.push_back(0.5 + rng.NextDouble() * 2.0);
    }
    for (const auto& q : query_storage) queries.push_back(q.data());
  }

  CommitmentTable AllCommitments() const {
    CommitmentTable out;
    for (size_t c = 0; c < clusters.size(); ++c) {
      out.emplace_back(static_cast<ClusterId>(c), mrkd->cluster_commitment(c));
    }
    return out;
  }
};

TEST(MrkdTreeTest, RootDigestDeterministic) {
  Fixture f1(50, 0, RevealMode::kFullVector, 3);
  Fixture f2(50, 0, RevealMode::kFullVector, 3);
  EXPECT_EQ(f1.mrkd->root_digest(), f2.mrkd->root_digest());
}

TEST(MrkdTreeTest, RootDependsOnListDigests) {
  Fixture f(50, 0, RevealMode::kFullVector, 5);
  auto tampered_digests = f.list_digests;
  tampered_digests[7].bytes[0] ^= 1;
  MrkdTree other(f.tree.get(), f.commitments, tampered_digests);
  EXPECT_NE(f.mrkd->root_digest(), other.root_digest());
}

TEST(MrkdTreeTest, RootDependsOnRevealMode) {
  Fixture f(30, 0, RevealMode::kFullVector, 7);
  std::vector<Digest> dim_commitments;
  ClusterCommitments(RevealMode::kDimMerkle, f.clusters, &dim_commitments);
  MrkdTree dm(f.tree.get(), dim_commitments, f.list_digests);
  EXPECT_NE(f.mrkd->root_digest(), dm.root_digest());
}

// The batch keeps, per cluster, the block tree its commitment's root came
// from: the tree DimTree builds alone, which proves what it proves.
TEST(MrkdTreeTest, BatchCommitmentsKeepTheirDimTrees) {
  const size_t dims = 20;  // three blocks, the last one short
  Rng rng(13);
  ann::PointSet points(dims, 0);
  points.set_dims(dims);
  for (size_t c = 0; c < 40; ++c) {
    std::vector<float> p(dims);
    for (auto& v : p) v = static_cast<float>(rng.NextGaussian());
    points.AppendRow(p);
  }
  std::vector<Digest> commitments;
  std::vector<merkle::MerkleTree> trees;
  ClusterCommitments(RevealMode::kFullVector, points, &commitments, &trees);
  EXPECT_TRUE(trees.empty());
  ClusterCommitments(RevealMode::kDimMerkle, points, &commitments, &trees);
  ASSERT_EQ(trees.size(), points.size());
  for (size_t c = 0; c < points.size(); ++c) {
    const merkle::MerkleTree alone = DimTree(points.row(c), dims);
    ASSERT_EQ(trees[c].leaf_count(), 3u);
    EXPECT_EQ(trees[c].root(), alone.root()) << c;
    EXPECT_EQ(trees[c].ProveSubset({1}), alone.ProveSubset({1})) << c;
    EXPECT_EQ(commitments[c],
              ClusterCommitment(RevealMode::kDimMerkle,
                                static_cast<ClusterId>(c), points.row(c), dims))
        << c;
  }
}

TEST(MrkdSearchTest, CandidatesAreRangeSupersets) {
  Fixture f(200, 5, RevealMode::kFullVector, 11);
  auto out = MrkdSearchShared(*f.mrkd, f.queries, f.thresholds_sq);
  ASSERT_EQ(out.candidates.size(), 5u);
  for (size_t q = 0; q < 5; ++q) {
    std::set<ClusterId> got(out.candidates[q].begin(), out.candidates[q].end());
    for (size_t c = 0; c < f.clusters.size(); ++c) {
      double d = ann::SquaredL2(f.queries[q], f.clusters.row(c), kDims);
      if (d <= f.thresholds_sq[q]) {
        EXPECT_TRUE(got.count(static_cast<ClusterId>(c)))
            << "query " << q << " missing in-range cluster " << c;
      }
    }
  }
}

TEST(MrkdSearchTest, SharedAndUnsharedAgreeOnCandidates) {
  Fixture f(150, 6, RevealMode::kFullVector, 13);
  auto shared = MrkdSearchShared(*f.mrkd, f.queries, f.thresholds_sq);
  auto unshared = MrkdSearchUnshared(*f.mrkd, f.queries, f.thresholds_sq);
  for (size_t q = 0; q < 6; ++q) {
    std::set<ClusterId> a(shared.candidates[q].begin(), shared.candidates[q].end());
    std::set<ClusterId> b(unshared.candidates[q].begin(),
                          unshared.candidates[q].end());
    EXPECT_EQ(a, b) << "query " << q;
  }
  EXPECT_LE(shared.vo.size(), unshared.vo.size());
}

TEST(MrkdSearchTest, SharingShrinksVoWithManyQueries) {
  Fixture f(400, 40, RevealMode::kFullVector, 17);
  auto shared = MrkdSearchShared(*f.mrkd, f.queries, f.thresholds_sq);
  auto unshared = MrkdSearchUnshared(*f.mrkd, f.queries, f.thresholds_sq);
  EXPECT_LT(shared.vo.size(), unshared.vo.size() / 2)
      << "node sharing should at least halve the BoVW VO at 40 queries";
  EXPECT_GT(shared.stats.ShareRatio(), 0.1);
}

TEST(MrkdVerifyTest, HonestVoVerifiesAndRootMatches) {
  Fixture f(200, 8, RevealMode::kFullVector, 19);
  auto out = MrkdSearchShared(*f.mrkd, f.queries, f.thresholds_sq);
  ByteReader r(out.vo);
  TreeVerifyOutput v;
  Status s = VerifyTreeVo(r, kDims, f.AllCommitments(), f.queries,
                          f.thresholds_sq, /*shared=*/true, &v);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(v.root, f.mrkd->root_digest());
  for (size_t q = 0; q < 8; ++q) {
    EXPECT_EQ(v.candidates[q], out.candidates[q]);
  }
  // Every candidate's list digest was captured.
  for (const auto& cands : v.candidates) {
    for (ClusterId c : cands) {
      ASSERT_TRUE(v.list_digests.count(c));
      EXPECT_EQ(v.list_digests[c], f.list_digests[c]);
    }
  }
}

TEST(MrkdVerifyTest, UnsharedVoVerifies) {
  Fixture f(100, 4, RevealMode::kFullVector, 23);
  auto out = MrkdSearchUnshared(*f.mrkd, f.queries, f.thresholds_sq);
  ByteReader r(out.vo);
  TreeVerifyOutput v;
  Status s = VerifyTreeVo(r, kDims, f.AllCommitments(), f.queries,
                          f.thresholds_sq, /*shared=*/false, &v);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(v.root, f.mrkd->root_digest());
}

TEST(MrkdVerifyTest, BitFlipsAnywhereAreRejected) {
  Fixture f(80, 3, RevealMode::kFullVector, 29);
  auto out = MrkdSearchShared(*f.mrkd, f.queries, f.thresholds_sq);
  auto commitments = f.AllCommitments();
  Rng rng(31);
  int rejected = 0, root_mismatch = 0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    Bytes tampered = out.vo;
    size_t pos = rng.NextBounded(tampered.size());
    tampered[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    ByteReader r(tampered);
    TreeVerifyOutput v;
    Status s = VerifyTreeVo(r, kDims, commitments, f.queries, f.thresholds_sq,
                            true, &v);
    if (!s.ok() || !r.AtEnd()) {
      ++rejected;
    } else if (v.root != f.mrkd->root_digest()) {
      ++root_mismatch;
    }
  }
  // Every flip must be caught either by replay/parse errors or by a root
  // digest mismatch.
  EXPECT_EQ(rejected + root_mismatch, trials);
}

TEST(MrkdVerifyTest, MissingCommitmentRejected) {
  Fixture f(60, 2, RevealMode::kFullVector, 37);
  auto out = MrkdSearchShared(*f.mrkd, f.queries, f.thresholds_sq);
  auto commitments = f.AllCommitments();
  // Remove one commitment that is needed.
  ASSERT_FALSE(out.candidates[0].empty());
  const ClusterId needed = out.candidates[0][0];
  std::erase_if(commitments, [&](const auto& e) { return e.first == needed; });
  ByteReader r(out.vo);
  TreeVerifyOutput v;
  Status s = VerifyTreeVo(r, kDims, commitments, f.queries, f.thresholds_sq,
                          true, &v);
  EXPECT_FALSE(s.ok());
}

TEST(MrkdVerifyTest, ThresholdMismatchChangesRootOrFails) {
  // A client replaying with different thresholds must not silently accept.
  Fixture f(120, 4, RevealMode::kFullVector, 41);
  auto out = MrkdSearchShared(*f.mrkd, f.queries, f.thresholds_sq);
  auto bigger = f.thresholds_sq;
  for (auto& t : bigger) t *= 16.0;
  ByteReader r(out.vo);
  TreeVerifyOutput v;
  Status s = VerifyTreeVo(r, kDims, f.AllCommitments(), f.queries, bigger,
                          true, &v);
  // With larger thresholds the client expects subtrees that the VO pruned.
  EXPECT_FALSE(s.ok() && r.AtEnd() && v.root == f.mrkd->root_digest());
}

// --------------------------------------------------------------------------
// Forest replay: AddTree checks and records, Finish digests all trees'
// nodes height by height in batches.
// --------------------------------------------------------------------------

// Eight trees over one fixture's codebook and list digests, as a
// deployment's forest, with one VO per tree in the chosen layout.
struct Forest {
  std::vector<std::unique_ptr<ann::RkdTree>> trees;
  std::vector<std::unique_ptr<MrkdTree>> mrkds;
  std::vector<Bytes> vos;

  Forest(const Fixture& f, bool shared) {
    for (uint64_t t = 0; t < 8; ++t) {
      trees.push_back(std::make_unique<ann::RkdTree>(f.clusters, 2, 100 + t));
      mrkds.push_back(std::make_unique<MrkdTree>(
          trees.back().get(), f.commitments, f.list_digests));
      const MrkdTree& m = *mrkds.back();
      if (shared) {
        vos.push_back(MrkdSearchShared(m, f.queries, f.thresholds_sq).vo);
      } else {
        vos.push_back(MrkdSearchUnshared(m, f.queries, f.thresholds_sq).vo);
      }
    }
  }
};

Status ReplayForest(const Fixture& f, const std::vector<Bytes>& vos,
                    bool shared, std::vector<Digest>* roots) {
  const CommitmentTable commitments = f.AllCommitments();
  ForestReplay replay(kDims, commitments, f.queries, f.thresholds_sq, shared);
  for (const Bytes& vo : vos) {
    ByteReader r(vo);
    TreeVerifyOutput out;
    Status s = replay.AddTree(r, &out);
    if (!s.ok()) return s;
    if (!r.AtEnd()) return Status::Error("trailing bytes");
  }
  return replay.Finish(roots);
}

// Byte offsets of every pruned-subtree digest and leaf list digest in a
// tree VO (all of its streams), with the depth of the token.
struct DigestSite {
  size_t offset;
  size_t depth;
};

void ScanTokens(ByteReader& r, size_t vo_size, size_t depth,
                std::vector<DigestSite>* pruned,
                std::vector<DigestSite>* leaf_lists) {
  uint8_t kind = 0;
  ASSERT_TRUE(r.GetU8(&kind).ok());
  Digest d;
  if (kind == kTokenPruned) {
    pruned->push_back({vo_size - r.remaining(), depth});
    ASSERT_TRUE(crypto::GetDigest(r, &d).ok());
  } else if (kind == kTokenLeaf) {
    uint64_t count = 0, cid = 0;
    ASSERT_TRUE(r.GetVarint(&count).ok());
    for (uint64_t i = 0; i < count; ++i) {
      ASSERT_TRUE(r.GetVarint(&cid).ok());
      leaf_lists->push_back({vo_size - r.remaining(), depth});
      ASSERT_TRUE(crypto::GetDigest(r, &d).ok());
    }
  } else {
    ASSERT_EQ(kind, kTokenInternal);
    uint64_t dim = 0;
    float value = 0;
    ASSERT_TRUE(r.GetVarint(&dim).ok());
    ASSERT_TRUE(r.GetF32(&value).ok());
    ScanTokens(r, vo_size, depth + 1, pruned, leaf_lists);
    ScanTokens(r, vo_size, depth + 1, pruned, leaf_lists);
  }
}

DigestSite Deepest(const std::vector<DigestSite>& sites) {
  DigestSite best = sites.front();
  for (const DigestSite& s : sites) {
    if (s.depth > best.depth) best = s;
  }
  return best;
}

TEST(ForestReplayTest, ReconstructsCommittedRootsInBothLayouts) {
  for (bool shared : {true, false}) {
    SCOPED_TRACE(shared ? "shared" : "per-query");
    Fixture f(160, 5, RevealMode::kFullVector, 43);
    Forest forest(f, shared);
    std::vector<Digest> roots;
    Status s = ReplayForest(f, forest.vos, shared, &roots);
    ASSERT_TRUE(s.ok()) << s.message();
    ASSERT_EQ(roots.size(), 8u);
    for (size_t t = 0; t < 8; ++t) {
      EXPECT_EQ(roots[t], forest.mrkds[t]->root_digest()) << "tree " << t;
      // The one-tree entry point agrees.
      ByteReader r(forest.vos[t]);
      TreeVerifyOutput v;
      ASSERT_TRUE(VerifyTreeVo(r, kDims, f.AllCommitments(), f.queries,
                               f.thresholds_sq, shared, &v)
                      .ok());
      EXPECT_EQ(v.root, roots[t]);
    }
  }
}

TEST(ForestReplayTest, DeepFlipInTreeThreeOfEightRejected) {
  for (bool shared : {true, false}) {
    SCOPED_TRACE(shared ? "shared" : "per-query");
    Fixture f(160, 5, RevealMode::kFullVector, 47);
    Forest forest(f, shared);
    std::vector<DigestSite> pruned, leaf_lists;
    ByteReader scan(forest.vos[3]);
    while (scan.remaining() > 0) {
      ScanTokens(scan, forest.vos[3].size(), 0, &pruned, &leaf_lists);
    }
    ASSERT_FALSE(pruned.empty());
    ASSERT_FALSE(leaf_lists.empty());
    for (const DigestSite& site : {Deepest(pruned), Deepest(leaf_lists)}) {
      SCOPED_TRACE(site.offset);
      EXPECT_GE(site.depth, 3u);
      std::vector<Bytes> vos = forest.vos;
      vos[3][site.offset + 7] ^= 0x04;
      std::vector<Digest> roots;
      Status s = ReplayForest(f, vos, shared, &roots);
      // A per-query layout may reject outright: its streams then disagree
      // on a list digest or a root. The shared layout replays, to a root
      // the owner never signed.
      ASSERT_TRUE(s.ok() || !shared) << s.message();
      if (!s.ok()) continue;
      for (size_t t = 0; t < 8; ++t) {
        if (t == 3) {
          EXPECT_NE(roots[t], forest.mrkds[t]->root_digest());
        } else {
          EXPECT_EQ(roots[t], forest.mrkds[t]->root_digest()) << "tree " << t;
        }
      }
    }
  }
}

// --------------------------------------------------------------------------
// Incremental digest refresh (used by core/update.h)
// --------------------------------------------------------------------------

TEST(MrkdRefreshTest, MatchesFullRebuild) {
  Fixture f(100, 0, RevealMode::kFullVector, 67);
  // Change a few list digests, refresh paths, compare against a tree built
  // from scratch over the new digests.
  auto new_digests = f.list_digests;
  for (ClusterId c : {3u, 42u, 97u}) {
    new_digests[c].bytes[5] ^= 0xAA;
  }
  MrkdTree incremental(f.tree.get(), f.commitments, f.list_digests);
  // The tree borrows the digest vector; mutate it in place then refresh.
  f.list_digests = new_digests;
  size_t rehashed = 0;
  for (ClusterId c : {3u, 42u, 97u}) {
    size_t n = incremental.RefreshListDigest(c);
    EXPECT_GT(n, 0u);
    rehashed += n;
  }
  MrkdTree rebuilt(f.tree.get(), f.commitments, new_digests);
  EXPECT_EQ(incremental.root_digest(), rebuilt.root_digest());
  // Path refresh touches far fewer nodes than the whole tree.
  EXPECT_LT(rehashed, f.tree->nodes().size());
}

TEST(MrkdRefreshTest, UnknownClusterIsNoop) {
  Fixture f(20, 0, RevealMode::kFullVector, 71);
  MrkdTree tree(f.tree.get(), f.commitments, f.list_digests);
  Digest before = tree.root_digest();
  EXPECT_EQ(tree.RefreshListDigest(9999), 0u);
  EXPECT_EQ(tree.root_digest(), before);
}

// --------------------------------------------------------------------------
// Cluster reveals (Optimization A)
// --------------------------------------------------------------------------

TEST(RevealTest, FullRevealRoundTrip) {
  Fixture f(10, 0, RevealMode::kFullVector, 43);
  ClusterReveal rev = BuildReveal(RevealMode::kFullVector, 3,
                                  f.clusters.row(3), kDims, false, {}, {},
                                  nullptr);
  EXPECT_TRUE(rev.full);
  Digest commitment;
  ASSERT_TRUE(VerifyReveal(RevealMode::kFullVector, kDims, rev, &commitment).ok());
  EXPECT_EQ(commitment, f.mrkd->cluster_commitment(3));
}

TEST(RevealTest, PartialRevealVerifiesAgainstDimMerkleCommitment) {
  // Needs several kDimBlock-sized blocks for a partial reveal to exist.
  const size_t dims = 64;
  Rng rng(47);
  std::vector<float> cluster(dims), query(dims);
  for (size_t d = 0; d < dims; ++d) {
    cluster[d] = static_cast<float>(rng.NextGaussian());
    query[d] = static_cast<float>(rng.NextGaussian() + 3.0);
  }
  double bound = 1.0;  // far below the true squared distance (~dims * 9)
  const merkle::MerkleTree tree = DimTree(cluster.data(), dims);
  ClusterReveal rev = BuildReveal(RevealMode::kDimMerkle, 2, cluster.data(),
                                  dims, false, {query.data()}, {bound}, &tree);
  ASSERT_FALSE(rev.full) << "partial reveal expected for a distant cluster";
  EXPECT_LT(rev.dim_indices.size(), dims);
  EXPECT_EQ(rev.dim_indices.size() % kDimBlock, 0u) << "block-aligned";
  EXPECT_GT(PartialDistanceSq(query.data(), rev.dim_indices, rev.dim_values),
            bound);

  Digest commitment;
  ASSERT_TRUE(VerifyReveal(RevealMode::kDimMerkle, dims, rev, &commitment).ok());
  EXPECT_EQ(commitment, ClusterCommitment(RevealMode::kDimMerkle, 2,
                                          cluster.data(), dims));
}

TEST(RevealTest, PartialRevealFallsBackToFullWhenBoundUnreachable) {
  Fixture f(10, 0, RevealMode::kDimMerkle, 53);
  // Bound larger than the full squared distance: exclusion is impossible,
  // so BuildReveal must return the full vector.
  std::vector<float> q(f.clusters.row(1), f.clusters.row(1) + kDims);
  double full_dist = ann::SquaredL2(q.data(), f.clusters.row(4), kDims);
  const merkle::MerkleTree tree = DimTree(f.clusters.row(4), kDims);
  ClusterReveal rev =
      BuildReveal(RevealMode::kDimMerkle, 4, f.clusters.row(4), kDims, false,
                  {q.data()}, {full_dist * 2}, &tree);
  EXPECT_TRUE(rev.full);
}

TEST(RevealTest, TamperedPartialValueRejected) {
  const size_t dims = 64;
  Rng rng(59);
  std::vector<float> cluster(dims), q(dims, 10.0f);
  for (auto& v : cluster) v = static_cast<float>(rng.NextGaussian());
  const merkle::MerkleTree tree = DimTree(cluster.data(), dims);
  ClusterReveal rev = BuildReveal(RevealMode::kDimMerkle, 6, cluster.data(),
                                  dims, false, {q.data()}, {1.0}, &tree);
  ASSERT_FALSE(rev.full);
  Digest original = ClusterCommitment(RevealMode::kDimMerkle, 6,
                                      cluster.data(), dims);
  rev.dim_values[0] += 1.0f;
  Digest commitment;
  Status s = VerifyReveal(RevealMode::kDimMerkle, dims, rev, &commitment);
  // Either the proof fails structurally or the commitment changes.
  EXPECT_TRUE(!s.ok() || commitment != original);
}

// A Dim-Merkle reveal section mixing full and partial reveals of clusters
// with 64 dims (8 coordinate blocks); (*coords)[i] backs reveals[i].
std::vector<ClusterReveal> MixedSection(
    size_t count, uint64_t seed, std::vector<std::vector<float>>* coords) {
  const size_t dims = 64;
  Rng rng(seed);
  std::vector<ClusterReveal> reveals;
  coords->assign(count, std::vector<float>(dims));
  for (size_t i = 0; i < count; ++i) {
    for (auto& v : (*coords)[i]) v = static_cast<float>(rng.NextGaussian());
    // Queries farther off need fewer blocks to exclude the cluster.
    std::vector<float> q(dims, static_cast<float>(1 + rng.NextBounded(6)));
    const bool full = i % 3 == 0;
    const merkle::MerkleTree tree = DimTree((*coords)[i].data(), dims);
    reveals.push_back(BuildReveal(RevealMode::kDimMerkle,
                                  static_cast<ClusterId>(i),
                                  (*coords)[i].data(), dims, full, {q.data()},
                                  {0.5 + 40.0 * rng.NextDouble()}, &tree));
  }
  return reveals;
}

TEST(RevealTest, SectionMatchesPerRevealVerification) {
  const size_t dims = 64;
  std::vector<std::vector<float>> coords;
  auto reveals = MixedSection(24, 83, &coords);
  size_t partial = 0;
  for (const ClusterReveal& r : reveals) partial += r.full ? 0 : 1;
  ASSERT_GE(partial, 8u) << "the section must mix in partial reveals";
  ASSERT_LT(partial, reveals.size());

  uint64_t before = crypto::HashInvocations();
  std::vector<Digest> section;
  ASSERT_TRUE(
      VerifyReveals(RevealMode::kDimMerkle, dims, reveals, &section).ok());
  const uint64_t section_hashes = crypto::HashInvocations() - before;

  std::vector<Digest> singles(reveals.size());
  before = crypto::HashInvocations();
  for (size_t i = 0; i < reveals.size(); ++i) {
    ASSERT_TRUE(VerifyReveal(RevealMode::kDimMerkle, dims, reveals[i],
                             &singles[i])
                    .ok());
  }
  EXPECT_EQ(crypto::HashInvocations() - before, section_hashes);
  for (size_t i = 0; i < reveals.size(); ++i) {
    EXPECT_EQ(section[i], singles[i]) << i;
    EXPECT_EQ(section[i], ClusterCommitment(RevealMode::kDimMerkle,
                                            reveals[i].id, coords[i].data(),
                                            dims))
        << i;
  }
}

TEST(RevealTest, TamperedPartialRevealMidSectionRejected) {
  const size_t dims = 64;
  std::vector<std::vector<float>> coords;
  auto reveals = MixedSection(24, 89, &coords);
  size_t mid = reveals.size() / 2;
  while (reveals[mid].full) ++mid;
  ASSERT_LT(mid, reveals.size());

  // A changed coordinate changes that reveal's commitment and no other.
  auto tampered = reveals;
  tampered[mid].dim_values.back() += 0.25f;
  std::vector<Digest> section;
  ASSERT_TRUE(
      VerifyReveals(RevealMode::kDimMerkle, dims, tampered, &section).ok());
  for (size_t i = 0; i < reveals.size(); ++i) {
    const Digest honest = ClusterCommitment(
        RevealMode::kDimMerkle, reveals[i].id, coords[i].data(), dims);
    if (i == mid) {
      EXPECT_NE(section[i], honest);
    } else {
      EXPECT_EQ(section[i], honest) << i;
    }
  }

  // A truncated proof fails the section with that reveal's own error.
  tampered = reveals;
  ASSERT_FALSE(tampered[mid].proof.empty());
  tampered[mid].proof.pop_back();
  Digest one;
  Status alone =
      VerifyReveal(RevealMode::kDimMerkle, dims, tampered[mid], &one);
  ASSERT_FALSE(alone.ok());
  Status s = VerifyReveals(RevealMode::kDimMerkle, dims, tampered, &section);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(), alone.message());
}

TEST(RevealTest, SerializationRoundTrip) {
  const size_t dims = 64;
  Rng rng(61);
  std::vector<float> c0(dims), c1(dims), q(dims, 3.0f);
  for (auto& v : c0) v = static_cast<float>(rng.NextGaussian());
  for (auto& v : c1) v = static_cast<float>(rng.NextGaussian());
  std::vector<ClusterReveal> reveals;
  const merkle::MerkleTree t0 = DimTree(c0.data(), dims);
  const merkle::MerkleTree t1 = DimTree(c1.data(), dims);
  reveals.push_back(BuildReveal(RevealMode::kDimMerkle, 0, c0.data(), dims,
                                true, {}, {}, &t0));
  reveals.push_back(BuildReveal(RevealMode::kDimMerkle, 1, c1.data(), dims,
                                false, {q.data()}, {0.5}, &t1));
  ASSERT_FALSE(reveals[1].full);
  ByteWriter w;
  SerializeReveals(reveals, w);
  ByteReader r(w.bytes());
  std::vector<ClusterReveal> back;
  ASSERT_TRUE(DeserializeReveals(r, dims, &back).ok());
  ASSERT_TRUE(r.AtEnd());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].id, 0u);
  EXPECT_TRUE(back[0].full);
  EXPECT_EQ(back[0].coords, reveals[0].coords);
  EXPECT_FALSE(back[1].full);
  EXPECT_EQ(back[1].dim_indices, reveals[1].dim_indices);
  EXPECT_EQ(back[1].dim_values, reveals[1].dim_values);
  EXPECT_EQ(back[1].proof, reveals[1].proof);
}

TEST(RevealTest, DeserializeRejectsMalformed) {
  ByteWriter w;
  w.PutVarint(1);   // one reveal
  w.PutVarint(0);   // id
  w.PutU8(0);       // partial
  w.PutVarint(99);  // dim count > dims
  ByteReader r(w.bytes());
  std::vector<ClusterReveal> out;
  EXPECT_FALSE(DeserializeReveals(r, kDims, &out).ok());
}

TEST(PartialDistanceTest, MonotoneInRevealedDims) {
  std::vector<float> q = {1, 2, 3, 4};
  std::vector<float> c = {0, 0, 0, 0};
  double d1 = PartialDistanceSq(q.data(), {3}, {c[3]});
  double d2 = PartialDistanceSq(q.data(), {2, 3}, {c[2], c[3]});
  double d3 = PartialDistanceSq(q.data(), {0, 1, 2, 3}, {0, 0, 0, 0});
  EXPECT_LT(d1, d2);
  EXPECT_LT(d2, d3);
  EXPECT_DOUBLE_EQ(d3, 1 + 4 + 9 + 16);
}

}  // namespace
}  // namespace imageproof::mrkd
