// Micro-benchmarks for the randomized k-d tree substrate: build time,
// forest (AKM) search latency, exact range search, and MRKD digest
// decoration cost.

#include <benchmark/benchmark.h>

#include "bench/micro_util.h"

#include "ann/rkd_forest.h"
#include "crypto/sha3.h"
#include "mrkd/mrkd_tree.h"
#include "workload/synthetic.h"

namespace {

using namespace imageproof;

ann::PointSet Codebook(size_t n, size_t dims) {
  workload::CodebookParams p;
  p.num_clusters = n;
  p.dims = dims;
  return workload::GenerateCodebook(p);
}

void BM_TreeBuild(benchmark::State& state) {
  ann::PointSet points = Codebook(state.range(0), 64);
  for (auto _ : state) {
    ann::RkdTree tree(points, 2, 42);
    benchmark::DoNotOptimize(tree.nodes().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TreeBuild)->Arg(1024)->Arg(8192);

void BM_ForestApproxNearest(benchmark::State& state) {
  ann::PointSet points = Codebook(state.range(0), 64);
  ann::RkdForest forest(points, ann::ForestParams{});
  auto queries = workload::GenerateQueryFeatures(points, 256, 0.25, 7);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.ApproxNearest(queries[i++ % 256].data()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForestApproxNearest)->Arg(1024)->Arg(8192)->Arg(32768);

void BM_RangeSearch(benchmark::State& state) {
  ann::PointSet points = Codebook(8192, 64);
  ann::RkdTree tree(points, 2, 42);
  ann::RkdForest forest(points, ann::ForestParams{});
  auto queries = workload::GenerateQueryFeatures(points, 64, 0.25, 9);
  std::vector<double> radius;
  for (auto& q : queries) radius.push_back(forest.ApproxNearest(q.data()).dist_sq);
  size_t i = 0;
  for (auto _ : state) {
    size_t qi = i++ % queries.size();
    benchmark::DoNotOptimize(tree.RangeSearch(queries[qi].data(), radius[qi]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RangeSearch);

void BM_MrkdDecoration(benchmark::State& state) {
  ann::PointSet points = Codebook(state.range(0), 64);
  ann::RkdTree tree(points, 2, 42);
  std::vector<crypto::Digest> list_digests(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    Bytes b{static_cast<uint8_t>(i)};
    list_digests[i] = crypto::Sha3(b);
  }
  std::vector<crypto::Digest> commitments;
  mrkd::ClusterCommitments(mrkd::RevealMode::kFullVector, points,
                           &commitments);
  for (auto _ : state) {
    mrkd::MrkdTree mt(&tree, commitments, list_digests);
    benchmark::DoNotOptimize(mt.root_digest());
  }
  state.SetItemsProcessed(state.iterations() * points.size());
}
BENCHMARK(BM_MrkdDecoration)->Arg(1024)->Arg(8192);

}  // namespace

IMAGEPROOF_MICRO_BENCH_MAIN("micro_kdtree");
