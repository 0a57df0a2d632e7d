// Ablation — what the cuckoo filters buy, and the fingerprint-size
// trade-off.
//
// Compares the loose Eq. (10) bounds against filter-tightened bounds at
// fingerprint sizes 4..16 bits: larger fingerprints mean fewer false
// positives (fewer gratuitously popped postings) but bigger shipped
// filters. The paper fixes 8 bits; this shows why that is a sweet spot.

#include <cstdio>

#include "bench/inv_bench_util.h"

using namespace imageproof;
using namespace imageproof::bench;

int main(int argc, char** argv) {
  InitBench(argc, argv, "abl_filter_bounds");
  const size_t kImages = 10000, kClusters = 2048, kK = 10, kFeatures = 200;
  workload::CorpusParams cp;
  cp.num_images = kImages;
  cp.num_clusters = kClusters;
  auto corpus = workload::GenerateCorpus(cp);
  std::vector<bovw::BovwVector> vecs;
  for (auto& [id, v] : corpus) vecs.push_back(v);
  auto weights = bovw::ClusterWeights::FromCorpus(kClusters, vecs);

  std::printf("Ablation — bound tightening (10k images, 2048 clusters, k=10)\n");
  std::printf("%-22s | %10s %12s %10s %10s\n", "variant", "sp_ms", "client_ms",
              "popped%", "vo_KB");
  std::printf("----------------------------------------------------------------------\n");

  auto run = [&](const char* name, const invindex::PostingIndex& index) {
    invindex::InvSearchParams params;
    params.k = kK;
    double sp_ms = 0, client_ms = 0, popped = 0, kb = 0;
    const int kQ = 3;
    for (int q = 0; q < kQ; ++q) {
      auto query = workload::GenerateQueryBovw(cp, kFeatures, 800 + q);
      Stopwatch t1;
      auto r = invindex::InvSearch(index, query, params);
      sp_ms += t1.ElapsedMillis();
      popped += 100.0 * r.stats.PoppedFraction();
      kb += r.vo.size() / 1024.0;
      std::vector<bovw::ImageId> claimed;
      for (auto& si : r.topk) claimed.push_back(si.id);
      Stopwatch t2;
      invindex::InvVerifyResult verified;
      Status s = invindex::VerifyInvVo(r.vo, query, claimed, kK,
                                       index.with_filters(), &verified);
      client_ms += t2.ElapsedMillis();
      if (!s.ok()) std::fprintf(stderr, "verify failed: %s\n", s.message().c_str());
    }
    std::printf("%-22s | %10.2f %12.2f %9.1f%% %10.1f\n", name, sp_ms / kQ,
                client_ms / kQ, popped / kQ, kb / kQ);
  };

  auto loose = invindex::PostingIndex::Build(kClusters, corpus, weights,
                                             /*with_filters=*/false);
  run("loose bounds (Eq.10)", loose);
  for (uint32_t bits : {4, 8, 12, 16}) {
    auto index = invindex::PostingIndex::Build(
        kClusters, corpus, weights, /*with_filters=*/true, bits);
    char name[64];
    std::snprintf(name, sizeof(name), "cuckoo %2u-bit fp", bits);
    run(name, index);
  }
  return FinishBench(0);
}
