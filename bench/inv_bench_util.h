// Shared helpers for the inverted-index-step figures (9, 10, 11): these
// exercise the index ADSs directly (no MRKD-tree), comparing
//   Baseline   — plain Merkle inverted index, loose Eq. (10) bounds ([15])
//   InvSearch  — Merkle inverted index with cuckoo filters
//   Optimized  — frequency-grouped Merkle inverted index with filters
// and reporting SP CPU, client CPU, and % of postings popped.

#ifndef IMAGEPROOF_BENCH_INV_BENCH_UTIL_H_
#define IMAGEPROOF_BENCH_INV_BENCH_UTIL_H_

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "invindex/search.h"
#include "invindex/verify.h"
#include "workload/synthetic.h"

namespace imageproof::bench {

enum class InvScheme { kBaseline, kInvSearch, kOptimized };

inline const char* Name(InvScheme s) {
  switch (s) {
    case InvScheme::kBaseline:
      return "Baseline[15]";
    case InvScheme::kInvSearch:
      return "InvSearch";
    default:
      return "Optimized";
  }
}

struct InvFixture {
  workload::CorpusParams params;
  std::vector<std::pair<bovw::ImageId, bovw::BovwVector>> corpus;
  std::unique_ptr<invindex::InvertedIndex> plain;     // Baseline
  std::unique_ptr<invindex::InvertedIndex> filtered;  // InvSearch
  std::unique_ptr<invindex::InvertedIndex> grouped;   // Optimized

  InvFixture(size_t num_images, size_t num_clusters, uint64_t seed = 7) {
    params.num_images = num_images;
    params.num_clusters = num_clusters;
    params.seed = seed;
    corpus = workload::GenerateCorpus(params);
    std::vector<bovw::BovwVector> vecs;
    vecs.reserve(corpus.size());
    for (auto& [id, v] : corpus) vecs.push_back(v);
    auto weights = bovw::ClusterWeights::FromCorpus(num_clusters, vecs);
    auto build = [&](invindex::EntryKind kind, bool with_filters) {
      return std::make_unique<invindex::InvertedIndex>(
          invindex::InvertedIndex::Build(kind, num_clusters, corpus, weights,
                                         with_filters));
    };
    plain = build(invindex::EntryKind::kPosting, /*with_filters=*/false);
    filtered = build(invindex::EntryKind::kPosting, /*with_filters=*/true);
    grouped = build(invindex::EntryKind::kGroup, /*with_filters=*/true);
  }

  const invindex::InvertedIndex& Index(InvScheme scheme) const {
    switch (scheme) {
      case InvScheme::kBaseline:
        return *plain;
      case InvScheme::kInvSearch:
        return *filtered;
      default:
        return *grouped;
    }
  }
};

struct InvMeasurement {
  double sp_ms = 0, client_ms = 0, popped_pct = 0, vo_kb = 0;
  bool verified = true;
};

// Runs `num_queries` top-k searches + verifications with `num_features`
// query feature vectors each, averaged.
inline InvMeasurement RunInvQueries(const InvFixture& fx, InvScheme scheme,
                                    size_t num_features, size_t k,
                                    int num_queries, uint64_t seed = 500) {
  InvMeasurement m;
  invindex::InvSearchParams params;
  params.k = k;
  for (int q = 0; q < num_queries; ++q) {
    // Queries are derived from a random database image (the paper samples
    // its query images from the dataset), with 20% background words.
    const auto& source =
        fx.corpus[(seed + q) * 2654435761u % fx.corpus.size()].second;
    bovw::BovwVector query = workload::QueryFromImage(
        fx.params, source, num_features, /*noise_fraction=*/0.2, seed + q);
    const invindex::InvertedIndex& index = fx.Index(scheme);
    Stopwatch sp_timer;
    invindex::InvSearchResult r = invindex::InvSearch(index, query, params);
    m.sp_ms += sp_timer.ElapsedMillis();
    m.popped_pct += 100.0 * r.stats.PoppedFraction();
    m.vo_kb += r.vo.size() / 1024.0;

    std::vector<bovw::ImageId> claimed;
    for (const auto& si : r.topk) claimed.push_back(si.id);
    Stopwatch client_timer;
    invindex::InvVerifyResult verified;
    Status s = invindex::VerifyInvVo(index.kind(), r.vo, query, claimed, k,
                                     scheme != InvScheme::kBaseline,
                                     &verified);
    m.client_ms += client_timer.ElapsedMillis();
    if (!s.ok()) {
      std::fprintf(stderr, "bench: %s verify FAILED: %s\n", Name(scheme),
                   s.message().c_str());
      m.verified = false;
    }
  }
  m.sp_ms /= num_queries;
  m.client_ms /= num_queries;
  m.popped_pct /= num_queries;
  m.vo_kb /= num_queries;
  return m;
}

inline void PrintInvHeader(const char* title, const char* x_name) {
  BenchReport::Global().SetSeries(title, x_name);
  std::printf("%s\n", title);
  std::printf("%-14s %10s | %10s %12s %10s %10s\n", "scheme", x_name, "sp_ms",
              "client_ms", "popped%", "vo_KB");
  std::printf("--------------------------------------------------------------"
              "--------\n");
}

inline void PrintInvRow(InvScheme scheme, size_t x, const InvMeasurement& m) {
  // Feed the --json report through the Measurement shape the overall
  // figures use; these benches only exercise the inverted-index step.
  Measurement row;
  row.sp_inv_ms = m.sp_ms;
  row.client_inv_ms = m.client_ms;
  row.inv_vo_kb = m.vo_kb;
  row.popped_fraction = m.popped_pct / 100.0;
  row.verified = m.verified;
  BenchReport::Global().AddRow(Name(scheme), static_cast<double>(x), row);
  std::printf("%-14s %10zu | %10.2f %12.2f %9.1f%% %10.1f%s\n", Name(scheme),
              x, m.sp_ms, m.client_ms, m.popped_pct, m.vo_kb,
              m.verified ? "" : "  [VERIFY FAILED]");
}

}  // namespace imageproof::bench

#endif  // IMAGEPROOF_BENCH_INV_BENCH_UTIL_H_
