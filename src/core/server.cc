#include "core/server.h"

#include <algorithm>
#include <utility>

#include "common/parallel.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/registry.h"

namespace imageproof::core {

namespace {

// Per-stage serving metrics (process-wide; see obs/registry.h for the
// resolve-once pattern). Stage names follow the paper's cost model: the
// BoVW step splits into the AKM threshold descent, the authenticated MRKD
// range search, and assignment + candidate-reveal assembly; the
// inverted-index step and the result-payload attachment complete the VO.
struct SpMetrics {
  obs::Counter& queries;
  obs::Counter& features;
  obs::Histogram& akm_threshold_us;
  obs::Histogram& mrkd_search_us;
  obs::Histogram& assign_reveal_us;
  obs::Histogram& inv_search_us;
  obs::Histogram& vo_assemble_us;
  obs::Histogram& bovw_vo_bytes;
  obs::Histogram& inv_vo_bytes;

  static SpMetrics& Get() {
    static SpMetrics m = [] {
      obs::Registry& r = obs::Registry::Global();
      return SpMetrics{r.GetCounter("sp.queries"),
                       r.GetCounter("sp.features"),
                       r.GetHistogram("sp.stage.akm_threshold_us"),
                       r.GetHistogram("sp.stage.mrkd_search_us"),
                       r.GetHistogram("sp.stage.assign_reveal_us"),
                       r.GetHistogram("sp.stage.inv_search_us"),
                       r.GetHistogram("sp.stage.vo_assemble_us"),
                       r.GetHistogram("sp.vo.bovw_bytes"),
                       r.GetHistogram("sp.vo.inv_bytes")};
    }();
    return m;
  }
};

}  // namespace

QueryResponse ServiceProvider::Query(
    const std::vector<std::vector<float>>& features, size_t k,
    const QueryParallelism& par) const {
  QueryResponse resp;
  // A default QueryControl never expires, so this cannot fail.
  (void)Query(features, k, par, QueryControl(), &resp);
  return resp;
}

Status ServiceProvider::Query(const std::vector<std::vector<float>>& features,
                              size_t k, const QueryParallelism& par,
                              const QueryControl& control, QueryResponse* out,
                              QueryScratch* scratch) const {
  return Query(features, k, par, control, ServeOptions(), out, scratch);
}

Status ServiceProvider::Query(const std::vector<std::vector<float>>& features,
                              size_t k, const QueryParallelism& par,
                              const QueryControl& control,
                              const ServeOptions& serve, QueryResponse* out,
                              QueryScratch* scratch) const {
  QueryResponse& resp = *out;
  const Config& config = pkg_->config;
  const ann::PointSet& codebook = pkg_->codebook;
  const size_t dims = codebook.dims();
  const size_t nq = features.size();
  // Every parallel loop below writes disjoint per-index slots and is merged
  // in index order, so the response is byte-identical at any thread count.
  const unsigned threads = par.threads == 0 ? 1 : par.threads;

  // A feature vector with the wrong dimensionality would read out of
  // bounds in the distance kernels; reject it up front.
  for (size_t i = 0; i < nq; ++i) {
    if (features[i].size() != dims) {
      return Status::Error("sp: query feature " + std::to_string(i) + " has " +
                           std::to_string(features[i].size()) +
                           " dims, codebook has " + std::to_string(dims));
    }
  }

  Stopwatch bovw_timer;
  SpMetrics& met = SpMetrics::Get();
  met.queries.Add();
  met.features.Add(nq);

  if (control.Expired()) {
    return Status::DeadlineExceeded("sp: deadline expired before query start");
  }

  // Step 1: AKM search for thresholds. Chunked so each worker lane reuses
  // one scratch queue across its features; the chunk size is a function of
  // (nq, threads) alone and the kernel results do not depend on the
  // scratch, so output stays byte-identical at any thread count.
  obs::ScopedTimer akm_timer(met.akm_threshold_us);
  std::vector<const float*> queries(nq);
  for (size_t i = 0; i < nq; ++i) queries[i] = features[i].data();
  std::vector<double> thresholds_sq(nq, 0.0);
  const size_t num_trees = pkg_->mrkd_trees.size();
  if (scratch != nullptr) scratch->EnsureLanes(threads, num_trees);
  if (nq > 0) {
    const size_t chunk = (nq + threads - 1) / threads;
    ParallelChunks(
        nq, chunk,
        [&](size_t begin, size_t end) {
          kern::SearchScratch* lane =
              scratch ? &scratch->akm_lanes[begin / chunk] : nullptr;
          for (size_t i = begin; i < end; ++i) {
            ann::NearestResult r = pkg_->forest->ApproxNearest(queries[i], lane);
            thresholds_sq[i] = r.dist_sq;
          }
        },
        threads);
  }
  resp.vo.thresholds_sq = thresholds_sq;
  akm_timer.Stop();

  if (control.Expired()) {
    return Status::DeadlineExceeded("sp: deadline expired after AKM stage");
  }

  // Step 2: MRKDSearch over every tree, in parallel across trees; outputs
  // are merged in tree order afterwards.
  obs::ScopedTimer mrkd_timer(met.mrkd_search_us);
  std::vector<mrkd::TreeSearchOutput> tree_outputs(num_trees);
  ParallelFor(
      num_trees,
      [&](size_t t) {
        const mrkd::MrkdTree& tree = *pkg_->mrkd_trees[t];
        // Scratch is indexed by tree, not by worker, so the lane is
        // exclusive at any thread count.
        mrkd::MrkdSearchScratch* lane =
            scratch ? &scratch->tree_lanes[t] : nullptr;
        tree_outputs[t] =
            config.share_nodes
                ? mrkd::MrkdSearchShared(tree, queries, thresholds_sq, lane)
                : mrkd::MrkdSearchUnshared(tree, queries, thresholds_sq, lane);
      },
      threads, /*grain=*/1);
  // Per feature, the union of every tree's candidates, ascending.
  std::vector<std::vector<mrkd::ClusterId>> candidates(nq);
  for (mrkd::TreeSearchOutput& out : tree_outputs) {
    for (size_t i = 0; i < nq; ++i) {
      candidates[i].insert(candidates[i].end(), out.candidates[i].begin(),
                           out.candidates[i].end());
    }
    resp.stats.mrkd.traversed_nodes += out.stats.traversed_nodes;
    resp.stats.mrkd.shared_nodes += out.stats.shared_nodes;
    resp.stats.mrkd.pruned_subtrees += out.stats.pruned_subtrees;
    resp.vo.tree_vos.push_back(std::move(out.vo));
  }
  for (std::vector<mrkd::ClusterId>& cands : candidates) {
    std::sort(cands.begin(), cands.end());
    cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
  }

  mrkd_timer.Stop();

  if (control.Expired()) {
    return Status::DeadlineExceeded("sp: deadline expired after MRKD stage");
  }

  // Step 3: assignments = exact nearest among candidates, then the shared
  // candidate-reveal section.
  obs::ScopedTimer assign_timer(met.assign_reveal_us);
  std::vector<mrkd::ClusterId> assignment(nq);
  std::vector<double> assigned_dist(nq, 0.0);
  ParallelFor(
      nq,
      [&](size_t i) {
        double best = -1;
        mrkd::ClusterId best_c = 0;
        bool first = true;
        for (mrkd::ClusterId c : candidates[i]) {
          double d = ann::SquaredL2(queries[i], codebook.row(c), dims);
          if (first || d < best || (d == best && c < best_c)) {
            best = d;
            best_c = c;
            first = false;
          }
        }
        assignment[i] = best_c;
        assigned_dist[i] = best;
      },
      threads, /*grain=*/1);

  // Which queries must each candidate be excluded for, as (cluster, query)
  // pairs, and which clusters must be revealed fully (someone's assigned
  // cluster); all sorted.
  std::vector<std::pair<mrkd::ClusterId, size_t>> exclusions;
  std::vector<mrkd::ClusterId> full_clusters(assignment);
  std::vector<mrkd::ClusterId> all_candidates;
  for (size_t i = 0; i < nq; ++i) {
    for (mrkd::ClusterId c : candidates[i]) {
      if (c != assignment[i]) exclusions.emplace_back(c, i);
    }
    all_candidates.insert(all_candidates.end(), candidates[i].begin(),
                          candidates[i].end());
  }
  std::sort(exclusions.begin(), exclusions.end());
  for (std::vector<mrkd::ClusterId>* ids : {&full_clusters, &all_candidates}) {
    std::sort(ids->begin(), ids->end());
    ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
  }

  std::vector<mrkd::ClusterReveal> reveals;
  reveals.reserve(all_candidates.size());
  auto excl = exclusions.begin();
  for (mrkd::ClusterId c : all_candidates) {
    bool full = std::binary_search(full_clusters.begin(), full_clusters.end(),
                                   c);
    std::vector<const float*> qs;
    std::vector<double> bounds;
    for (; excl != exclusions.end() && excl->first == c; ++excl) {
      if (full) continue;
      qs.push_back(queries[excl->second]);
      bounds.push_back(assigned_dist[excl->second]);
    }
    reveals.push_back(mrkd::BuildReveal(
        config.reveal_mode, c, codebook.row(c), dims, full, qs, bounds,
        pkg_->dim_trees.empty() ? nullptr : &pkg_->dim_trees[c]));
    if (!reveals.back().full) ++resp.stats.partial_reveals;
  }
  ByteWriter reveal_writer;
  mrkd::SerializeReveals(reveals, reveal_writer);
  resp.vo.reveal_section = reveal_writer.Take();

  // Step 4: BoVW encoding.
  std::vector<bovw::ClusterId> assigned_ids(assignment.begin(), assignment.end());
  bovw::BovwVector query_bovw = bovw::CountAssignments(assigned_ids);
  assign_timer.Stop();
  resp.stats.sp_bovw_ms = bovw_timer.ElapsedMillis();
  resp.stats.bovw_vo_bytes =
      resp.vo.reveal_section.size() + nq * sizeof(double);
  for (const Bytes& t : resp.vo.tree_vos) resp.stats.bovw_vo_bytes += t.size();
  met.bovw_vo_bytes.Record(resp.stats.bovw_vo_bytes);

  if (control.Expired()) {
    return Status::DeadlineExceeded("sp: deadline expired after BoVW stage");
  }

  // Step 5: inverted-index search.
  Stopwatch inv_timer;
  obs::ScopedTimer inv_stage_timer(met.inv_search_us);
  invindex::InvSearchParams params;
  params.k = k;
  params.check_batch = config.check_batch;
  params.compress_vo = serve.compress_vo;
  params.settle_exact_topk = serve.settle_exact_topk;
  kern::SearchScratch* inv_scratch = scratch ? &scratch->inv : nullptr;
  invindex::InvSearchResult r =
      invindex::InvSearch(*pkg_->inv_index, query_bovw, params, inv_scratch);
  resp.topk = std::move(r.topk);
  resp.vo.inv_vo = std::move(r.vo);
  resp.stats.inv = r.stats;
  inv_stage_timer.Stop();
  resp.stats.sp_inv_ms = inv_timer.ElapsedMillis();
  resp.stats.inv_vo_bytes = resp.vo.inv_vo.size();
  met.inv_vo_bytes.Record(resp.stats.inv_vo_bytes);

  if (control.Expired()) {
    return Status::DeadlineExceeded("sp: deadline expired after inv stage");
  }

  // Step 6: result payloads + signatures, through the uniform accessor so a
  // disk-backed package (storage/package_store.h) serves blobs straight from
  // the mapping. A stored payload that fails its lazy integrity check turns
  // the whole query into kCorrupted — a tampered file never fills a VO.
  obs::ScopedTimer vo_timer(met.vo_assemble_us);
  for (const auto& si : resp.topk) {
    ResultImage ri;
    ri.id = si.id;
    bool found = false;
    if (Status s = pkg_->GetImage(si.id, &found, &ri.data, &ri.signature);
        !s.ok()) {
      return s;
    }
    resp.vo.results.push_back(std::move(ri));
  }
  return Status::Ok();
}

}  // namespace imageproof::core
