#include "core/client.h"

#include <algorithm>
#include <exception>
#include <latch>
#include <numeric>
#include <thread>
#include <utility>

#include "common/stopwatch.h"
#include "crypto/hasher.h"
#include "crypto/sha3.h"
#include "invindex/verify.h"
#include "mrkd/verify.h"
#include "obs/metrics.h"
#include "obs/registry.h"

namespace imageproof::core {

namespace {

crypto::Digest ImageDigest(ImageId id, const Bytes& data) {
  return crypto::DigestBuilder()
      .AddU64(id)
      .AddDigest(crypto::Sha3(data))
      .Finalize();
}

// Client-side verification metrics: one timer per ADS check (Section V-C
// step), plus the VO size broken down by component — the paper's VO-size
// figures are exactly these series.
struct ClientMetrics {
  obs::Counter& verifies;
  obs::Counter& verify_failures;
  obs::Histogram& verify_us;
  obs::Histogram& reveal_verify_us;
  obs::Histogram& mrkd_replay_us;
  obs::Histogram& bovw_check_us;
  obs::Histogram& inv_verify_us;
  obs::Histogram& inv_prepare_us;
  obs::Histogram& sig_verify_us;
  obs::Histogram& vo_reveal_bytes;
  obs::Histogram& vo_tree_bytes;
  obs::Histogram& vo_inv_bytes;
  obs::Histogram& vo_result_bytes;

  static ClientMetrics& Get() {
    static ClientMetrics m = [] {
      obs::Registry& r = obs::Registry::Global();
      return ClientMetrics{r.GetCounter("client.verifies"),
                           r.GetCounter("client.verify_failures"),
                           r.GetHistogram("client.verify_us"),
                           r.GetHistogram("client.stage.reveal_verify_us"),
                           r.GetHistogram("client.stage.mrkd_replay_us"),
                           r.GetHistogram("client.stage.bovw_check_us"),
                           r.GetHistogram("client.stage.inv_verify_us"),
                           r.GetHistogram("client.stage.inv_prepare_us"),
                           r.GetHistogram("client.stage.sig_verify_us"),
                           r.GetHistogram("client.vo.reveal_bytes"),
                           r.GetHistogram("client.vo.tree_bytes"),
                           r.GetHistogram("client.vo.inv_bytes"),
                           r.GetHistogram("client.vo.result_bytes")};
    }();
    return m;
  }
};

}  // namespace

Result<VerifiedResults> Client::Verify(
    const std::vector<std::vector<float>>& features, size_t k,
    const QueryVO& vo) const {
  ClientMetrics& met = ClientMetrics::Get();
  met.verifies.Add();
  met.vo_reveal_bytes.Record(vo.reveal_section.size());
  uint64_t tree_bytes = 0;
  for (const Bytes& t : vo.tree_vos) tree_bytes += t.size();
  met.vo_tree_bytes.Record(tree_bytes);
  met.vo_inv_bytes.Record(vo.inv_vo.size());
  uint64_t result_bytes = 0;
  for (const ResultImage& ri : vo.results) {
    result_bytes += ri.data.size() + ri.signature.size();
  }
  met.vo_result_bytes.Record(result_bytes);

  obs::ScopedTimer total_timer(met.verify_us);
  Result<VerifiedResults> out = VerifyImpl(features, k, vo);
  if (!out.ok()) met.verify_failures.Add();
  return out;
}

Result<VerifiedResults> Client::VerifyImpl(
    const std::vector<std::vector<float>>& features, size_t k,
    const QueryVO& vo) const {
  VerifiedResults out;
  const Config& config = params_.config;
  const size_t dims = params_.dims;
  const size_t nq = features.size();
  ClientMetrics& met = ClientMetrics::Get();

  // ---- Step 4, parse step: on a helper thread, beside steps 1-3 ----
  // Parsing the inverted-index VO and reconstructing its list digests need
  // nothing from steps 1-3 (invindex/verify.h). The helper reads only
  // vo.inv_vo. It writes parsed_inv, parse_status and parse_exception
  // before it counts down lists_parsed, and then only inv_digests,
  // digest_exception and parse_ms, which the caller reads after the join.
  // The thread is declared after all of them, so every return path joins
  // it before they go.
  invindex::AnyParsedInvVo parsed_inv;
  Status parse_status;
  std::exception_ptr parse_exception;  // rethrown on the caller
  std::latch lists_parsed(1);
  std::vector<std::pair<mrkd::ClusterId, crypto::Digest>> inv_digests;
  std::exception_ptr digest_exception;
  double parse_ms = 0;
  // Step 1's timer starts before the helper does, so the helper's start and
  // the input checks below fall inside a caller stage and the five stages
  // sum to the whole verify.
  obs::ScopedTimer reveal_timer(met.reveal_verify_us);
  std::jthread parse_thread([&] {
    obs::ScopedTimer prepare_timer(met.inv_prepare_us);
    Stopwatch parse_timer;
    try {
      parse_status = invindex::ParseInvVo(
          config.freq_grouped ? invindex::EntryKind::kGroup
                              : invindex::EntryKind::kPosting,
          vo.inv_vo, config.with_filters, &parsed_inv);
    } catch (...) {
      parse_exception = std::current_exception();
    }
    lists_parsed.count_down();
    if (parse_status.ok() && !parse_exception) {
      try {
        invindex::DigestInvVo(parsed_inv, &inv_digests);
      } catch (...) {
        digest_exception = std::current_exception();
      }
    }
    parse_ms = parse_timer.ElapsedMillis();
  });
  Stopwatch bovw_timer;

  for (const auto& f : features) {
    if (f.size() != dims) {
      return Result<VerifiedResults>::Error("client: feature dims mismatch");
    }
  }
  if (vo.thresholds_sq.size() != nq) {
    return Result<VerifiedResults>::Error("client: threshold count mismatch");
  }
  for (double t : vo.thresholds_sq) {
    if (!(t >= 0) || !std::isfinite(t)) {
      return Result<VerifiedResults>::Error("client: invalid threshold");
    }
  }

  // ---- Step 1: candidate reveals -> commitments + distance evidence ----
  std::vector<mrkd::ClusterReveal> reveals;
  {
    ByteReader r(vo.reveal_section);
    Status s = mrkd::DeserializeReveals(r, dims, &reveals);
    if (!s.ok()) return s;
    if (!r.AtEnd()) {
      return Result<VerifiedResults>::Error("client: trailing reveal bytes");
    }
  }
  mrkd::CommitmentTable commitments;
  std::vector<std::pair<mrkd::ClusterId, const mrkd::ClusterReveal*>>
      reveal_of;  // sorted by cluster id, like commitments
  {
    std::vector<crypto::Digest> digests;
    Status s = mrkd::VerifyReveals(config.reveal_mode, dims, reveals, &digests);
    if (!s.ok()) return s;
    std::vector<size_t> order(reveals.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return reveals[a].id < reveals[b].id;
    });
    commitments.reserve(reveals.size());
    reveal_of.reserve(reveals.size());
    for (size_t i : order) {
      if (!commitments.empty() && commitments.back().first == reveals[i].id) {
        return Result<VerifiedResults>::Error(
            "client: duplicate cluster reveal");
      }
      commitments.emplace_back(reveals[i].id, digests[i]);
      reveal_of.emplace_back(reveals[i].id, &reveals[i]);
    }
  }

  reveal_timer.Stop();

  // ---- Step 2: MRKD replay + root signature ----
  obs::ScopedTimer replay_timer(met.mrkd_replay_us);
  std::vector<const float*> queries(nq);
  for (size_t i = 0; i < nq; ++i) queries[i] = features[i].data();

  if (vo.tree_vos.size() != static_cast<size_t>(config.forest.num_trees)) {
    return Result<VerifiedResults>::Error("client: wrong number of tree VOs");
  }
  // Per feature, every tree's candidates; sorted and de-duplicated below.
  std::vector<std::vector<mrkd::ClusterId>> candidates(nq);
  // The union of the trees' leaf digests, sorted by cluster id.
  std::vector<std::pair<mrkd::ClusterId, crypto::Digest>> list_digests, merged;
  mrkd::ForestReplay replay(dims, commitments, queries, vo.thresholds_sq,
                            config.share_nodes);
  for (const Bytes& tree_vo : vo.tree_vos) {
    ByteReader r(tree_vo);
    mrkd::TreeVerifyOutput tv;
    Status s = replay.AddTree(r, &tv);
    if (!s.ok()) return s;
    if (!r.AtEnd()) {
      return Result<VerifiedResults>::Error("client: trailing tree VO bytes");
    }
    for (size_t i = 0; i < nq; ++i) {
      candidates[i].insert(candidates[i].end(), tv.candidates[i].begin(),
                           tv.candidates[i].end());
    }
    merged.clear();
    auto prev = list_digests.begin();
    for (const auto& [c, d] : tv.list_digests) {
      while (prev != list_digests.end() && prev->first < c) {
        merged.push_back(*prev++);
      }
      if (prev != list_digests.end() && prev->first == c) {
        if (prev->second != d) {
          return Result<VerifiedResults>::Error(
              "client: conflicting list digests across trees");
        }
        ++prev;
      }
      merged.emplace_back(c, d);
    }
    merged.insert(merged.end(), prev, list_digests.end());
    list_digests.swap(merged);
  }
  std::vector<crypto::Digest> tree_roots;
  if (Status s = replay.Finish(&tree_roots); !s.ok()) return s;
  crypto::DigestBuilder roots;
  for (const crypto::Digest& root : tree_roots) roots.AddDigest(root);
  crypto::RsaVerifier verifier(params_.public_key);
  out.root_digest = roots.Finalize();
  if (!verifier.Verify(out.root_digest, params_.root_signature)) {
    return Result<VerifiedResults>::Error(
        "client: ADS root signature verification failed");
  }

  replay_timer.Stop();

  // ---- Step 3: BoVW encoding ----
  obs::ScopedTimer bovw_check_timer(met.bovw_check_us);
  std::vector<bovw::ClusterId> assignment(nq);
  std::vector<const mrkd::ClusterReveal*> candidate_reveals;
  for (size_t i = 0; i < nq; ++i) {
    std::vector<mrkd::ClusterId>& cands = candidates[i];
    std::sort(cands.begin(), cands.end());
    cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
    if (cands.empty()) {
      return Result<VerifiedResults>::Error(
          "client: no candidate cluster for a feature vector");
    }
    // Nearest among fully revealed candidates.
    bool have_full = false;
    double best = 0;
    mrkd::ClusterId best_c = 0;
    candidate_reveals.clear();
    for (mrkd::ClusterId c : cands) {
      const mrkd::ClusterReveal* const* found = mrkd::FindCluster(reveal_of, c);
      if (found == nullptr) {
        return Result<VerifiedResults>::Error(
            "client: candidate missing from reveal section");
      }
      const mrkd::ClusterReveal* rev = *found;
      candidate_reveals.push_back(rev);
      if (!rev->full) continue;
      double d = ann::SquaredL2(queries[i], rev->coords.data(), dims);
      if (!have_full || d < best || (d == best && c < best_c)) {
        best = d;
        best_c = c;
        have_full = true;
      }
    }
    if (!have_full) {
      return Result<VerifiedResults>::Error(
          "client: no fully revealed candidate for a feature vector");
    }
    if (best > vo.thresholds_sq[i]) {
      return Result<VerifiedResults>::Error(
          "client: assigned cluster outside the search threshold");
    }
    // Every partially revealed candidate must be provably farther.
    for (const mrkd::ClusterReveal* rev : candidate_reveals) {
      if (rev->full) continue;
      double lb = mrkd::PartialDistanceSq(queries[i], rev->dim_indices,
                                          rev->dim_values);
      if (lb <= best) {
        return Result<VerifiedResults>::Error(
            "client: partial candidate not provably farther than assignment");
      }
    }
    assignment[i] = best_c;
  }
  bovw::BovwVector query_bovw = bovw::CountAssignments(assignment);
  bovw_check_timer.Stop();
  out.client_bovw_ms = bovw_timer.ElapsedMillis();

  // ---- Step 4, B_Q step: once the lists are parsed ----
  // It runs while the helper may still be reconstructing the digests; the
  // cross-check against the MRKD leaves waits for the join.
  obs::ScopedTimer inv_verify_timer(met.inv_verify_us);
  lists_parsed.wait();
  Stopwatch check_timer;  // the caller's share; parse_ms is the helper's
  if (parse_exception) std::rethrow_exception(parse_exception);
  if (!parse_status.ok()) return parse_status;
  std::vector<ImageId> claimed;
  claimed.reserve(vo.results.size());
  for (const ResultImage& ri : vo.results) claimed.push_back(ri.id);

  invindex::InvVerifyResult inv;
  Status s = invindex::CheckInvVo(&parsed_inv, query_bovw, claimed, k, &inv);
  if (!s.ok()) return s;
  const double check_ms = check_timer.ElapsedMillis();

  parse_thread.join();
  Stopwatch inv_timer;
  if (digest_exception) std::rethrow_exception(digest_exception);
  // Cross-check the reconstructed list digests against the MRKD-anchored
  // ones. Every support cluster is an assigned cluster, hence a candidate,
  // hence present in some revealed leaf.
  for (const auto& [c, digest] : inv_digests) {
    const crypto::Digest* anchored = mrkd::FindCluster(list_digests, c);
    if (anchored == nullptr) {
      return Result<VerifiedResults>::Error(
          "client: support cluster not authenticated by any MRKD leaf");
    }
    if (*anchored != digest) {
      return Result<VerifiedResults>::Error(
          "client: inverted-list digest mismatch (tampered posting data)");
    }
  }
  parsed_inv = {};  // free the parsed lists inside this stage

  inv_verify_timer.Stop();

  // ---- Step 5: image payload signatures ----
  obs::ScopedTimer sig_timer(met.sig_verify_us);
  for (const ResultImage& ri : vo.results) {
    if (!config.sign_images && ri.signature.empty()) continue;  // bench mode
    if (!verifier.Verify(ImageDigest(ri.id, ri.data), ri.signature)) {
      return Result<VerifiedResults>::Error(
          "client: image signature verification failed");
    }
  }

  sig_timer.Stop();

  out.topk = inv.topk;
  out.topk_scores_exact = inv.topk_exact;
  for (const auto& si : out.topk) {
    for (const ResultImage& ri : vo.results) {
      if (ri.id == si.id) {
        out.images.push_back(ri.data);
        break;
      }
    }
  }
  out.client_inv_ms = parse_ms + check_ms + inv_timer.ElapsedMillis();
  return out;
}

}  // namespace imageproof::core
