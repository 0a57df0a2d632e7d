#include "core/client.h"

#include <algorithm>
#include <map>
#include <set>

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
  ClientMetrics& met = ClientMetrics::Get();
  obs::ScopedTimer reveal_timer(met.reveal_verify_us);
  std::vector<mrkd::ClusterReveal> reveals;
  {
    ByteReader r(vo.reveal_section);
    Status s = mrkd::DeserializeReveals(r, dims, &reveals);
    if (!s.ok()) return s;
    if (!r.AtEnd()) {
      return Result<VerifiedResults>::Error("client: trailing reveal bytes");
    }
  }
  std::map<mrkd::ClusterId, crypto::Digest> commitments;
  std::map<mrkd::ClusterId, const mrkd::ClusterReveal*> reveal_of;
  {
    std::vector<crypto::Digest> digests;
    Status s = mrkd::VerifyReveals(config.reveal_mode, dims, reveals, &digests);
    if (!s.ok()) return s;
    for (size_t i = 0; i < reveals.size(); ++i) {
      if (!commitments.emplace(reveals[i].id, digests[i]).second) {
        return Result<VerifiedResults>::Error(
            "client: duplicate cluster reveal");
      }
      reveal_of[reveals[i].id] = &reveals[i];
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
  std::vector<std::set<mrkd::ClusterId>> candidates(nq);
  std::map<mrkd::ClusterId, crypto::Digest> list_digests;
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
      candidates[i].insert(tv.candidates[i].begin(), tv.candidates[i].end());
    }
    for (const auto& [c, d] : tv.list_digests) {
      auto [it, inserted] = list_digests.emplace(c, d);
      if (!inserted && it->second != d) {
        return Result<VerifiedResults>::Error(
            "client: conflicting list digests across trees");
      }
    }
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
  for (size_t i = 0; i < nq; ++i) {
    if (candidates[i].empty()) {
      return Result<VerifiedResults>::Error(
          "client: no candidate cluster for a feature vector");
    }
    // Nearest among fully revealed candidates.
    bool have_full = false;
    double best = 0;
    mrkd::ClusterId best_c = 0;
    for (mrkd::ClusterId c : candidates[i]) {
      auto it = reveal_of.find(c);
      if (it == reveal_of.end()) {
        return Result<VerifiedResults>::Error(
            "client: candidate missing from reveal section");
      }
      if (!it->second->full) continue;
      double d = ann::SquaredL2(queries[i], it->second->coords.data(), dims);
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
    for (mrkd::ClusterId c : candidates[i]) {
      const mrkd::ClusterReveal* rev = reveal_of[c];
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

  // ---- Step 4: inverted-index VO ----
  Stopwatch inv_timer;
  obs::ScopedTimer inv_verify_timer(met.inv_verify_us);
  std::vector<ImageId> claimed;
  claimed.reserve(vo.results.size());
  for (const ResultImage& ri : vo.results) claimed.push_back(ri.id);

  invindex::InvVerifyResult inv;
  Status s = invindex::VerifyInvVo(
      config.freq_grouped ? invindex::EntryKind::kGroup
                          : invindex::EntryKind::kPosting,
      vo.inv_vo, query_bovw, claimed, k, config.with_filters, &inv);
  if (!s.ok()) return s;

  // Cross-check the reconstructed list digests against the MRKD-anchored
  // ones. Every support cluster is an assigned cluster, hence a candidate,
  // hence present in some revealed leaf.
  for (const auto& [c, digest] : inv.list_digests) {
    auto it = list_digests.find(c);
    if (it == list_digests.end()) {
      return Result<VerifiedResults>::Error(
          "client: support cluster not authenticated by any MRKD leaf");
    }
    if (it->second != digest) {
      return Result<VerifiedResults>::Error(
          "client: inverted-list digest mismatch (tampered posting data)");
    }
  }

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
  out.client_inv_ms = inv_timer.ElapsedMillis();
  return out;
}

}  // namespace imageproof::core
