// Client: result verification (Section V-C).
//
// Given its own feature vectors, the SP's claimed top-k and the VO, the
// client checks, in order:
//   1. the candidate-reveal section (cluster commitments, Merkle subset
//      proofs under Optimization A);
//   2. every MRKD-tree VO by exact replay — reconstructing each root — and
//      the owner's signature over h(root_1 | ... | root_{n_t});
//   3. the BoVW encoding: each feature's assigned cluster is the provable
//      nearest among the authenticated candidates, within its threshold;
//   4. the inverted-index VO: list digests (cross-checked against the ones
//      the MRKD leaves authenticate), posting chains, termination
//      conditions, and that the claimed results are the top-k;
//   5. each result image's Eq. (15) signature.
// Any failure yields a Status naming the violated check. Step 4's parse
// step (invindex::ParseInvVo, then DigestInvVo) needs nothing from steps
// 1-3, so Verify runs it on a helper thread while it runs steps 1-3. Once
// the lists are parsed, the caller runs the checks that need the BoVW
// vector while the helper may still be reconstructing list digests; the
// digest cross-check follows the join. Errors keep the order above: a
// step 1-3 error first, then a parse-step error, then the rest of step 4.

#ifndef IMAGEPROOF_CORE_CLIENT_H_
#define IMAGEPROOF_CORE_CLIENT_H_

#include <vector>

#include "core/server.h"
#include "core/vo.h"

namespace imageproof::core {

struct VerifiedResults {
  // Result ids with verified lower-bound similarity scores, best first.
  std::vector<bovw::ScoredImage> topk;
  // Verified raw image payloads, aligned with `topk`.
  std::vector<Bytes> images;
  // The ADS root digest h(root_1 | ... | root_{n_t}) the VO replayed to —
  // the owner's signature in PublicParams verified over exactly this value.
  // The sharded composite verifier pins each shard's response to the root
  // digest recorded in the signed shard manifest through this field.
  crypto::Digest root_digest = crypto::Digest::Zero();
  // True when every verified score is provably exact rather than a lower
  // bound (InvVerifyResult::topk_exact) — the precondition for merging
  // results across shards.
  bool topk_scores_exact = false;
  // The paper's per-step client CPU (Figs. 9-14). client_bovw_ms is the
  // time in steps 1-3. client_inv_ms is the time in steps 4-5: the parse
  // step's time on its helper thread plus the caller's own step 4-5 work,
  // without its waits for the helper, so it stays the step's own cost.
  double client_bovw_ms = 0;
  double client_inv_ms = 0;
};

class Client {
 public:
  explicit Client(PublicParams params) : params_(std::move(params)) {}

  // Verifies a query response end to end. `features` are the client's own
  // query vectors (the same ones sent to the SP); `k` the requested k.
  Result<VerifiedResults> Verify(const std::vector<std::vector<float>>& features,
                                 size_t k, const QueryVO& vo) const;

  const PublicParams& params() const { return params_; }

 private:
  // The verification pipeline itself. Verify() wraps it with the
  // observability layer: outcome counters, per-ADS stage timers, and the
  // VO-size-by-component histograms (obs/registry.h, "client.*" names).
  Result<VerifiedResults> VerifyImpl(
      const std::vector<std::vector<float>>& features, size_t k,
      const QueryVO& vo) const;

  PublicParams params_;
};

}  // namespace imageproof::core

#endif  // IMAGEPROOF_CORE_CLIENT_H_
