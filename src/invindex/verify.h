// Client-side verification of an InvSearch VO (Section IV-B "Verification"),
// for either entry kind (invindex/entries.h).
//
// The client
//   1. parses the per-list reveals (group members come back re-sorted into
//      their canonical (norm, id) digest order) and reconstructs each list
//      digest h_Gamma from the popped entries + first-remaining digest +
//      h(Theta) — these digests are then compared (by the caller) against
//      the ones bound into the MRKD-tree leaves;
//   2. recomputes the query impacts p_{Q,c} from the verified BoVW vector
//      and the w_c values in the VO, checking the reveal discipline
//      (relevant lists have pops + filters, irrelevant ones do not);
//   3. replays every pop once, in canonical order, into the bounds engine
//      (Bounds, invindex/bounds.h), deleting popped images from the
//      shipped filters;
//   4. checks that the claimed results are exactly the k best popped images
//      and that both termination conditions hold, with Bounds::Check: the
//      same check the SP runs before it serves the VO.

#ifndef IMAGEPROOF_INVINDEX_VERIFY_H_
#define IMAGEPROOF_INVINDEX_VERIFY_H_

#include <map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "invindex/bounds.h"
#include "invindex/merkle_inv_index.h"

namespace imageproof::invindex {

using crypto::Digest;

struct InvVerifyResult {
  // Claimed results with their verified lower-bound scores, best first.
  std::vector<bovw::ScoredImage> topk;
  // Reconstructed h_Gamma for every support cluster; the caller must match
  // these against the digests authenticated by the MRKD-tree.
  std::map<ClusterId, Digest> list_digests;
  std::map<ClusterId, double> weights;  // w_c per support cluster
  size_t popped_postings = 0;
  // True when every claimed result's verified score is provably exact: no
  // unpopped suffix of any relevant list can still contain the image — its
  // post-deletion cuckoo-filter state proves absence (cuckoo filters have
  // no false negatives), or the list is exhausted. Guaranteed by an SP
  // serving with InvSearchParams::settle_exact_topk; required by the
  // sharded composite verifier (shard/composite_client.h), which merges
  // per-shard results by these scores.
  bool topk_exact = false;
};

// `query_bovw` is the client's (already verified) BoVW vector of the query;
// `claimed_topk` the SP's result ids; `requested_k` the k the client asked
// for; `expect_filters` selects ImageProof vs. Baseline VO layout; E the
// entry kind of the deployment's index. Instantiated for Posting and Group.
template <class E = Posting>
Status VerifyInvVo(const Bytes& vo, const bovw::BovwVector& query_bovw,
                   const std::vector<ImageId>& claimed_topk,
                   size_t requested_k, bool expect_filters,
                   InvVerifyResult* out);

// The same with the entry kind chosen at run time.
Status VerifyInvVo(EntryKind kind, const Bytes& vo,
                   const bovw::BovwVector& query_bovw,
                   const std::vector<ImageId>& claimed_topk,
                   size_t requested_k, bool expect_filters,
                   InvVerifyResult* out);

}  // namespace imageproof::invindex

#endif  // IMAGEPROOF_INVINDEX_VERIFY_H_
