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
//
// Step 1 needs nothing from the query's BoVW vector B_Q, so it is its own
// step, the parse step: ParseInvVo decodes the lists, group members and
// shipped filters, and DigestInvVo reconstructs every h_Gamma from them.
// CheckInvVo, the B_Q step, runs steps 2-4 on ParseInvVo's output; it does
// not read the digests, so it may run while DigestInvVo does. The client
// (core/client.h) runs the parse step on a helper thread while it verifies
// B_Q itself. VerifyInvVo is the two steps back to back; either way the
// errors, their order and the hashes of an accepted VO are the same.

#ifndef IMAGEPROOF_INVINDEX_VERIFY_H_
#define IMAGEPROOF_INVINDEX_VERIFY_H_

#include <limits>
#include <optional>
#include <utility>
#include <variant>
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
  // Reconstructed h_Gamma for every support cluster, ascending by cluster;
  // the caller must match these against the digests authenticated by the
  // MRKD-tree.
  std::vector<std::pair<ClusterId, Digest>> list_digests;
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

// One list of a VO after the parse step.
template <class E>
struct ParsedInvList {
  ClusterId cluster = 0;
  double weight = 0.0;
  std::vector<E> popped;
  bool has_remaining = false;
  bool filter_included = false;
  Digest first_remaining = Digest::Zero();
  Bytes filter_bytes;
  // h(Theta): the shipped digest, or the decoded filter's state digest.
  Digest theta = Digest::Zero();
  // The shipped filter in its owner-built state, once decoded.
  std::optional<cuckoo::CuckooFilter> filter;
};

// The parse step's output for entry kind E.
template <class E>
struct ParsedInvVo {
  static constexpr size_t kNoList = std::numeric_limits<size_t>::max();

  bool expect_filters = false;
  std::vector<ParsedInvList<E>> lists;
  size_t popped_postings = 0;  // members of every popped entry
  // The first shipped filter that fails to decode or breaks the shared
  // geometry: its list and error. The B_Q step reports it when its
  // per-list checks reach that list, so a list before it that fails a B_Q
  // check still wins. With such an error DigestInvVo forms no h_Gamma.
  size_t filter_error_list = kNoList;
  Status filter_error;
};

// Either entry kind, chosen at run time.
using AnyParsedInvVo = std::variant<ParsedInvVo<Posting>, ParsedInvVo<Group>>;

// The parse step's first part: the lists, group members and shipped
// filters. `expect_filters` selects ImageProof vs. Baseline VO layout.
// Instantiated for Posting and Group.
template <class E>
Status ParseInvVo(const Bytes& vo, bool expect_filters, ParsedInvVo<E>* out);
Status ParseInvVo(EntryKind kind, const Bytes& vo, bool expect_filters,
                  AnyParsedInvVo* out);

// The rest of the parse step on a successfully parsed VO: (cluster, h_Gamma)
// for every list, in VO order. It reads only the lists' clusters, weights,
// popped entries, first-remaining digests and h(Theta).
template <class E>
void DigestInvVo(const ParsedInvVo<E>& parsed,
                 std::vector<std::pair<ClusterId, Digest>>* out);
void DigestInvVo(const AnyParsedInvVo& parsed,
                 std::vector<std::pair<ClusterId, Digest>>* out);

// The B_Q step on a successfully parsed VO, whose shipped filters it moves
// into the bounds engine; it leaves out->list_digests alone. `query_bovw`
// is the client's (already verified) BoVW vector of the query;
// `claimed_topk` the SP's result ids; `requested_k` the k the client asked
// for.
template <class E>
Status CheckInvVo(ParsedInvVo<E>* parsed, const bovw::BovwVector& query_bovw,
                  const std::vector<ImageId>& claimed_topk,
                  size_t requested_k, InvVerifyResult* out);
Status CheckInvVo(AnyParsedInvVo* parsed, const bovw::BovwVector& query_bovw,
                  const std::vector<ImageId>& claimed_topk,
                  size_t requested_k, InvVerifyResult* out);

// Both steps, with E the entry kind of the deployment's index.
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
