// PostingSearch + InvSearch (Algorithms 3 and 4): SP-side top-k search over
// the Merkle inverted index and VO generation, for either entry kind
// (invindex/entries.h). Under Optimization B the same algorithms run at
// group granularity: popping a group reveals all of its member images at
// once and lowers the list's remaining cap to the group's impact.
//
// The SP first pops, for every relevant list, the prefix covering all
// occurrences of the exact top-k images (plus at least the head entry so
// every remaining-impact cap is finite), then keeps popping until both
// termination conditions hold:
//   Condition 1: s_k^L >= pi^U
//   Condition 2: s_k^L >= S^U(Q, I) for every popped I outside the top-k
// Bounds come from invindex/bounds.h — with cuckoo filters (InvSearch) or
// the loose Eq. (10) bounds (Baseline) depending on how the index was
// built. Before emitting the VO the SP re-evaluates both conditions on a
// canonically-ordered engine (exactly what the client will run), so
// floating-point summation order can never make an honest VO fail
// verification.
//
// VO layout (all canonical encodings):
//   u8   flags: bit0 use_filters, bit1 compressed (vo_compress.h)
//   varint num_lists                     -- every cluster in the query's
//   per list (cluster ascending):           BoVW support, relevant or not
//     varint cluster_id
//     f64 weight w_c
//     varint num_popped                  -- entries (postings or groups)
//     popped entries, per kind:
//       Posting, raw: per posting varint image_id, f64 impact
//       Posting, compressed (num_popped > 0): u8 list_flags (bit0 ids as
//         one group-varint zigzag-delta block, bit1 impacts as a
//         group-varint block of non-increasing IEEE-754 high words plus
//         raw low words); then the id stream, then the impact stream, with
//         per-value fallbacks (absolute varint ids / raw f64) when a bit is
//         clear
//       Group, per group: varint freq; varint num_members; then
//         raw:        members id-ascending as (varint d-gap id, f64 norm)
//         compressed: u8 group_flags (bit0 ids group-varint, bit1 norms as
//                     u32 squared values); then the id-gap stream, then the
//                     norm stream — group-varint blocks or the per-value
//                     fallbacks (LEB128 gaps / raw f64 norms)
//     u8 flags (bit0 has_remaining, bit1 filter_included)
//     [has_remaining]   digest of first unpopped entry
//     [filter_included] blob: original cuckoo filter
//     [use_filters && !filter_included] digest h(Theta)

#ifndef IMAGEPROOF_INVINDEX_SEARCH_H_
#define IMAGEPROOF_INVINDEX_SEARCH_H_

#include <vector>

#include "common/bytes.h"
#include "common/kernels.h"
#include "invindex/bounds.h"
#include "invindex/merkle_inv_index.h"

namespace imageproof::invindex {

struct InvSearchParams {
  size_t k = 10;
  // Entries popped between termination-condition re-checks (the paper's
  // batching optimization over [15], which re-checked per posting). A
  // group-kind search steps conditions 1 and settle one group at a time.
  size_t check_batch = 16;
  // Extension (off by default): serialize popped entries with
  // group-varint compression (common/varint_kernels.h). Signalled on the
  // wire by flag-byte bit 1, which pre-compression parsers reject as
  // non-canonical, so it is only enabled for clients that negotiated it
  // (net/wire.h query-frame flag). Digest material is reconstructed from
  // the decoded values, so verification is unchanged.
  bool compress_vo = false;
  // Extension (off by default): after the termination conditions hold, keep
  // popping until no unpopped suffix of any relevant list can still contain
  // a claimed top-k image (every claimed id's PossibleLists set is empty),
  // so the verified score of every claimed result is provably *exact*, not
  // just a lower bound (InvVerifyResult::topk_exact). The sharded
  // coordinator (src/shard) requires this: a composite top-k merged from
  // per-shard verified scores is only the provable global top-k when those
  // scores are exact. With filters the extra pops only fire on a cuckoo
  // false positive; without filters (Baseline) it drains every relevant
  // list, which is why sharded serving is an ImageProof-config feature.
  bool settle_exact_topk = false;
};

// Popped and relevant counts are image entries: a group counts its members.
struct InvSearchStats {
  size_t popped_postings = 0;
  size_t relevant_postings = 0;  // total image entries in relevant lists
  size_t relevant_lists = 0;
  size_t condition_checks = 0;
  // Breakdown of popped_postings by search phase.
  size_t popped_initial = 0;  // Algorithm 3 line 1 (top-k occurrences)
  size_t popped_cond1 = 0;
  size_t popped_cond2 = 0;
  size_t popped_settle = 0;  // settle_exact_topk extension

  double PoppedFraction() const {
    return relevant_postings == 0
               ? 0.0
               : static_cast<double>(popped_postings) / relevant_postings;
  }
};

struct InvSearchResult {
  std::vector<bovw::ScoredImage> topk;  // exact scores, best first
  Bytes vo;
  InvSearchStats stats;
};

// Runs the authenticated top-k search for a query BoVW vector. The bound
// mode (filters vs. loose) follows index.with_filters(). `scratch`
// (optional) supplies the reusable score accumulator and top-k heap so a
// warm exact-scoring pass allocates nothing; output is identical either
// way. Instantiated for Posting and Group.
template <class E>
InvSearchResult InvSearch(const MerkleInvertedIndex<E>& index,
                          const bovw::BovwVector& query_bovw,
                          const InvSearchParams& params,
                          kern::SearchScratch* scratch = nullptr);

// The same over the deployment's index, whichever its kind.
InvSearchResult InvSearch(const InvertedIndex& index,
                          const bovw::BovwVector& query_bovw,
                          const InvSearchParams& params,
                          kern::SearchScratch* scratch = nullptr);

}  // namespace imageproof::invindex

#endif  // IMAGEPROOF_INVINDEX_SEARCH_H_
