// Merkle inverted index with cuckoo filters (Section IV-B) — the second ADS
// of ImageProof — over either entry kind of invindex/entries.h: postings
// (Definition 4) or, under Optimization B, frequency groups (Definition 6).
//
// Each cluster c with a nonzero list gets a Merkle inverted list:
//   * entries in impact order, each carrying a backward-chained digest
//       h_pos_j = h(entry_j | h_pos_{j+1}),  h_pos_{n+1} = 0^256,
//     so a VO can reveal exactly a prefix;
//   * a cuckoo filter over the list's image ids (shared geometry across all
//     lists, as Lemma 1 requires);
//   * the list digest
//       h_Gamma = h(w_c | h(Theta) | h_pos_1)           (Definitions 5 and 7)
//     which the MRKD-tree leaves embed, linking the two ADSs.
//
// `with_filters = false` builds the plain variant used by the Baseline
// scheme (Pang & Mouratidis [15] adapted): same chain, h(Theta) fixed to
// 0^256, no filters shipped or consulted.

#ifndef IMAGEPROOF_INVINDEX_MERKLE_INV_INDEX_H_
#define IMAGEPROOF_INVINDEX_MERKLE_INV_INDEX_H_

#include <optional>
#include <variant>
#include <vector>

#include "bovw/bovw.h"
#include "crypto/digest.h"
#include "cuckoo/cuckoo_filter.h"
#include "invindex/entries.h"

namespace imageproof::invindex {

// h(w | h(Theta) | h_pos1) per Definitions 5 and 7.
Digest ListDigest(double weight, const Digest& theta_digest,
                  const Digest& first_posting_digest);

template <class E>
struct InvertedList {
  ClusterId cluster = 0;
  double weight = 0.0;                 // w_c
  std::vector<E> postings;             // in E::Precedes order
  std::optional<cuckoo::CuckooFilter> filter;  // nullopt in plain mode
  Digest theta_digest;                 // h(Theta); zero in plain mode
  Digest digest;                       // h_Gamma

  bool empty() const { return postings.empty(); }
  // Digest of the first entry, or zero for an empty list.
  Digest FirstPostingDigest() const {
    return postings.empty() ? Digest::Zero() : postings.front().digest;
  }
};

template <class E>
class MerkleInvertedIndex {
 public:
  using List = InvertedList<E>;

  // Builds the full index over a corpus of (image id, BoVW vector) pairs.
  // All filters share one geometry derived from the longest list (the
  // paper's 60% sizing rule) and `filter_seed`, unless `geometry` is
  // given, which pins the exact shared CuckooParams. The geometry is part
  // of the committed (signed) state: a reload of a package whose lists
  // grew through incremental updates must rebuild under the geometry the
  // digests were derived with, not one re-sized from the current lists.
  static MerkleInvertedIndex Build(
      size_t num_clusters,
      const std::vector<std::pair<ImageId, bovw::BovwVector>>& corpus,
      const bovw::ClusterWeights& weights, bool with_filters,
      uint32_t fingerprint_bits = 8, uint64_t filter_seed = 0xF117E2,
      std::optional<cuckoo::CuckooParams> geometry = std::nullopt);

  // Reattaches a persisted index WITHOUT walking the chains — the
  // cold-start path of the mmap package store. The caller supplies fully
  // populated lists (cluster, weight, entries with their stored chain
  // digests, deserialized filter); Restore validates the ordering
  // invariants and the shared filter geometry, then recomputes only
  // h(Theta) from the filter state and h_Gamma — one hash per list instead
  // of one per entry. Stored chain digests are bound to the owner's
  // signature through h_pos1 (which h_Gamma covers), and clients re-derive
  // revealed chains on every query, so a tampered stored digest fails
  // either the open-time root check or client verification.
  static Result<MerkleInvertedIndex> Restore(
      const cuckoo::CuckooParams& geometry, bool with_filters,
      std::vector<List> lists);

  // Recomputes every chain digest from the raw entry data and compares it
  // with the stored value — the package store's deep-verify mode.
  // kCorrupted on the first mismatch.
  Status VerifyChains() const;

  bool with_filters() const { return with_filters_; }
  size_t num_clusters() const { return lists_.size(); }
  const List& list(ClusterId c) const { return lists_[c]; }
  const cuckoo::CuckooParams& filter_params() const { return filter_params_; }

  // h_Gamma per cluster, in cluster order — input to the MRKD-tree build.
  std::vector<Digest> ListDigests() const;

  // ----- Incremental updates (owner-side; see core/update.h) -----
  //
  // Weights are frozen at build time (the usual IR practice between full
  // index rebuilds), so an image touching a list changes only that list:
  // the entry edit re-hashes the invalidated chain prefix against the
  // still-valid suffix, and the filter is rebuilt deterministically with
  // the index-wide geometry. Fails if the shared filter geometry can no
  // longer hold the list (a full rebuild is then required).
  Status ApplyInsert(ClusterId c, ImageId id, uint32_t freq, double norm);
  Status ApplyRemove(ClusterId c, ImageId id);

 private:
  // Rebuilds the filter, recomputes the chain prefix [0, upto) against the
  // suffix anchor at `upto` (or the zero digest at the list end), and
  // refreshes the list digest.
  Status RepairList(List* list, size_t upto);

  bool with_filters_ = true;
  cuckoo::CuckooParams filter_params_;
  std::vector<List> lists_;
};

using PostingIndex = MerkleInvertedIndex<Posting>;
using GroupIndex = MerkleInvertedIndex<Group>;

enum class EntryKind { kPosting, kGroup };

// The index a deployment serves, its entry kind fixed at build or load
// time. Per-call operations dispatch once on the kind; everything below
// the call is the kind's template instantiation.
class InvertedIndex {
 public:
  template <class E>
  explicit InvertedIndex(MerkleInvertedIndex<E> index)
      : index_(std::move(index)) {}

  // MerkleInvertedIndex<E>::Build for the given kind.
  static InvertedIndex Build(
      EntryKind kind, size_t num_clusters,
      const std::vector<std::pair<ImageId, bovw::BovwVector>>& corpus,
      const bovw::ClusterWeights& weights, bool with_filters,
      uint32_t fingerprint_bits = 8, uint64_t filter_seed = 0xF117E2,
      std::optional<cuckoo::CuckooParams> geometry = std::nullopt);

  EntryKind kind() const {
    return std::holds_alternative<GroupIndex>(index_) ? EntryKind::kGroup
                                                      : EntryKind::kPosting;
  }
  // Calls f with the held MerkleInvertedIndex<E>.
  template <class F>
  decltype(auto) Visit(F&& f) const {
    return std::visit(std::forward<F>(f), index_);
  }
  template <class F>
  decltype(auto) Visit(F&& f) {
    return std::visit(std::forward<F>(f), index_);
  }

  const cuckoo::CuckooParams& filter_params() const {
    return Visit(
        [](const auto& i) -> const auto& { return i.filter_params(); });
  }
  double weight(ClusterId c) const {
    return Visit([c](const auto& i) { return i.list(c).weight; });
  }
  const Digest& list_digest(ClusterId c) const {
    return Visit(
        [c](const auto& i) -> const auto& { return i.list(c).digest; });
  }
  std::vector<Digest> ListDigests() const {
    return Visit([](const auto& i) { return i.ListDigests(); });
  }
  Status VerifyChains() const {
    return Visit([](const auto& i) { return i.VerifyChains(); });
  }
  Status ApplyInsert(ClusterId c, ImageId id, uint32_t freq, double norm) {
    return Visit([&](auto& i) { return i.ApplyInsert(c, id, freq, norm); });
  }
  Status ApplyRemove(ClusterId c, ImageId id) {
    return Visit([&](auto& i) { return i.ApplyRemove(c, id); });
  }

 private:
  std::variant<PostingIndex, GroupIndex> index_;
};

}  // namespace imageproof::invindex

#endif  // IMAGEPROOF_INVINDEX_MERKLE_INV_INDEX_H_
