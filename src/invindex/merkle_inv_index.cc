#include "invindex/merkle_inv_index.h"

#include <algorithm>

#include "common/parallel.h"
#include "crypto/hasher.h"
#include "invindex/chain.h"

namespace imageproof::invindex {

Digest ListDigest(double weight, const Digest& theta_digest,
                  const Digest& first_posting_digest) {
  return crypto::DigestBuilder()
      .AddF64(weight)
      .AddDigest(theta_digest)
      .AddDigest(first_posting_digest)
      .Finalize();
}

template <class E>
MerkleInvertedIndex<E> MerkleInvertedIndex<E>::Build(
    size_t num_clusters,
    const std::vector<std::pair<ImageId, bovw::BovwVector>>& corpus,
    const bovw::ClusterWeights& weights, bool with_filters,
    uint32_t fingerprint_bits, uint64_t filter_seed,
    std::optional<cuckoo::CuckooParams> geometry) {
  MerkleInvertedIndex index;
  index.with_filters_ = with_filters;
  index.lists_.resize(num_clusters);

  // Gather each cluster's occurrences as (corpus index, freq); ids and
  // norms are looked up per list, so the gather costs 16 bytes per
  // occurrence until its list is built.
  std::vector<double> norms(corpus.size());
  std::vector<std::vector<std::pair<size_t, uint32_t>>> raw(num_clusters);
  for (size_t i = 0; i < corpus.size(); ++i) {
    norms[i] = corpus[i].second.L2Norm();
    for (const auto& [c, f] : corpus[i].second.entries) {
      if (c < num_clusters) raw[c].emplace_back(i, f);
    }
  }

  if (geometry.has_value()) {
    index.filter_params_ = *geometry;
  } else {
    size_t max_len = 1;
    for (const auto& r : raw) max_len = std::max(max_len, r.size());
    index.filter_params_ = cuckoo::CuckooParams::ForMaxItems(
        max_len, fingerprint_bits, filter_seed);
  }
  const cuckoo::CuckooParams& filter_params = index.filter_params_;

  // Every list is built independently (order, filter, digest chain), so the
  // per-cluster loop parallelizes with bit-identical results. Chunked so
  // each worker can interleave the digest chains of its lists across the
  // four Keccak lanes.
  ParallelChunks(num_clusters, /*chunk=*/16, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      List& list = index.lists_[c];
      list.cluster = static_cast<ClusterId>(c);
      list.weight = weights.WeightOf(static_cast<ClusterId>(c));
      std::vector<Occurrence> occ;
      occ.reserve(raw[c].size());
      for (const auto& [i, f] : raw[c]) {
        occ.push_back({corpus[i].first, f, norms[i]});
      }
      std::vector<std::pair<size_t, uint32_t>>().swap(raw[c]);
      list.postings = E::Assemble(occ, list.weight);

      if (with_filters) {
        cuckoo::CuckooFilter filter(filter_params);
        for (const E& e : list.postings) {
          // The 60% sizing rule keeps load under ~42%, so insertion cannot
          // realistically fail; if it ever did the ADS would be unusable,
          // so treat it as a fatal construction error.
          e.ForEachMember(list.weight, [&](ImageId id, double) {
            bool ok = filter.Insert(id);
            (void)ok;
          });
        }
        list.theta_digest = filter.StateDigest();
        list.filter = std::move(filter);
      } else {
        list.theta_digest = Digest::Zero();
      }
    }

    std::vector<ChainSpan<E>> chains;
    chains.reserve(end - begin);
    for (size_t c = begin; c < end; ++c) {
      const List& list = index.lists_[c];
      chains.push_back({list.postings.data(), list.postings.size()});
    }
    WalkChains(chains.data(), chains.size(),
               [&](size_t k, size_t i, const Digest& d) {
                 index.lists_[begin + k].postings[i].digest = d;
               });
    for (size_t c = begin; c < end; ++c) {
      List& list = index.lists_[c];
      list.digest = ListDigest(list.weight, list.theta_digest,
                               list.FirstPostingDigest());
    }
  });
  return index;
}

template <class E>
Result<MerkleInvertedIndex<E>> MerkleInvertedIndex<E>::Restore(
    const cuckoo::CuckooParams& geometry, bool with_filters,
    std::vector<List> lists) {
  MerkleInvertedIndex index;
  index.with_filters_ = with_filters;
  index.filter_params_ = geometry;
  for (size_t c = 0; c < lists.size(); ++c) {
    List& list = lists[c];
    if (list.cluster != static_cast<ClusterId>(c)) {
      return Status::Corrupted("inv restore: cluster id out of place");
    }
    // The committed ordering invariants are what PostingSearch's early-exit
    // bounds rely on; a stored list violating them is corrupt regardless
    // of what its digests say.
    for (size_t i = 0; i < list.postings.size(); ++i) {
      if (!list.postings[i].WellFormed()) {
        return Status::Corrupted("inv restore: malformed entry");
      }
      if (i > 0 && !E::Precedes(list.postings[i - 1], list.postings[i],
                                list.weight)) {
        return Status::Corrupted("inv restore: entries out of order");
      }
    }
    if (with_filters) {
      if (!list.filter.has_value() || list.filter->params() != geometry) {
        return Status::Corrupted(
            "inv restore: filter missing or geometry diverges");
      }
      list.theta_digest = list.filter->StateDigest();
    } else {
      if (list.filter.has_value()) {
        return Status::Corrupted("inv restore: unexpected filter");
      }
      list.theta_digest = Digest::Zero();
    }
    list.digest =
        ListDigest(list.weight, list.theta_digest, list.FirstPostingDigest());
  }
  index.lists_ = std::move(lists);
  return index;
}

template <class E>
Status MerkleInvertedIndex<E>::VerifyChains() const {
  std::vector<ChainSpan<E>> chains;
  chains.reserve(lists_.size());
  for (const List& list : lists_) {
    chains.push_back({list.postings.data(), list.postings.size()});
  }
  bool intact = true;
  WalkChains(chains.data(), chains.size(),
             [&](size_t k, size_t i, const Digest& d) {
               intact = intact && d == lists_[k].postings[i].digest;
             });
  if (!intact) return Status::Corrupted("inv: stored chain digest diverges");
  return Status::Ok();
}

template <class E>
Status MerkleInvertedIndex<E>::RepairList(List* list, size_t upto) {
  if (with_filters_) {
    // The filter's state depends on insertion order over the whole list, so
    // it is always rebuilt in full (theta_digest must stay byte-identical
    // to a from-scratch build).
    cuckoo::CuckooFilter filter(filter_params_);
    bool fits = true;
    for (const E& e : list->postings) {
      e.ForEachMember(list->weight, [&](ImageId id, double) {
        fits = fits && filter.Insert(id);
      });
    }
    if (!fits) {
      return Status::Error(
          "inv: list outgrew the shared filter geometry; full rebuild "
          "required");
    }
    list->theta_digest = filter.StateDigest();
    list->filter = std::move(filter);
  }
  // An entry's digest depends only on the chain suffix from it onward, so
  // entries at index >= upto are still valid: anchor there and recompute
  // only the prefix.
  upto = std::min(upto, list->postings.size());
  const ChainSpan<E> prefix{list->postings.data(), upto,
                            upto < list->postings.size()
                                ? list->postings[upto].digest
                                : Digest::Zero()};
  WalkChains(&prefix, 1, [&](size_t, size_t i, const Digest& d) {
    list->postings[i].digest = d;
  });
  list->digest =
      ListDigest(list->weight, list->theta_digest, list->FirstPostingDigest());
  return Status::Ok();
}

template <class E>
Status MerkleInvertedIndex<E>::ApplyInsert(ClusterId c, ImageId id,
                                           uint32_t freq, double norm) {
  if (c >= lists_.size()) return Status::Error("inv: cluster out of range");
  if (freq == 0 || !(norm > 0)) return Status::Error("inv: bad entry values");
  List& list = lists_[c];
  for (const E& e : list.postings) {
    if (e.Contains(id)) return Status::Error("inv: image already in list");
  }
  size_t upto = E::Insert(&list.postings, {id, freq, norm}, list.weight);
  return RepairList(&list, upto);
}

template <class E>
Status MerkleInvertedIndex<E>::ApplyRemove(ClusterId c, ImageId id) {
  if (c >= lists_.size()) return Status::Error("inv: cluster out of range");
  List& list = lists_[c];
  std::optional<size_t> upto = E::Remove(&list.postings, id, list.weight);
  if (!upto.has_value()) return Status::Error("inv: image not in list");
  return RepairList(&list, *upto);
}

template <class E>
std::vector<Digest> MerkleInvertedIndex<E>::ListDigests() const {
  std::vector<Digest> out(lists_.size());
  for (size_t i = 0; i < lists_.size(); ++i) out[i] = lists_[i].digest;
  return out;
}

template class MerkleInvertedIndex<Posting>;
template class MerkleInvertedIndex<Group>;

InvertedIndex InvertedIndex::Build(
    EntryKind kind, size_t num_clusters,
    const std::vector<std::pair<ImageId, bovw::BovwVector>>& corpus,
    const bovw::ClusterWeights& weights, bool with_filters,
    uint32_t fingerprint_bits, uint64_t filter_seed,
    std::optional<cuckoo::CuckooParams> geometry) {
  if (kind == EntryKind::kGroup) {
    return InvertedIndex(GroupIndex::Build(num_clusters, corpus, weights,
                                           with_filters, fingerprint_bits,
                                           filter_seed, geometry));
  }
  return InvertedIndex(PostingIndex::Build(num_clusters, corpus, weights,
                                           with_filters, fingerprint_bits,
                                           filter_seed, geometry));
}

}  // namespace imageproof::invindex
