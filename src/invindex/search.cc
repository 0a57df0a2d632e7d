#include "invindex/search.h"

#include <algorithm>
#include <limits>
#include <map>

#include "crypto/sha3.h"
#include "invindex/vo_compress.h"

namespace imageproof::invindex {

namespace {

// SP-side view of one relevant list during the search.
template <class E>
struct SearchList {
  const InvertedList<E>* list = nullptr;
  double q_impact = 0.0;
  size_t next_pop = 0;  // entries [0, next_pop) have been popped
};

// Feeds entry e of list li to an engine: each member with the entry's cap.
template <class E>
void AddPopped(Bounds& engine, size_t li, const E& e, double weight) {
  const double cap = e.Cap(weight);
  e.ForEachMember(weight, [&](ImageId id, double impact) {
    Status s = engine.AddPopped(li, id, impact, cap);
    (void)s;  // owner-built data always satisfies the invariants
  });
}

// Builds an engine exactly as the client will: lists in cluster order,
// pops in prefix order. `max_images` sizes it as in the constructor.
template <class E>
Bounds CanonicalEngine(const std::vector<SearchList<E>>& lists,
                       bool use_filters, size_t max_images) {
  std::vector<BoundsList> bl;
  bl.reserve(lists.size());
  for (const SearchList<E>& sl : lists) {
    BoundsList b;
    b.cluster = sl.list->cluster;
    b.q_impact = sl.q_impact;
    bool exhausted = sl.next_pop >= sl.list->postings.size();
    if (use_filters && !exhausted) b.filter = sl.list->filter;
    bl.push_back(std::move(b));
  }
  Bounds engine(std::move(bl), use_filters, max_images);
  for (size_t li = 0; li < lists.size(); ++li) {
    const SearchList<E>& sl = lists[li];
    for (size_t i = 0; i < sl.next_pop; ++i) {
      AddPopped(engine, li, sl.list->postings[i], sl.list->weight);
    }
    if (sl.next_pop >= sl.list->postings.size()) engine.MarkExhausted(li);
  }
  return engine;
}

}  // namespace

template <class E>
InvSearchResult InvSearch(const MerkleInvertedIndex<E>& index,
                          const bovw::BovwVector& query_bovw,
                          const InvSearchParams& params,
                          kern::SearchScratch* scratch) {
  InvSearchResult result;
  kern::SearchScratch local_scratch;
  kern::SearchScratch& scr = scratch ? *scratch : local_scratch;
  const bool use_filters = index.with_filters();
  const double norm = query_bovw.L2Norm();

  // Support clusters (sorted by construction of BovwVector) and the
  // relevant subset (q_impact > 0, nonempty list).
  std::vector<SearchList<E>> relevant;
  for (const auto& [c, f] : query_bovw.entries) {
    if (c >= index.num_clusters()) continue;
    const InvertedList<E>& list = index.list(c);
    double q_impact = bovw::ImpactValue(list.weight, f, norm);
    if (q_impact > 0 && !list.empty()) {
      relevant.push_back(SearchList<E>{&list, q_impact, 0});
    }
  }
  result.stats.relevant_lists = relevant.size();

  // Exact top-k by full accumulation over the relevant lists: flat
  // open-addressing accumulator (zero-alloc when warm) + bounded size-k
  // heap under the total order (score desc, id asc) — selects exactly what
  // the full sort-and-truncate this replaces selected, without
  // materializing or ordering the non-winners.
  kern::ScoreAccumulator& exact = scr.scores;
  exact.Clear();
  for (const SearchList<E>& sl : relevant) {
    for (const E& e : sl.list->postings) {
      e.ForEachMember(sl.list->weight, [&](ImageId id, double impact) {
        exact.Add(id, sl.q_impact * impact);
        ++result.stats.relevant_postings;
      });
    }
  }
  scr.score_heap.clear();
  for (size_t i = 0; i < exact.size(); ++i) {
    kern::TopKPush(scr.score_heap, params.k, {exact.value(i), exact.key(i)});
  }
  kern::TopKFinish(scr.score_heap);
  size_t k = scr.score_heap.size();
  result.topk.resize(k);
  for (size_t i = 0; i < k; ++i) {
    result.topk[i] = {scr.score_heap[i].id, scr.score_heap[i].score};
  }
  std::vector<ImageId> topk_ids;
  for (const auto& si : result.topk) topk_ids.push_back(si.id);
  const IdSet topk_set(topk_ids);

  // k == 0 asks for nothing, so nothing needs proving: emit a pop-free VO
  // (the client skips the termination conditions for an empty request).
  const bool trivial = k == 0;
  // Entries popped per condition-1, settle and re-check step.
  const size_t step = E::kBatchedPops ? params.check_batch : 1;
  auto has_topk = [&](const E& e, double weight) {
    bool found = false;
    e.ForEachMember(weight, [&](ImageId id, double) {
      found = found || topk_set.contains(id);
    });
    return found;
  };

  // Line 1 of Algorithm 3: pop everything up to the deepest top-k
  // occurrence in each list, and at least the head posting of every list so
  // every cap is finite. These pops are known up front, so the bounds
  // engine is constructed directly in the canonical (client) order with
  // them applied — one feed instead of two.
  for (size_t li = 0; !trivial && li < relevant.size(); ++li) {
    const InvertedList<E>& list = *relevant[li].list;
    size_t deepest = 0;  // pop at least one
    for (size_t i = 0; i < list.postings.size(); ++i) {
      if (has_topk(list.postings[i], list.weight)) deepest = i;
    }
    relevant[li].next_pop = deepest + 1;
    for (size_t i = 0; i <= deepest; ++i) {
      result.stats.popped_initial += list.postings[i].NumMembers();
    }
  }
  result.stats.popped_postings = result.stats.popped_initial;
  Bounds engine =
      CanonicalEngine(relevant, use_filters, result.stats.popped_initial);

  // Pops the next entry of list li; returns the image entries it revealed
  // (0 once the list is exhausted).
  auto pop_one = [&](size_t li) -> size_t {
    SearchList<E>& sl = relevant[li];
    if (sl.next_pop >= sl.list->postings.size()) return 0;
    const E& e = sl.list->postings[sl.next_pop++];
    AddPopped(engine, li, e, sl.list->weight);
    result.stats.popped_postings += e.NumMembers();
    if (sl.next_pop >= sl.list->postings.size()) engine.MarkExhausted(li);
    return e.NumMembers();
  };

  // During the search s_k^L = min lower-bound score over the claimed top-k;
  // line 1 popped every top-k occurrence, so these bounds are exact. O(k)
  // per check.
  auto sk_lower = [&]() {
    double skl = std::numeric_limits<double>::infinity();
    for (ImageId id : topk_ids) skl = std::min(skl, engine.ScoreOf(id));
    return topk_ids.empty() ? 0.0 : skl;
  };

  // Pops up to `step` entries of list li; returns the image entries
  // revealed.
  auto pop_step = [&](size_t li) {
    size_t total = 0;
    for (size_t i = 0; i < step; ++i) {
      size_t n = pop_one(li);
      if (n == 0) break;
      total += n;
    }
    return total;
  };

  // Greedy target: the list with the largest remaining contribution
  // q_impact * cap, or relevant.size() once every list is exhausted.
  auto largest_remaining = [&]() {
    size_t best = relevant.size();
    double best_val = -1;
    for (size_t li = 0; li < relevant.size(); ++li) {
      if (engine.Exhausted(li)) continue;
      double v = relevant[li].q_impact * engine.Cap(li);
      if (v > best_val) {
        best_val = v;
        best = li;
      }
    }
    return best;
  };

  // Condition 1 loop: pop from the list with the largest remaining
  // contribution until s_k^L >= pi^U.
  auto run_condition1 = [&]() {
    while (!trivial) {
      ++result.stats.condition_checks;
      if (sk_lower() >= engine.PiUpper()) break;
      size_t best = largest_remaining();
      if (best == relevant.size()) break;  // everything popped
      result.stats.popped_cond1 += pop_step(best);
    }
  };

  // Condition 2 loop: resolve every popped non-result whose upper bound
  // still exceeds s_k^L.
  auto run_condition2 = [&]() {
    while (!trivial) {
      ++result.stats.condition_checks;
      double skl = sk_lower();
      std::optional<ImageId> first = engine.FirstViolator(topk_set, skl);
      if (!first) break;
      const ImageId violator = *first;
      // Pop from the lists that may still contain the violator until its
      // bound drops or its true contribution is revealed.
      auto possible = engine.PossibleLists(violator);
      bool progressed = false;
      double skl_now = skl;
      for (size_t li : possible) {
        // Drain this list until the violator's true contribution is
        // revealed (or the list ends), re-checking its bound periodically
        // so we stop as soon as the remaining caps alone settle it.
        size_t popped_here = 0;
        while (!engine.Exhausted(li) && !engine.PoppedIn(li, violator)) {
          size_t n = pop_one(li);
          if (n == 0) break;
          result.stats.popped_cond2 += n;
          ++popped_here;
          if (popped_here % params.check_batch == 0 &&
              engine.SUpper(violator) <= skl_now) {
            break;
          }
        }
        if (popped_here > 0) progressed = true;
        if (engine.SUpper(violator) <= skl_now) break;
      }
      if (!progressed) break;  // nothing left to pop; bounds are final
    }
  };

  // Settle pass (settle_exact_topk): pop until no unpopped suffix can still
  // contain a claimed image, so every claimed score the client reconstructs
  // is exact. Filter membership only shrinks as pops delete fingerprints
  // (and the final multiset state is pop-order invariant), so settledness
  // is monotone: later condition pops can never un-settle it. Condition 1
  // also survives the extra pops (s_k^L only grows, pi^U only shrinks);
  // newly revealed non-result images are re-settled by run_condition2.
  auto run_settle = [&]() {
    while (params.settle_exact_topk && !trivial) {
      size_t pop_li = relevant.size();
      for (ImageId id : topk_ids) {
        std::vector<size_t> possible = engine.PossibleLists(id);
        if (!possible.empty()) {
          pop_li = possible.front();
          break;
        }
      }
      if (pop_li == relevant.size()) break;  // every claimed score is exact
      result.stats.popped_settle += pop_step(pop_li);
      run_condition2();
    }
  };

  run_condition1();
  run_condition2();
  run_settle();

  // Final check: the client's own check on the final state the VO will
  // reveal (same engine, same summation order). On the rare float-ordering
  // miss, keep popping the largest remaining contribution and re-check.
  while (!trivial) {
    ++result.stats.condition_checks;
    const Bounds final_state =
        CanonicalEngine(relevant, use_filters, result.stats.popped_postings);
    if (final_state.Check(topk_ids) == Bounds::Verdict::kHolds) break;
    size_t best = largest_remaining();
    if (best == relevant.size()) break;  // fully popped; conditions maximal
    pop_step(best);
  }

  // ----- VO serialization -----
  ByteWriter w;
  const bool compress = params.compress_vo;
  w.PutU8(static_cast<uint8_t>((use_filters ? 1 : 0) |
                               (compress ? kVoFlagCompressed : 0)));
  // Every support cluster appears, relevant or not.
  std::map<size_t, size_t> relevant_by_cluster;  // cluster -> index
  for (size_t li = 0; li < relevant.size(); ++li) {
    relevant_by_cluster[relevant[li].list->cluster] = li;
  }
  typename E::VoScratch codec_scratch;  // reused across lists
  w.PutVarint(query_bovw.entries.size());
  for (const auto& [c, f] : query_bovw.entries) {
    const InvertedList<E>& list = index.list(c);
    w.PutVarint(c);
    w.PutF64(list.weight);
    auto it = relevant_by_cluster.find(c);
    size_t popped = it == relevant_by_cluster.end()
                        ? 0
                        : relevant[it->second].next_pop;
    w.PutVarint(popped);
    E::PutVo(w, std::span<const E>(list.postings.data(), popped), compress,
             &codec_scratch);
    bool has_remaining = popped < list.postings.size();
    bool relevant_list = it != relevant_by_cluster.end();
    bool filter_included = use_filters && relevant_list && has_remaining;
    uint8_t flags = (has_remaining ? 1 : 0) | (filter_included ? 2 : 0);
    w.PutU8(flags);
    if (has_remaining) {
      crypto::PutDigest(w, list.postings[popped].digest);
    }
    if (use_filters) {
      if (filter_included) {
        w.PutBlob(list.filter->Serialize());
      } else {
        crypto::PutDigest(w, list.theta_digest);
      }
    }
  }
  result.vo = w.Take();
  return result;
}

template InvSearchResult InvSearch(const PostingIndex&,
                                   const bovw::BovwVector&,
                                   const InvSearchParams&,
                                   kern::SearchScratch*);
template InvSearchResult InvSearch(const GroupIndex&, const bovw::BovwVector&,
                                   const InvSearchParams&,
                                   kern::SearchScratch*);

InvSearchResult InvSearch(const InvertedIndex& index,
                          const bovw::BovwVector& query_bovw,
                          const InvSearchParams& params,
                          kern::SearchScratch* scratch) {
  return index.Visit([&](const auto& i) {
    return InvSearch(i, query_bovw, params, scratch);
  });
}

}  // namespace imageproof::invindex
