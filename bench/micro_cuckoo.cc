// Micro-benchmarks for the cuckoo filter: insert/lookup/delete throughput,
// the MaxCount (Algorithm 2) scan vs. the incremental tracker, and the
// bounds engine those feed: a replay in the SP's pop order (gamma asked
// between pop steps), a replay in the canonical order the client and the
// SP's last check use, the condition-2 sweep and the one Check.

#include <benchmark/benchmark.h>

#include "bench/micro_util.h"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "cuckoo/cuckoo_filter.h"
#include "invindex/bounds.h"

namespace {

using namespace imageproof;
using namespace imageproof::cuckoo;

void BM_Insert(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  CuckooParams params = CuckooParams::ForMaxItems(n);
  for (auto _ : state) {
    CuckooFilter filter(params);
    for (uint64_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(filter.Insert(i));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Insert)->Arg(1000)->Arg(10000);

void BM_Lookup(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  CuckooParams params = CuckooParams::ForMaxItems(n);
  CuckooFilter filter(params);
  for (uint64_t i = 0; i < n; ++i) filter.Insert(i);
  uint64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Contains(probe++ % (2 * n)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Lookup)->Arg(1000)->Arg(10000);

void BM_DeleteReinsert(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  CuckooParams params = CuckooParams::ForMaxItems(n);
  CuckooFilter filter(params);
  for (uint64_t i = 0; i < n; ++i) filter.Insert(i);
  uint64_t item = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Delete(item % n));
    benchmark::DoNotOptimize(filter.Insert(item % n));
    ++item;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeleteReinsert)->Arg(1000)->Arg(10000);

// One MaxCount scan over many filters: building the tracker, which is
// what a bounds engine's first Gamma() pays (and what a naive per-check
// rescan would pay every time).
void BM_MaxCountScan(benchmark::State& state) {
  const int num_filters = static_cast<int>(state.range(0));
  CuckooParams params = CuckooParams::ForMaxItems(500);
  std::vector<CuckooFilter> filters(num_filters, CuckooFilter(params));
  Rng rng(5);
  for (auto& f : filters) {
    for (int i = 0; i < 300; ++i) f.Insert(rng.NextBounded(100000));
  }
  std::vector<const CuckooFilter*> ptrs;
  for (const auto& f : filters) ptrs.push_back(&f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxCountTracker(ptrs).Gamma());
  }
}
BENCHMARK(BM_MaxCountScan)->Arg(16)->Arg(64)->Arg(256);

// Incremental tracker: construction + a stream of deletions (what the
// bounds engine actually pays).
void BM_MaxCountTrackerDeletes(benchmark::State& state) {
  const int num_filters = static_cast<int>(state.range(0));
  CuckooParams params = CuckooParams::ForMaxItems(500);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<CuckooFilter> filters(num_filters, CuckooFilter(params));
    Rng rng(7);
    for (auto& f : filters) {
      for (int i = 0; i < 300; ++i) f.Insert(i * 13 + 1);
    }
    std::vector<const CuckooFilter*> ptrs;
    for (const auto& f : filters) ptrs.push_back(&f);
    MaxCountTracker tracker(ptrs);
    state.ResumeTiming();
    for (int f = 0; f < num_filters; ++f) {
      for (int i = 0; i < 300; ++i) {
        uint32_t bucket;
        if (filters[f].Delete(i * 13 + 1, &bucket)) {
          tracker.OnDelete(bucket, filters[f].Fingerprint(i * 13 + 1));
        }
      }
    }
    benchmark::DoNotOptimize(tracker.Gamma());
  }
  state.SetItemsProcessed(state.iterations() * num_filters * 300);
}
BENCHMARK(BM_MaxCountTrackerDeletes)->Arg(16)->Arg(64);

// A fixed synthetic PostingSearch state: `num_lists` impact-ordered lists
// over a 3000-image corpus sharing one filter geometry, each popped to a
// prefix (every fifth list to the end), about 2.4k pops in all.
struct PopStream {
  struct List {
    double q_impact = 0;
    std::vector<std::pair<invindex::ImageId, double>> postings;
    size_t popped = 0;
    std::optional<CuckooFilter> filter;  // owner state; absent if exhausted
  };
  std::vector<List> lists;

  explicit PopStream(size_t num_lists) {
    const size_t pops = 2400 / num_lists;
    CuckooParams params = CuckooParams::ForMaxItems(2 * pops);
    Rng rng(num_lists);
    for (size_t li = 0; li < num_lists; ++li) {
      List l;
      l.q_impact = 0.1 + rng.NextDouble();
      std::set<invindex::ImageId> ids;
      while (ids.size() < 2 * pops) ids.insert(rng.NextBounded(3000));
      for (invindex::ImageId id : ids) {
        l.postings.emplace_back(id, 0.01 + rng.NextDouble());
      }
      std::sort(l.postings.begin(), l.postings.end(),
                [](const auto& a, const auto& b) {
                  return a.second > b.second;
                });
      l.popped = li % 5 == 4 ? l.postings.size() : pops;
      if (l.popped < l.postings.size()) {
        l.filter.emplace(params);
        for (const auto& p : l.postings) l.filter->Insert(p.first);
      }
      lists.push_back(std::move(l));
    }
  }

  size_t Pops() const {
    size_t pops = 0;
    for (const List& l : lists) pops += l.popped;
    return pops;
  }

  // One pop: posting `j` of list `li`.
  using Pop = std::pair<size_t, size_t>;

  // Every pop, list-major in prefix order: the canonical order.
  std::vector<Pop> Canonical() const {
    std::vector<Pop> pops;
    for (size_t li = 0; li < lists.size(); ++li) {
      for (size_t j = 0; j < lists[li].popped; ++j) pops.emplace_back(li, j);
    }
    return pops;
  }

  // Every pop in a search-like order: each step pops up to 16 postings of
  // one list drawn at random, each list still in prefix order.
  std::vector<Pop> SearchOrder() const {
    std::vector<Pop> pops;
    std::vector<size_t> next(lists.size(), 0);
    std::vector<size_t> open;
    Rng rng(lists.size() * 7 + 1);
    for (;;) {
      open.clear();
      for (size_t li = 0; li < lists.size(); ++li) {
        if (next[li] < lists[li].popped) open.push_back(li);
      }
      if (open.empty()) return pops;
      const size_t li = open[rng.NextBounded(open.size())];
      for (size_t i = 0; i < 16 && next[li] < lists[li].popped; ++i) {
        pops.emplace_back(li, next[li]++);
      }
    }
  }

  // Feeds `pops` to a fresh engine. With `gamma_every` > 0 the feed asks
  // for gamma before every `gamma_every` pops, as the SP's condition-1 loop
  // does between pop steps.
  invindex::Bounds Replay(const std::vector<Pop>& pops,
                          size_t gamma_every = 0) const {
    std::vector<invindex::BoundsList> bl;
    for (const List& l : lists) bl.push_back({0, l.q_impact, l.filter});
    invindex::Bounds engine(std::move(bl), /*use_filters=*/true, Pops());
    for (size_t p = 0; p < pops.size(); ++p) {
      if (gamma_every > 0 && p % gamma_every == 0) {
        benchmark::DoNotOptimize(engine.Gamma());
      }
      const auto& [li, j] = pops[p];
      const auto& [id, impact] = lists[li].postings[j];
      Status st = engine.AddPopped(li, id, impact);
      (void)st;  // the stream is impact-ordered with no repeats per list
    }
    for (size_t li = 0; li < lists.size(); ++li) {
      if (lists[li].popped == lists[li].postings.size()) {
        engine.MarkExhausted(li);
      }
    }
    return engine;
  }

  // The engine after `pops` (fed with `gamma_every`) against the textbook
  // evaluation of Eqs. (9) and (11): per-list popped sets, filters queried
  // by id, S^L summed in pop order, S^U terms summed in list order; and
  // gamma against a rescan of the final filters.
  bool MatchesReference(const std::vector<Pop>& pops,
                        size_t gamma_every) const {
    const invindex::Bounds engine = Replay(pops, gamma_every);
    std::vector<std::set<invindex::ImageId>> popped(lists.size());
    std::vector<std::optional<CuckooFilter>> filters;
    std::vector<const CuckooFilter*> live;
    std::map<invindex::ImageId, double> scores;
    for (const List& l : lists) filters.push_back(l.filter);
    for (const auto& [li, j] : pops) {
      const auto& [id, impact] = lists[li].postings[j];
      popped[li].insert(id);
      scores[id] += lists[li].q_impact * impact;
      if (filters[li]) filters[li]->Delete(id);
    }
    for (const auto& f : filters) {
      if (f) live.push_back(&*f);
    }
    uint32_t remaining = 0;
    for (const List& l : lists) remaining += l.popped < l.postings.size();
    const uint32_t gamma = MaxCountTracker(live).Gamma();
    if (engine.Gamma() != std::min(gamma, remaining)) return false;
    if (scores.size() != engine.NumImages()) return false;
    for (const auto& [id, score] : scores) {
      double bound = score;
      if (engine.ScoreOf(id) != score) return false;
      for (size_t li = 0; li < lists.size(); ++li) {
        const List& l = lists[li];
        if (l.popped == l.postings.size() || popped[li].contains(id)) continue;
        if (filters[li] && !filters[li]->Contains(id)) continue;
        bound += l.q_impact * l.postings[l.popped - 1].second;
      }
      if (bound != engine.SUpper(id)) return false;
    }
    return true;
  }
};

// Engine construction (filter copies) and every pop in a search-like
// order, asking for gamma before each 16-pop step: the MaxCount tracker is
// built at the first ask and follows every later deletion. What the SP's
// search engine pays.
void BM_BoundsPopOrderReplay(benchmark::State& state) {
  const PopStream stream(static_cast<size_t>(state.range(0)));
  const std::vector<PopStream::Pop> pops = stream.SearchOrder();
  if (!stream.MatchesReference(pops, 16)) {
    state.SkipWithError("bounds engine disagrees with the reference");
    return;
  }
  for (auto _ : state) {
    auto engine = stream.Replay(pops, 16);
    benchmark::DoNotOptimize(engine.Gamma());
  }
  state.SetItemsProcessed(state.iterations() * stream.Pops());
}
BENCHMARK(BM_BoundsPopOrderReplay)->Arg(10)->Arg(80);

// Engine construction and every pop in canonical order, then gamma once:
// what each verifier run, and each SP last check, pays up front.
void BM_BoundsCanonicalReplay(benchmark::State& state) {
  const PopStream stream(static_cast<size_t>(state.range(0)));
  const std::vector<PopStream::Pop> pops = stream.Canonical();
  if (!stream.MatchesReference(pops, 0)) {
    state.SkipWithError("bounds engine disagrees with the reference");
    return;
  }
  for (auto _ : state) {
    auto engine = stream.Replay(pops);
    benchmark::DoNotOptimize(engine.Gamma());
  }
  state.SetItemsProcessed(state.iterations() * stream.Pops());
}
BENCHMARK(BM_BoundsCanonicalReplay)->Arg(10)->Arg(80);

// Condition 2 over every popped image: FirstViolator with s_k^L above
// every bound, so the sweep never stops early.
void BM_BoundsCondition2Sweep(benchmark::State& state) {
  const PopStream stream(static_cast<size_t>(state.range(0)));
  const std::vector<PopStream::Pop> pops = stream.Canonical();
  if (!stream.MatchesReference(pops, 0)) {
    state.SkipWithError("bounds engine disagrees with the reference");
    return;
  }
  const invindex::Bounds engine = stream.Replay(pops);
  const invindex::IdSet none(std::vector<invindex::ImageId>{});
  const double sk_lower = std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.FirstViolator(none, sk_lower));
  }
  state.SetItemsProcessed(state.iterations() * engine.NumImages());
}
BENCHMARK(BM_BoundsCondition2Sweep)->Arg(10)->Arg(80);

// The engine's one check for the best ten images: the claimed-top-k
// selection, then pi^U, then (if condition 1 holds) the condition-2 sweep.
// The tracker behind pi^U is built by the first Gamma(), which
// BM_BoundsCanonicalReplay times, so this loop runs on a warm engine. The
// label names the check that decided.
void BM_BoundsCheck(benchmark::State& state) {
  const PopStream stream(static_cast<size_t>(state.range(0)));
  const std::vector<PopStream::Pop> pops = stream.Canonical();
  if (!stream.MatchesReference(pops, 0)) {
    state.SkipWithError("bounds engine disagrees with the reference");
    return;
  }
  const invindex::Bounds engine = stream.Replay(pops);
  std::vector<std::pair<double, invindex::ImageId>> ranked;
  for (const PopStream::List& l : stream.lists) {
    for (size_t j = 0; j < l.popped; ++j) {
      const invindex::ImageId id = l.postings[j].first;
      ranked.emplace_back(-engine.ScoreOf(id), id);
    }
  }
  std::sort(ranked.begin(), ranked.end());
  ranked.erase(std::unique(ranked.begin(), ranked.end()), ranked.end());
  std::vector<invindex::ImageId> claimed;
  for (size_t i = 0; i < 10 && i < ranked.size(); ++i) {
    claimed.push_back(ranked[i].second);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Check(claimed));
  }
  static const char* const kVerdicts[] = {"holds", "not top-k", "condition 1",
                                          "condition 2"};
  state.SetLabel(kVerdicts[static_cast<int>(engine.Check(claimed))]);
  state.SetItemsProcessed(state.iterations() * engine.NumImages());
}
BENCHMARK(BM_BoundsCheck)->Arg(10)->Arg(80);

}  // namespace

IMAGEPROOF_MICRO_BENCH_MAIN("micro_cuckoo");
