// Micro-benchmarks for the cuckoo filter: insert/lookup/delete throughput,
// the MaxCount (Algorithm 2) scan vs. the incremental tracker, and the
// bounds engines those feed: the SP's incremental engine (pop replay and
// the condition-2 sweep) and the final-state engine the client verifies
// with (pop replay and its one check).

#include <benchmark/benchmark.h>

#include "bench/micro_util.h"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <type_traits>
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

// Full MaxCount scan over many filters (what a naive per-check
// implementation would pay).
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
    benchmark::DoNotOptimize(MaxCountGamma(ptrs));
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

  // Feeds every pop to a fresh engine in canonical order.
  template <class Engine>
  Engine Replay() const {
    std::vector<invindex::BoundsList> bl;
    for (const List& l : lists) bl.push_back({0, l.q_impact, l.filter});
    auto make = [&] {
      if constexpr (std::is_same_v<Engine, invindex::FinalBounds>) {
        return invindex::FinalBounds(std::move(bl), /*use_filters=*/true,
                                     Pops());
      } else {
        return invindex::BoundsEngine(std::move(bl), /*use_filters=*/true);
      }
    };
    Engine engine = make();
    for (size_t li = 0; li < lists.size(); ++li) {
      const List& l = lists[li];
      for (size_t j = 0; j < l.popped; ++j) {
        const auto& [id, impact] = l.postings[j];
        Status st = engine.AddPopped(li, id, impact);
        (void)st;  // the stream is impact-ordered with no repeats per list
      }
      if (l.popped == l.postings.size()) engine.MarkExhausted(li);
    }
    return engine;
  }

  // S^L and S^U of every popped image by the textbook evaluation of
  // Eqs. (9) and (11): per-list popped sets, filters queried by id, terms
  // summed in list order. `scored` is the engine's popped-image count.
  template <class Engine>
  bool MatchesReference(const Engine& engine, size_t scored) const {
    std::vector<std::set<invindex::ImageId>> popped(lists.size());
    std::vector<std::optional<CuckooFilter>> filters;
    std::map<invindex::ImageId, double> scores;
    for (size_t li = 0; li < lists.size(); ++li) {
      filters.push_back(lists[li].filter);
      for (size_t j = 0; j < lists[li].popped; ++j) {
        const auto& [id, impact] = lists[li].postings[j];
        popped[li].insert(id);
        scores[id] += lists[li].q_impact * impact;
        if (filters[li]) filters[li]->Delete(id);
      }
    }
    if (scores.size() != scored) return false;
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

  bool IncrementalMatches() const {
    const auto engine = Replay<invindex::BoundsEngine>();
    return MatchesReference(engine, engine.Scores().size());
  }
  bool FinalMatches() const {
    const auto engine = Replay<invindex::FinalBounds>();
    return MatchesReference(engine, engine.NumImages());
  }
};

// Engine construction (filter copies, MaxCount tracker) plus the replay of
// every pop in canonical order: what the SP's incremental engine pays.
void BM_BoundsReplay(benchmark::State& state) {
  const PopStream stream(static_cast<size_t>(state.range(0)));
  if (!stream.IncrementalMatches()) {
    state.SkipWithError("bounds engine disagrees with the reference");
    return;
  }
  for (auto _ : state) {
    auto engine = stream.Replay<invindex::BoundsEngine>();
    benchmark::DoNotOptimize(engine.Gamma());
  }
  state.SetItemsProcessed(state.iterations() * stream.Pops());
}
BENCHMARK(BM_BoundsReplay)->Arg(10)->Arg(80);

// Condition 2 over every scored image: S^U(I) against s_k^L, with s_k^L
// above every bound so the sweep never stops early.
void BM_BoundsCondition2Sweep(benchmark::State& state) {
  const PopStream stream(static_cast<size_t>(state.range(0)));
  if (!stream.IncrementalMatches()) {
    state.SkipWithError("bounds engine disagrees with the reference");
    return;
  }
  const auto engine = stream.Replay<invindex::BoundsEngine>();
  const double sk_lower = std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    size_t violators = 0;
    for (const auto& [id, img] : engine.Scores()) {
      violators += engine.SUpper(id) > sk_lower;
    }
    benchmark::DoNotOptimize(violators);
  }
  state.SetItemsProcessed(state.iterations() * engine.Scores().size());
}
BENCHMARK(BM_BoundsCondition2Sweep)->Arg(10)->Arg(80);

// The final-state engine's construction and canonical replay plus its one
// MaxCount scan: what each verifier run pays up front.
void BM_FinalBoundsReplay(benchmark::State& state) {
  const PopStream stream(static_cast<size_t>(state.range(0)));
  if (!stream.FinalMatches()) {
    state.SkipWithError("final-state engine disagrees with the reference");
    return;
  }
  for (auto _ : state) {
    auto engine = stream.Replay<invindex::FinalBounds>();
    benchmark::DoNotOptimize(engine.Gamma());
  }
  state.SetItemsProcessed(state.iterations() * stream.Pops());
}
BENCHMARK(BM_FinalBoundsReplay)->Arg(10)->Arg(80);

// The final-state engine's one check for the best ten images: the top-k
// selection, then pi^U with its MaxCount scan, then (if condition 1 holds)
// the condition-2 sweep. The label names the check that decided.
void BM_FinalBoundsCheck(benchmark::State& state) {
  const PopStream stream(static_cast<size_t>(state.range(0)));
  if (!stream.FinalMatches()) {
    state.SkipWithError("final-state engine disagrees with the reference");
    return;
  }
  const auto engine = stream.Replay<invindex::FinalBounds>();
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
BENCHMARK(BM_FinalBoundsCheck)->Arg(10)->Arg(80);

}  // namespace

IMAGEPROOF_MICRO_BENCH_MAIN("micro_cuckoo");
