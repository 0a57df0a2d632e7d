// Property tests for the bounds engine: on randomized corpora and pop
// sequences, the engine's s_k^L / pi^U / S^U values must match an
// independent from-scratch evaluation of Eqs. (9), (11), (12) over the
// current revealed state — and the soundness properties of Lemma 1 must
// hold against ground truth. A textbook reference engine (per-list popped
// sets, filters queried by id) pins every output bit for bit, whether the
// engine is fed in the SP's interleaved pop order or in canonical order.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <tuple>

#include "common/random.h"
#include "invindex/bounds.h"
#include "invindex/merkle_inv_index.h"
#include "workload/synthetic.h"

namespace imageproof::invindex {
namespace {

struct RandomState {
  // Ground-truth lists: (cluster, q_impact, postings sorted by impact desc).
  struct ListTruth {
    ClusterId cluster;
    double q_impact;
    std::vector<std::pair<ImageId, double>> postings;
    size_t popped = 0;  // prefix length revealed so far
  };
  std::vector<ListTruth> lists;

  static RandomState Make(uint64_t seed, size_t num_lists, size_t num_images) {
    Rng rng(seed);
    RandomState st;
    for (size_t li = 0; li < num_lists; ++li) {
      ListTruth lt;
      lt.cluster = static_cast<ClusterId>(li);
      lt.q_impact = 0.1 + rng.NextDouble();
      size_t len = 1 + rng.NextBounded(30);
      std::set<ImageId> used;
      for (size_t j = 0; j < len; ++j) {
        ImageId id = rng.NextBounded(num_images);
        if (!used.insert(id).second) continue;
        lt.postings.emplace_back(id, 0.01 + rng.NextDouble());
      }
      std::sort(lt.postings.begin(), lt.postings.end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return a.first < b.first;
                });
      st.lists.push_back(std::move(lt));
    }
    return st;
  }
};

// One pop: posting `j` of list `li`.
using Pop = std::pair<size_t, size_t>;

// The revealed prefixes as one pop sequence. Canonical order is list-major,
// each list in prefix order (what the client replays); interleaved order
// draws the next list at random, as the SP's search moves between lists,
// while each list still pops in prefix order.
std::vector<Pop> PopSequence(const RandomState& st, bool interleaved,
                             uint64_t seed) {
  std::vector<Pop> pops;
  std::vector<size_t> next(st.lists.size(), 0);
  if (!interleaved) {
    for (size_t li = 0; li < st.lists.size(); ++li) {
      for (size_t j = 0; j < st.lists[li].popped; ++j) pops.emplace_back(li, j);
    }
    return pops;
  }
  Rng rng(seed);
  std::vector<size_t> open;
  for (;;) {
    open.clear();
    for (size_t li = 0; li < st.lists.size(); ++li) {
      if (next[li] < st.lists[li].popped) open.push_back(li);
    }
    if (open.empty()) return pops;
    const size_t li = open[rng.NextBounded(open.size())];
    pops.emplace_back(li, next[li]++);
  }
}

// Builds an engine over the state and feeds it `pops` in order. With
// `gamma_midway` it asks for gamma halfway through, as the SP's search
// does between pops, so the engine's MaxCount tracker is built mid-feed
// and follows the rest of the deletions; otherwise the tracker is built
// from the final filters, as on the client. The engine is sized for
// `max_images` distinct images (default: the pop count, which bounds them).
Bounds BuildEngine(const RandomState& st, bool use_filters,
                   const std::vector<Pop>& pops, bool gamma_midway,
                   std::optional<size_t> max_images = std::nullopt) {
  cuckoo::CuckooParams params = cuckoo::CuckooParams::ForMaxItems(64);
  std::vector<BoundsList> bl;
  for (const auto& lt : st.lists) {
    BoundsList b;
    b.cluster = lt.cluster;
    b.q_impact = lt.q_impact;
    if (use_filters && lt.popped < lt.postings.size()) {
      cuckoo::CuckooFilter filter(params);
      for (const auto& [id, impact] : lt.postings) {
        EXPECT_TRUE(filter.Insert(id));
      }
      b.filter = std::move(filter);
    }
    bl.push_back(std::move(b));
  }
  Bounds engine(std::move(bl), use_filters, max_images.value_or(pops.size()));
  for (size_t p = 0; p < pops.size(); ++p) {
    if (gamma_midway && p == pops.size() / 2) engine.Gamma();
    const auto& [li, j] = pops[p];
    const auto& [id, impact] = st.lists[li].postings[j];
    EXPECT_TRUE(engine.AddPopped(li, id, impact).ok());
  }
  for (size_t li = 0; li < st.lists.size(); ++li) {
    const auto& lt = st.lists[li];
    if (lt.popped >= lt.postings.size()) engine.MarkExhausted(li);
  }
  return engine;
}

// The same, fed in canonical order.
Bounds BuildEngine(const RandomState& st, bool use_filters) {
  return BuildEngine(st, use_filters, PopSequence(st, false, 0), false);
}

// Reference Eq. (9): S^L from the revealed prefixes only.
std::map<ImageId, double> ReferenceScores(const RandomState& st) {
  std::map<ImageId, double> scores;
  for (const auto& lt : st.lists) {
    for (size_t j = 0; j < lt.popped; ++j) {
      scores[lt.postings[j].first] += lt.q_impact * lt.postings[j].second;
    }
  }
  return scores;
}

// Reference remaining-impact cap of a list.
double ReferenceCap(const RandomState::ListTruth& lt) {
  if (lt.popped >= lt.postings.size()) return 0.0;
  if (lt.popped == 0) return std::numeric_limits<double>::infinity();
  return lt.postings[lt.popped - 1].second;
}

// Ground-truth remaining contribution of image `id` (what S^U must bound).
double TrueRemaining(const RandomState& st, ImageId id) {
  double acc = 0;
  for (const auto& lt : st.lists) {
    for (size_t j = lt.popped; j < lt.postings.size(); ++j) {
      if (lt.postings[j].first == id) acc += lt.q_impact * lt.postings[j].second;
    }
  }
  return acc;
}

class BoundsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundsPropertyTest, EngineMatchesReferenceAndIsSound) {
  uint64_t seed = GetParam();
  Rng rng(seed * 31 + 7);
  RandomState st = RandomState::Make(seed, 3 + rng.NextBounded(10), 60);

  // Random pop schedule: several rounds of popping random prefixes.
  for (int round = 0; round < 4; ++round) {
    for (auto& lt : st.lists) {
      size_t extra = rng.NextBounded(4);
      lt.popped = std::min(lt.postings.size(), lt.popped + extra);
    }
    Bounds engine = BuildEngine(st, /*use_filters=*/true);

    // S^L matches Eq. (9) exactly for every revealed image.
    auto ref_scores = ReferenceScores(st);
    EXPECT_EQ(engine.NumImages(), ref_scores.size());
    for (const auto& [id, score] : ref_scores) {
      EXPECT_NEAR(engine.ScoreOf(id), score, 1e-12) << "image " << id;
    }

    // Caps match.
    for (size_t li = 0; li < st.lists.size(); ++li) {
      double ref = ReferenceCap(st.lists[li]);
      if (std::isinf(ref)) {
        EXPECT_TRUE(std::isinf(engine.Cap(li)));
      } else {
        EXPECT_DOUBLE_EQ(engine.Cap(li), ref);
      }
    }

    bool all_capped = true;
    for (size_t li = 0; li < st.lists.size(); ++li) {
      if (std::isinf(engine.Cap(li))) all_capped = false;
    }
    if (!all_capped) continue;  // bounds are +inf; trivially sound

    // Soundness of S^U (Eq. 11): for every image (revealed or not), true
    // score <= S^U.
    std::set<ImageId> all_images;
    for (const auto& lt : st.lists) {
      for (const auto& [id, impact] : lt.postings) all_images.insert(id);
    }
    double max_unseen_true = 0;
    for (ImageId id : all_images) {
      double truth = engine.ScoreOf(id) + TrueRemaining(st, id);
      EXPECT_LE(truth, engine.SUpper(id) + 1e-12) << "image " << id;
      if (!ref_scores.contains(id)) {
        max_unseen_true = std::max(max_unseen_true, truth);
      }
    }
    // Soundness of pi^U (Eq. 12 / Lemma 1): bounds every unseen image.
    EXPECT_LE(max_unseen_true, engine.PiUpper() + 1e-12);

    // The baseline (loose) bounds dominate the filter-tightened ones.
    Bounds loose = BuildEngine(st, /*use_filters=*/false);
    for (ImageId id : all_images) {
      EXPECT_LE(engine.SUpper(id), loose.SUpper(id) + 1e-12);
    }
    EXPECT_LE(engine.PiUpper(), loose.PiUpper() + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

// The engine's state evaluated the textbook way: a std::set of popped ids
// per list, each filter queried by image id, S^L summed in pop order, S^U
// terms summed in list order, MaxCount by a full rescan of the
// post-deletion filters, condition 2 over the images in first-pop order.
class ReferenceEngine {
 public:
  ReferenceEngine(const RandomState& st, bool use_filters,
                  const std::vector<Pop>& pops)
      : use_filters_(use_filters) {
    cuckoo::CuckooParams params = cuckoo::CuckooParams::ForMaxItems(64);
    for (const auto& lt : st.lists) {
      List l;
      l.q_impact = lt.q_impact;
      l.cap = ReferenceCap(lt);
      l.exhausted = lt.popped >= lt.postings.size();
      if (use_filters && !l.exhausted) {
        l.filter.emplace(params);
        for (const auto& [id, impact] : lt.postings) l.filter->Insert(id);
      }
      lists_.push_back(std::move(l));
    }
    for (const auto& [li, j] : pops) {
      const auto& [id, impact] = st.lists[li].postings[j];
      List& l = lists_[li];
      l.popped.insert(id);
      if (!scores_.contains(id)) first_pops_.push_back(id);
      scores_[id] += l.q_impact * impact;
      if (l.filter) l.filter->Delete(id);
    }
  }

  size_t NumScored() const { return scores_.size(); }
  // The popped images in first-pop order.
  const std::vector<ImageId>& FirstPops() const { return first_pops_; }
  double ScoreOf(ImageId id) const {
    auto it = scores_.find(id);
    return it == scores_.end() ? 0.0 : it->second;
  }
  bool PoppedIn(size_t li, ImageId id) const {
    return lists_[li].popped.contains(id);
  }

  std::vector<size_t> PossibleLists(ImageId id) const {
    std::vector<size_t> out;
    for (size_t li = 0; li < lists_.size(); ++li) {
      if (MayHold(li, id)) out.push_back(li);
    }
    return out;
  }

  double SUpper(ImageId id) const {
    double bound = ScoreOf(id);
    for (size_t li = 0; li < lists_.size(); ++li) {
      if (MayHold(li, id)) bound += lists_[li].q_impact * lists_[li].cap;
    }
    return bound;
  }

  // The popped images by (score desc, id asc).
  std::vector<ImageId> Ranked() const {
    std::vector<std::pair<double, ImageId>> ranked;
    for (const auto& [id, score] : scores_) ranked.emplace_back(-score, id);
    std::sort(ranked.begin(), ranked.end());
    std::vector<ImageId> ids;
    for (const auto& [neg_score, id] : ranked) ids.push_back(id);
    return ids;
  }

  // The image outside `claimed` whose S^U exceeds `sk_lower` and whose
  // first pop came last.
  std::optional<ImageId> FirstViolator(const std::set<ImageId>& claimed,
                                       double sk_lower) const {
    for (auto it = first_pops_.rbegin(); it != first_pops_.rend(); ++it) {
      if (!claimed.contains(*it) && SUpper(*it) > sk_lower) return *it;
    }
    return std::nullopt;
  }

  // Bounds::Check evaluated the textbook way.
  Bounds::Verdict Check(const std::vector<ImageId>& claimed) const {
    const std::vector<ImageId> ranked = Ranked();
    if (claimed.size() > ranked.size()) return Bounds::Verdict::kNotTopK;
    const std::set<ImageId> best(ranked.begin(),
                                 ranked.begin() + claimed.size());
    if (best != std::set<ImageId>(claimed.begin(), claimed.end()) ||
        best.size() != claimed.size()) {
      return Bounds::Verdict::kNotTopK;
    }
    const double sk_lower =
        claimed.empty() ? 0.0 : ScoreOf(ranked[claimed.size() - 1]);
    if (sk_lower < PiUpper()) return Bounds::Verdict::kCondition1;
    if (FirstViolator(best, sk_lower)) return Bounds::Verdict::kCondition2;
    return Bounds::Verdict::kHolds;
  }

  uint32_t Gamma() const {
    uint32_t remaining = 0;
    std::map<std::pair<uint32_t, uint16_t>, uint32_t> counts;
    uint32_t max = 0;
    for (const List& l : lists_) {
      if (l.exhausted) continue;
      ++remaining;
      if (!l.filter) continue;
      const cuckoo::CuckooParams& p = l.filter->params();
      for (uint32_t b = 0; b < p.num_buckets; ++b) {
        for (uint32_t s = 0; s < p.slots_per_bucket; ++s) {
          if (l.filter->slot(b, s) == 0) continue;
          max = std::max(max, ++counts[{b, l.filter->slot(b, s)}]);
        }
      }
    }
    return use_filters_ ? std::min(2 * max, remaining) : remaining;
  }

  // Eq. (12): the gamma largest remaining contributions, summed largest
  // first; all of them, in list order, when gamma covers every list.
  double PiUpper() const {
    std::vector<double> contributions;
    for (const List& l : lists_) {
      if (!l.exhausted) contributions.push_back(l.q_impact * l.cap);
    }
    const size_t gamma = Gamma();
    if (contributions.size() > gamma) {
      std::sort(contributions.begin(), contributions.end(),
                std::greater<double>());
      contributions.resize(gamma);
    }
    double sum = 0;
    for (double c : contributions) sum += c;
    return sum;
  }

 private:
  struct List {
    double q_impact = 0;
    double cap = 0;
    bool exhausted = false;
    std::set<ImageId> popped;
    std::optional<cuckoo::CuckooFilter> filter;
  };

  bool MayHold(size_t li, ImageId id) const {
    const List& l = lists_[li];
    if (l.exhausted || l.popped.contains(id)) return false;
    return !l.filter || l.filter->Contains(id);
  }

  bool use_filters_;
  std::vector<List> lists_;
  std::map<ImageId, double> scores_;
  std::vector<ImageId> first_pops_;
};

// (number of lists, filters on). 64 lists fill one popped-list bitset word
// exactly; 65 and 130 spill into a second and third.
class BoundsReferenceTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(BoundsReferenceTest, EngineIsBitIdenticalToReference) {
  const auto [num_lists, use_filters] = GetParam();
  constexpr ImageId kImages = 60;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 977 + num_lists);
    RandomState st = RandomState::Make(seed * 131 + num_lists, num_lists,
                                       kImages);
    for (int round = 0; round < 4; ++round) {
      for (auto& lt : st.lists) {
        // Mostly a few more pops; now and then the rest of the list.
        size_t extra = rng.NextBounded(8) == 0 ? lt.postings.size()
                                               : rng.NextBounded(4);
        lt.popped = std::min(lt.postings.size(), lt.popped + extra);
      }
      for (bool interleaved : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "seed " << seed << " round " << round
                     << (interleaved ? " interleaved" : " canonical"));
        const std::vector<Pop> pops =
            PopSequence(st, interleaved, seed * 7 + round);
        // Sized for every pop or (odd rounds) grown from a one-image table;
        // gamma asked mid-feed in the SP's interleaved order.
        const Bounds engine = BuildEngine(
            st, use_filters, pops, interleaved,
            round % 2 == 1 ? std::optional<size_t>(1) : std::nullopt);
        const ReferenceEngine ref(st, use_filters, pops);

        ASSERT_EQ(engine.NumImages(), ref.NumScored());
        EXPECT_EQ(engine.Gamma(), ref.Gamma());
        EXPECT_EQ(engine.PiUpper(), ref.PiUpper());
        std::vector<double> bounds;
        for (ImageId id = 0; id < kImages; ++id) {
          EXPECT_EQ(engine.ScoreOf(id), ref.ScoreOf(id)) << "image " << id;
          EXPECT_EQ(engine.SUpper(id), ref.SUpper(id)) << "image " << id;
          EXPECT_EQ(engine.PossibleLists(id), ref.PossibleLists(id))
              << "image " << id;
          for (size_t li = 0; li < num_lists; ++li) {
            EXPECT_EQ(engine.PoppedIn(li, id), ref.PoppedIn(li, id))
                << "image " << id << " list " << li;
          }
          bounds.push_back(ref.SUpper(id));
        }

        // Condition 2: the first violator in first-pop order, with the
        // three best-scored images claimed and s_k^L at the median bound.
        const std::vector<ImageId> ranked_ids = ref.Ranked();
        const std::vector<ImageId> best3(
            ranked_ids.begin(),
            ranked_ids.begin() + std::min<size_t>(3, ranked_ids.size()));
        std::nth_element(bounds.begin(), bounds.begin() + bounds.size() / 2,
                         bounds.end());
        const double sk_lower = bounds[bounds.size() / 2];
        EXPECT_EQ(engine.FirstViolator(IdSet(best3), sk_lower),
                  ref.FirstViolator({best3.begin(), best3.end()}, sk_lower));

        // The claimed-top-k check and the whole Check, for the best 1, 3
        // and 8 images and for sets that are not the top-k (the best 3
        // with the third swapped for the fourth, and an image never
        // popped).
        std::vector<std::vector<ImageId>> claims = {{}};
        for (size_t k : {1u, 3u, 8u}) {
          if (k > ranked_ids.size()) break;
          claims.emplace_back(ranked_ids.begin(), ranked_ids.begin() + k);
        }
        if (ranked_ids.size() >= 4) {
          claims.push_back({ranked_ids[0], ranked_ids[1], ranked_ids[3]});
        }
        claims.push_back({kImages + 1});
        for (const std::vector<ImageId>& claim : claims) {
          EXPECT_EQ(engine.Check(claim), ref.Check(claim))
              << "claiming " << claim.size() << " images";
          double sk = -1;
          const bool top = engine.ClaimedTopK(claim, &sk);
          EXPECT_EQ(top, ref.Check(claim) != Bounds::Verdict::kNotTopK);
          if (top) {
            EXPECT_EQ(sk, claim.empty()
                              ? 0.0
                              : ref.ScoreOf(ranked_ids[claim.size() - 1]));
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BoundsReferenceTest,
    ::testing::Combine(::testing::Values<size_t>(1, 63, 64, 65, 130),
                       ::testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<size_t, bool>>& info) {
      return std::to_string(std::get<0>(info.param)) + "lists_" +
             (std::get<1>(info.param) ? "filters" : "baseline");
    });

// The SP's condition-2 loop pops for FirstViolator's image, so its choice
// decides served VO bytes. It must follow the pops alone: renaming every
// image by a bijection (same pops, same impacts) must pick the image at the
// same position in the pop sequence, whatever the ids hash to.
TEST(BoundsOrderTest, FirstViolatorIgnoresImageLabels) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const RandomState base = RandomState::Make(seed * 53, 12, 200);
    const std::vector<std::function<ImageId(ImageId)>> relabelings = {
        [](ImageId id) { return id; },
        [](ImageId id) { return 1000 - id; },
        [](ImageId id) { return id * 4099 + 17; },
        [](ImageId id) { return (id << 40) | 5; },
        [](ImageId id) { return id ^ 0x5555; },
    };
    std::optional<size_t> position;
    for (size_t r = 0; r < relabelings.size(); ++r) {
      RandomState st = base;
      for (auto& lt : st.lists) {
        for (auto& posting : lt.postings) {
          posting.first = relabelings[r](posting.first);
        }
        lt.popped = std::min<size_t>(lt.postings.size(), 6);
      }
      // Baseline bounds: S^U then depends on the pops, not on how the ids
      // fall into cuckoo buckets.
      const std::vector<Pop> pops = PopSequence(st, true, seed);
      const Bounds engine =
          BuildEngine(st, /*use_filters=*/false, pops, true);
      const ReferenceEngine ref(st, /*use_filters=*/false, pops);
      // Claim the first two images popped; s_k^L below most bounds, so
      // many images violate and the order decides.
      const std::vector<ImageId> claimed(ref.FirstPops().begin(),
                                         ref.FirstPops().begin() + 2);
      std::vector<double> bounds;
      for (ImageId id : ref.FirstPops()) bounds.push_back(ref.SUpper(id));
      std::sort(bounds.begin(), bounds.end());
      const double sk_lower = bounds[bounds.size() / 4];
      size_t violators = 0;
      for (ImageId id : ref.FirstPops()) {
        violators += std::find(claimed.begin(), claimed.end(), id) ==
                         claimed.end() &&
                     ref.SUpper(id) > sk_lower;
      }
      ASSERT_GE(violators, 2u);

      const std::optional<ImageId> v =
          engine.FirstViolator(IdSet(claimed), sk_lower);
      ASSERT_TRUE(v.has_value());
      const size_t at = std::find(ref.FirstPops().begin(),
                                  ref.FirstPops().end(), *v) -
                        ref.FirstPops().begin();
      if (!position) position = at;
      EXPECT_EQ(at, *position) << "relabeling " << r;
    }
  }
}

// Filters of differing geometry share no probe: the engine ignores them and
// gives exactly the loose Eq. (10) bounds instead of indexing by a probe
// derived under the wrong parameters.
TEST(BoundsEngineGeometryTest, MixedGeometryFallsBackToLooseBounds) {
  cuckoo::CuckooFilter narrow(cuckoo::CuckooParams::ForMaxItems(8));
  cuckoo::CuckooFilter wide(cuckoo::CuckooParams::ForMaxItems(500, 16));
  for (ImageId id : {1, 2, 3}) {
    ASSERT_TRUE(narrow.Insert(id));
    ASSERT_TRUE(wide.Insert(id));
  }
  auto make = [&](bool with_filters) {
    std::vector<BoundsList> lists(2);
    lists[0] = {0, 1.0, with_filters ? std::optional(narrow) : std::nullopt};
    lists[1] = {1, 0.5, with_filters ? std::optional(wide) : std::nullopt};
    Bounds engine(std::move(lists), with_filters, 2);
    EXPECT_TRUE(engine.AddPopped(0, 1, 0.9).ok());
    EXPECT_TRUE(engine.AddPopped(1, 2, 0.8).ok());
    return engine;
  };
  const Bounds mixed = make(true);
  const Bounds loose = make(false);
  EXPECT_EQ(mixed.Gamma(), loose.Gamma());
  EXPECT_EQ(mixed.PiUpper(), loose.PiUpper());
  for (ImageId id = 0; id < 8; ++id) {
    EXPECT_EQ(mixed.SUpper(id), loose.SUpper(id)) << "image " << id;
    EXPECT_EQ(mixed.PossibleLists(id), loose.PossibleLists(id));
  }
  for (const std::vector<ImageId>& claim :
       std::vector<std::vector<ImageId>>{{}, {1}, {2}, {1, 2}}) {
    EXPECT_EQ(mixed.Check(claim), loose.Check(claim));
  }
}

}  // namespace
}  // namespace imageproof::invindex
