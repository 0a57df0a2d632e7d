// Bounds engines for PostingSearch (Algorithm 3) and its client-side
// verification.
//
// Both the SP (while deciding which postings to pop) and the client (while
// checking the termination conditions) must compute *identical* values for
//   s_k^L              k-th best lower-bound score of the claimed results
//   pi^U   (Eq. 12)    bound on any image not seen in the popped prefixes,
//                      via gamma from MaxCount (Algorithm 2)
//   S^U(I) (Eq. 11)    bound on a popped image's full score
// so the logic lives here, in one place, consumed by both sides. All state
// transitions are driven by AddPopped()/MarkExhausted(), and the values
// checked are those of canonical order (lists sorted by cluster id,
// postings in prefix order), which makes the post-deletion cuckoo-filter
// states — and therefore every bound — bit-reproducible across the
// SP/client boundary.
//
// Two engines share that arithmetic (ListBounds):
//   BoundsEngine  incremental: the SP's search state, current after every
//                 pop, whatever the pop order;
//   FinalBounds   final-state: fed once in canonical order, then checked
//                 once. The client verifies with it, and the SP runs the
//                 same Check on it before serving a VO.
//
// With `use_filters = false` the engines degrade to the loose bounds of
// Eq. (10) (every remaining list may contain any image), which is the
// Baseline scheme adapted from Pang & Mouratidis [15].

#ifndef IMAGEPROOF_INVINDEX_BOUNDS_H_
#define IMAGEPROOF_INVINDEX_BOUNDS_H_

#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bovw/bovw.h"
#include "common/status.h"
#include "cuckoo/cuckoo_filter.h"

namespace imageproof::invindex {

using bovw::ClusterId;
using bovw::ImageId;

// One relevant posting list as seen by the bounds engine.
struct BoundsList {
  ClusterId cluster = 0;
  double q_impact = 0.0;  // p_{Q,c} > 0
  // The list's cuckoo filter in its *original* (owner-built) state; the
  // engine deletes popped images from a private copy. nullopt for lists
  // that are fully revealed (exhausted) or in baseline mode.
  std::optional<cuckoo::CuckooFilter> filter;
};

// The engine's record of one popped image.
struct PoppedImage {
  double score = 0.0;  // S^L(Q, I) (Eq. 9)
  uint32_t row = 0;    // row in the engine's popped-list bitset
  cuckoo::Probe probe;  // shared by every list's filter (Lemma 1)
};

// Flat open-addressing set of image ids, sized for the at most k claimed
// results: the SP's line-1 scan probes it once per relevant posting and
// every condition-2 sweep once per popped image.
class IdSet {
 public:
  explicit IdSet(const std::vector<ImageId>& ids);

  bool contains(ImageId id) const {
    for (size_t i = Home(id);; i = (i + 1) & mask_) {
      if (!slots_[i].used) return false;
      if (slots_[i].id == id) return true;
    }
  }
  size_t size() const { return size_; }  // distinct ids

 private:
  struct Slot {
    ImageId id = 0;
    bool used = false;
  };
  size_t Home(ImageId id) const {
    return static_cast<size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  unsigned shift_ = 0;
  size_t size_ = 0;
};

// Lists, caps and filters as both engines hold them, with the bound
// arithmetic that depends only on them: the pop guards, Cap, Eq. (11)'s
// per-list terms and Eq. (12)'s sum.
//
// Every filter handed to one engine must share one CuckooParams (Lemma 1):
// each popped image's probe is derived once and tested against all of
// them. Given filters of differing geometry, an engine ignores them and
// falls back to the loose Eq. (10) bounds, which need none.
class ListBounds {
 public:
  // Declares that every posting of list `li` has been popped.
  void MarkExhausted(size_t li) { lists_[li].exhausted = true; }
  bool Exhausted(size_t li) const { return lists_[li].exhausted; }

  // Upper bound on the impact of any unpopped posting in list `li`
  // (+infinity until the first pop; 0 once exhausted).
  double Cap(size_t li) const {
    return lists_[li].exhausted ? 0.0 : lists_[li].cap;
  }

 protected:
  ListBounds(std::vector<BoundsList> lists, bool use_filters);

  struct ListState : BoundsList {
    bool exhausted = false;
    double cap = std::numeric_limits<double>::infinity();
  };

  // A pop of list `li` runs both halves, so both engines guard it the same
  // way, in the same order. CheckOrder comes before the image is looked
  // up: list exhausted, negative impact, impact order. Record is given
  // the image's bitset row, S^L and probe: popped twice, then the pop is
  // applied (cap, S^L) and the image deleted from the list's filter, if
  // it keeps one (missing from filter; `*bucket` receives the bucket the
  // fingerprint left).
  Status CheckOrder(size_t li, double impact, double cap) const;
  Status Record(size_t li, uint64_t* row, double* score,
                const cuckoo::Probe& probe, double impact, double cap,
                uint32_t* bucket);
  // Whether list `li` keeps a filter that pops delete from.
  bool Filtered(size_t li) const {
    return use_filters_ && lists_[li].filter.has_value();
  }
  // Filters the pops delete from, in list order: MaxCount's input.
  std::vector<const cuckoo::CuckooFilter*> Filters() const;
  uint32_t RemainingLists() const;

  cuckoo::Probe ProbeOf(ImageId id) const;
  // Whether list `li`'s unpopped suffix may still contain the image with
  // popped-list bitset row `popped` (nullptr: popped nowhere) and `probe`.
  bool MayHold(size_t li, const uint64_t* popped,
               const cuckoo::Probe& probe) const;
  // S^U from a score, bitset row and probe, summed in list order.
  double SUpper(double score, const uint64_t* popped,
                const cuckoo::Probe& probe) const;
  std::vector<size_t> PossibleLists(const uint64_t* popped,
                                    const cuckoo::Probe& probe) const;
  // pi^U (Eq. 12) for a given gamma.
  double PiUpper(uint32_t gamma) const;

  static bool RowHas(const uint64_t* row, size_t li) {
    return ((row[li / 64] >> (li % 64)) & 1) != 0;
  }

  bool use_filters_;
  std::vector<ListState> lists_;
  size_t words_ = 0;  // bitset words per popped image: ceil(lists / 64)
  std::optional<size_t> probe_list_;  // a list whose filter derives probes
};

// The SP's incremental engine: fed pop by pop while PostingSearch decides
// what to pop next, with every bound current after each pop. MaxCount
// follows the deletions through a MaxCountTracker.
class BoundsEngine : public ListBounds {
 public:
  BoundsEngine(std::vector<BoundsList> lists, bool use_filters);

  // Feeds the next popped posting of list `li`, in prefix order, together
  // with the new upper bound `cap` on the impact of everything still
  // unpopped in the list (for the plain impact-ordered index cap == impact;
  // for the frequency-grouped index it is the containing group's impact).
  // Enforces cap monotonicity, impact <= cap, and image uniqueness, and
  // removes the image from the list's filter. The exact posting order is
  // additionally pinned by the digest chain, so these checks are
  // consistency guards, not the only line of defense.
  Status AddPopped(size_t li, ImageId id, double impact, double cap);
  // Plain-index convenience: cap == impact.
  Status AddPopped(size_t li, ImageId id, double impact) {
    return AddPopped(li, id, impact, impact);
  }

  // Lower-bound score S^L(Q, I) accumulated from popped postings (Eq. 9);
  // 0 for images never popped.
  double ScoreOf(ImageId id) const;
  // Every popped image. Its iteration order is fixed by the sequence of
  // first pops (insertions, with no reserve), and the SP's condition-2 loop
  // pops for the first violator in that order, so the order is part of
  // what makes VOs reproducible.
  const std::unordered_map<ImageId, PoppedImage>& Scores() const {
    return scores_;
  }

  bool PoppedIn(size_t li, ImageId id) const;

  // gamma (Algorithm 2), additionally capped by the number of lists that
  // still have unpopped postings.
  uint32_t Gamma() const;

  // pi^U (Eq. 12): sum of the gamma largest q_impact * Cap values over
  // lists with remaining postings.
  double PiUpper() const { return ListBounds::PiUpper(Gamma()); }

  // S^U(Q, I) (Eq. 11, sound form): S^L plus the remaining caps of every
  // list whose filter still reports I present (all remaining lists in
  // baseline mode) where I has not been popped.
  double SUpper(ImageId id) const;

  // Lists that may still contain I among their unpopped postings.
  std::vector<size_t> PossibleLists(ImageId id) const;

  // Condition 2 sweep: the first popped image outside `claimed`, in
  // Scores() order, whose S^U exceeds `sk_lower`; nullopt if none does.
  std::optional<ImageId> FirstViolator(const IdSet& claimed,
                                       double sk_lower) const;

 private:
  const uint64_t* PoppedRow(const PoppedImage& img) const {
    return popped_bits_.data() + static_cast<size_t>(img.row) * words_;
  }

  std::unordered_map<ImageId, PoppedImage> scores_;
  std::vector<uint64_t> popped_bits_;  // row-major, words_ per image
  std::optional<cuckoo::MaxCountTracker> tracker_;
};

// Helper for the SP's lazy reveals: the k-th best (score desc, id asc)
// entry's score among `ids` using the engine's lower bounds; the claimed
// result set must be exactly the k best popped images. Returns false if
// `claimed` is not that set.
bool VerifyClaimedTopK(const BoundsEngine& engine,
                       const std::vector<ImageId>& claimed, double* sk_lower);

// The final-state engine: fed every pop once, in canonical order, then
// checked once. The client's VerifyInvVo and the SP's last check before
// it serializes a VO both run Check on it, so "what the client will
// check" is the client's own code.
//
// Every value equals the incremental engine's after the same pops: AddPopped
// runs the same guards in the same order and deletes from the filters
// exactly as BoundsEngine does (the post-deletion states are those of
// canonical-order deletion), and S^L is summed list-major in prefix order.
// Only the bookkeeping differs. Each distinct image gets a dense index
// from one open-addressing table sized once from `max_images`; scores,
// probes and popped-list bitset rows live in flat arrays; gamma comes from
// one MaxCount scan of the final filters instead of a tracker.
class FinalBounds : public ListBounds {
 public:
  // `max_images` bounds the distinct images that will be popped (the
  // popped member count does); the table grows if it is exceeded.
  FinalBounds(std::vector<BoundsList> lists, bool use_filters,
              size_t max_images);

  // As BoundsEngine::AddPopped: same guards, same messages, same order.
  Status AddPopped(size_t li, ImageId id, double impact, double cap);
  Status AddPopped(size_t li, ImageId id, double impact) {
    return AddPopped(li, id, impact, impact);
  }

  size_t NumImages() const { return ids_.size(); }  // distinct popped images
  double ScoreOf(ImageId id) const;
  bool PoppedIn(size_t li, ImageId id) const;
  uint32_t Gamma() const;
  double PiUpper() const { return ListBounds::PiUpper(Gamma()); }
  double SUpper(ImageId id) const;
  std::vector<size_t> PossibleLists(ImageId id) const;

  // Which termination check the final state fails, in the order checked.
  enum class Verdict {
    kHolds,
    kNotTopK,     // `claimed` is not exactly the k best popped images
    kCondition1,  // s_k^L < pi^U: an unseen image may rank higher
    kCondition2,  // a popped non-result's S^U exceeds s_k^L
  };
  // The claimed-top-k check (s_k^L is the k-th best S^L), then conditions
  // 1 and 2, on the final state.
  Verdict Check(const std::vector<ImageId>& claimed) const;

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};

  // The table slot holding `id`, or the empty slot where it would go.
  size_t Slot(ImageId id) const {
    size_t h = static_cast<size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (slots_[h] != kNone && ids_[slots_[h]] != id) h = (h + 1) & mask_;
    return h;
  }
  // Dense index of `id`, or kNone if it was never popped.
  uint32_t Find(ImageId id) const { return slots_[Slot(id)]; }
  // Table size for `n` images, at most half full.
  void Rehash(size_t n);
  const uint64_t* Row(uint32_t i) const {
    return bits_.data() + static_cast<size_t>(i) * words_;
  }

  std::vector<uint32_t> slots_;  // dense index or kNone
  size_t mask_ = 0;
  unsigned shift_ = 0;
  std::vector<ImageId> ids_;            // first-pop order
  std::vector<double> scores_;          // S^L per image
  std::vector<cuckoo::Probe> probes_;   // per image
  std::vector<uint64_t> bits_;          // popped-list rows, words_ per image
};

}  // namespace imageproof::invindex

#endif  // IMAGEPROOF_INVINDEX_BOUNDS_H_
