// Shared bounds engine for PostingSearch (Algorithm 3) and its client-side
// verification.
//
// Both the SP (while deciding which postings to pop) and the client (while
// checking the termination conditions) must compute *identical* values for
//   s_k^L              k-th best lower-bound score of the claimed results
//   pi^U   (Eq. 12)    bound on any image not seen in the popped prefixes,
//                      via gamma from MaxCount (Algorithm 2)
//   S^U(I) (Eq. 11)    bound on a popped image's full score
// so the logic lives here, in one place, consumed by both sides. All state
// transitions are driven by AddPopped()/MarkExhausted() in canonical order
// (lists sorted by cluster id, postings in prefix order), which makes the
// post-deletion cuckoo-filter states — and therefore every bound —
// bit-reproducible across the SP/client boundary.
//
// With `use_filters = false` the engine degrades to the loose bounds of
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

// Every filter handed to one engine must share one CuckooParams (Lemma 1):
// each popped image's probe is derived once and tested against all of
// them. Given filters of differing geometry, the engine ignores them and
// falls back to the loose Eq. (10) bounds, which need none.
class BoundsEngine {
 public:
  BoundsEngine(std::vector<BoundsList> lists, bool use_filters);

  size_t NumLists() const { return lists_.size(); }
  const BoundsList& list(size_t li) const { return lists_[li]; }

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

  // Declares that every posting of list `li` has been popped.
  void MarkExhausted(size_t li);
  bool Exhausted(size_t li) const { return lists_[li].exhausted; }

  // Upper bound on the impact of any unpopped posting in list `li`
  // (+infinity until the first pop; 0 once exhausted).
  double Cap(size_t li) const;

  size_t PoppedCount(size_t li) const { return lists_[li].popped_count; }

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
  double PiUpper() const;

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
  struct ListState : BoundsList {
    bool exhausted = false;
    size_t popped_count = 0;
    double cap = std::numeric_limits<double>::infinity();
  };

  cuckoo::Probe ProbeOf(ImageId id) const;
  const uint64_t* PoppedRow(const PoppedImage& img) const {
    return popped_bits_.data() + static_cast<size_t>(img.row) * words_;
  }
  // Whether list `li`'s unpopped suffix may still contain the image with
  // popped-list bitset row `popped` (nullptr: popped nowhere) and `probe`.
  bool MayHold(size_t li, const uint64_t* popped,
               const cuckoo::Probe& probe) const;
  // S^U from a score, bitset row and probe, summed in list order.
  double SUpper(double score, const uint64_t* popped,
                const cuckoo::Probe& probe) const;

  bool use_filters_;
  std::vector<ListState> lists_;
  size_t words_ = 0;  // bitset words per popped image: ceil(lists / 64)
  std::optional<size_t> probe_list_;  // a list whose filter derives probes
  std::unordered_map<ImageId, PoppedImage> scores_;
  std::vector<uint64_t> popped_bits_;  // row-major, words_ per image
  std::optional<cuckoo::MaxCountTracker> tracker_;
};

// Helper shared by SP and client: the k-th best (score desc, id asc)
// entry's score among `ids` using the engine's lower bounds; the claimed
// result set must be exactly the k best popped images. Returns false if
// `claimed` is not that set.
bool VerifyClaimedTopK(const BoundsEngine& engine,
                       const std::vector<ImageId>& claimed, double* sk_lower);

}  // namespace imageproof::invindex

#endif  // IMAGEPROOF_INVINDEX_BOUNDS_H_
