// The bounds engine for PostingSearch (Algorithm 3) and its client-side
// verification.
//
// Both the SP (while deciding which postings to pop) and the client (while
// checking the termination conditions) must compute *identical* values for
//   s_k^L              k-th best lower-bound score of the claimed results
//   pi^U   (Eq. 12)    bound on any image not seen in the popped prefixes,
//                      via gamma from MaxCount (Algorithm 2)
//   S^U(I) (Eq. 11)    bound on a popped image's full score
// so the logic lives here, in one class, used by both sides. All state
// transitions are driven by AddPopped()/MarkExhausted(). The SP's search
// feeds one engine pop by pop, in whatever order it pops. The values
// checked are those of an engine fed in canonical order (lists sorted by
// cluster id, postings in prefix order), which makes the post-deletion
// cuckoo-filter states — and therefore every bound — bit-reproducible
// across the SP/client boundary: the client's VerifyInvVo and the SP's
// last check before it serializes a VO both run Check on such an engine,
// so "what the client will check" is the client's own code.
//
// With `use_filters = false` the engine degrades to the loose bounds of
// Eq. (10) (every remaining list may contain any image), which is the
// Baseline scheme adapted from Pang & Mouratidis [15].

#ifndef IMAGEPROOF_INVINDEX_BOUNDS_H_
#define IMAGEPROOF_INVINDEX_BOUNDS_H_

#include <limits>
#include <optional>
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

// The lists, caps and filters of one query's relevant lists, and every
// image popped from them. Each distinct image gets a dense index, in
// first-pop order, from one open-addressing table; its S^L, its cuckoo
// probe and its row of a popped-list bitset live in flat arrays under that
// index. MaxCount follows the filter deletions through a MaxCountTracker,
// built from the current filters at the first Gamma() call.
//
// Every filter handed to one engine must share one CuckooParams (Lemma 1):
// each popped image's probe is derived once and tested against all of
// them. Given filters of differing geometry, the engine ignores them and
// falls back to the loose Eq. (10) bounds, which need none.
class Bounds {
 public:
  // `max_images` sizes the tables for that many distinct popped images;
  // they grow if it is exceeded.
  Bounds(std::vector<BoundsList> lists, bool use_filters, size_t max_images);

  // Feeds the next popped posting of list `li`, in prefix order, together
  // with the new upper bound `cap` on the impact of everything still
  // unpopped in the list (for the plain impact-ordered index cap == impact;
  // for the frequency-grouped index it is the containing group's impact).
  // Guards, in order: list exhausted, negative impact, impact order (cap
  // monotonicity, impact <= cap), then, once the image is looked up,
  // popped twice in this list; then the pop is applied and the image
  // deleted from the list's filter (missing from filter). The exact posting
  // order is additionally pinned by the digest chain, so these checks are
  // consistency guards, not the only line of defense.
  Status AddPopped(size_t li, ImageId id, double impact, double cap);
  // Plain-index convenience: cap == impact.
  Status AddPopped(size_t li, ImageId id, double impact) {
    return AddPopped(li, id, impact, impact);
  }

  // Declares that every posting of list `li` has been popped.
  void MarkExhausted(size_t li) { lists_[li].exhausted = true; }
  bool Exhausted(size_t li) const { return lists_[li].exhausted; }

  // Upper bound on the impact of any unpopped posting in list `li`
  // (+infinity until the first pop; 0 once exhausted).
  double Cap(size_t li) const {
    return lists_[li].exhausted ? 0.0 : lists_[li].cap;
  }

  size_t NumImages() const { return ids_.size(); }  // distinct popped images

  // Lower-bound score S^L(Q, I) accumulated from popped postings (Eq. 9);
  // 0 for images never popped.
  double ScoreOf(ImageId id) const;
  bool PoppedIn(size_t li, ImageId id) const;

  // gamma (Algorithm 2), additionally capped by the number of lists that
  // still have unpopped postings.
  uint32_t Gamma() const;

  // pi^U (Eq. 12): sum of the gamma largest q_impact * Cap values over
  // lists with remaining postings.
  double PiUpper() const;

  // S^U(Q, I) (Eq. 11, sound form): S^L plus the remaining caps of every
  // list whose filter still reports I present (all remaining lists in
  // baseline mode) where I has not been popped, summed in list order.
  double SUpper(ImageId id) const;

  // Lists that may still contain I among their unpopped postings.
  std::vector<size_t> PossibleLists(ImageId id) const;

  // Whether `claimed` is exactly the k = claimed.size() best popped images
  // by (S^L desc, id asc); if so, *sk_lower receives s_k^L, the k-th best
  // S^L (0 for k = 0).
  bool ClaimedTopK(const std::vector<ImageId>& claimed,
                   double* sk_lower) const;

  // Condition 2 sweep: the latest-first-popped image outside `claimed`
  // whose S^U exceeds `sk_lower` (images walked in reverse first-pop
  // order); nullopt if none does.
  // The SP's condition-2 loop pops for this image, so the order is part of
  // the served VO bytes.
  std::optional<ImageId> FirstViolator(const IdSet& claimed,
                                       double sk_lower) const;

  // Which termination check the state fails, in the order checked.
  enum class Verdict {
    kHolds,
    kNotTopK,     // `claimed` is not exactly the k best popped images
    kCondition1,  // s_k^L < pi^U: an unseen image may rank higher
    kCondition2,  // a popped non-result's S^U exceeds s_k^L
  };
  // ClaimedTopK, then conditions 1 and 2.
  Verdict Check(const std::vector<ImageId>& claimed) const;

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};

  struct ListState : BoundsList {
    bool exhausted = false;
    double cap = std::numeric_limits<double>::infinity();
  };

  // Whether list `li` keeps a filter that pops delete from.
  bool Filtered(size_t li) const {
    return use_filters_ && lists_[li].filter.has_value();
  }
  cuckoo::Probe ProbeOf(ImageId id) const;
  // Whether list `li`'s unpopped suffix may still contain the image with
  // popped-list bitset row `popped` (nullptr: popped nowhere) and `probe`.
  bool MayHold(size_t li, const uint64_t* popped,
               const cuckoo::Probe& probe) const;

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
  static bool RowHas(const uint64_t* row, size_t li) {
    return ((row[li / 64] >> (li % 64)) & 1) != 0;
  }

  bool use_filters_;
  std::vector<ListState> lists_;
  size_t words_ = 0;  // bitset words per popped image: ceil(lists / 64)
  std::optional<size_t> probe_list_;  // a list whose filter derives probes
  // Follows the filters from the first Gamma() on; a cache of their
  // contents, so building it does not change the engine's state. Built in
  // place by a const call: an engine belongs to one thread.
  mutable std::optional<cuckoo::MaxCountTracker> tracker_;

  std::vector<uint32_t> slots_;  // dense index or kNone
  size_t mask_ = 0;
  unsigned shift_ = 0;
  std::vector<ImageId> ids_;           // first-pop order
  std::vector<double> scores_;         // S^L per image
  std::vector<cuckoo::Probe> probes_;  // per image
  std::vector<uint64_t> bits_;         // popped-list rows, words_ per image
};

}  // namespace imageproof::invindex

#endif  // IMAGEPROOF_INVINDEX_BOUNDS_H_
