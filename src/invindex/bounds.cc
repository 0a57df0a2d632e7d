#include "invindex/bounds.h"

#include <algorithm>

#include "common/kernels.h"

namespace imageproof::invindex {

IdSet::IdSet(const std::vector<ImageId>& ids) {
  size_t capacity = 4;
  unsigned bits = 2;
  while (capacity < 4 * ids.size()) {
    capacity <<= 1;
    ++bits;
  }
  slots_.resize(capacity);
  mask_ = capacity - 1;
  shift_ = 64 - bits;
  for (ImageId id : ids) {
    size_t i = Home(id);
    while (slots_[i].used && slots_[i].id != id) i = (i + 1) & mask_;
    if (!slots_[i].used) {
      slots_[i] = {id, true};
      ++size_;
    }
  }
}

// ---------------------------------------------------------------------------
// Bounds
// ---------------------------------------------------------------------------

Bounds::Bounds(std::vector<BoundsList> lists, bool use_filters,
               size_t max_images)
    : use_filters_(use_filters) {
  lists_.reserve(lists.size());
  for (BoundsList& l : lists) {
    ListState state;
    state.cluster = l.cluster;
    state.q_impact = l.q_impact;
    state.filter = std::move(l.filter);
    lists_.push_back(std::move(state));
  }
  words_ = (lists_.size() + 63) / 64;
  Rehash(max_images);
  ids_.reserve(max_images);
  scores_.reserve(max_images);
  probes_.reserve(max_images);
  bits_.reserve(max_images * words_);
  if (!use_filters_) return;
  for (size_t li = 0; li < lists_.size(); ++li) {
    const std::optional<cuckoo::CuckooFilter>& f = lists_[li].filter;
    if (!f.has_value()) continue;
    if (!probe_list_) {
      probe_list_ = li;
    } else if (f->params() != lists_[*probe_list_].filter->params()) {
      probe_list_.reset();  // mixed geometry: no probe is shared
      use_filters_ = false;
      return;
    }
  }
}

void Bounds::Rehash(size_t n) {
  size_t capacity = 4;
  unsigned bits = 2;
  while (capacity < 2 * n) {
    capacity <<= 1;
    ++bits;
  }
  slots_.assign(capacity, kNone);
  mask_ = capacity - 1;
  shift_ = 64 - bits;
  for (uint32_t i = 0; i < ids_.size(); ++i) slots_[Slot(ids_[i])] = i;
}

Status Bounds::AddPopped(size_t li, ImageId id, double impact, double cap) {
  ListState& l = lists_[li];
  if (l.exhausted) {
    return Status::Error("bounds: popped posting after list exhausted");
  }
  if (impact < 0 || cap < 0) return Status::Error("bounds: negative impact");
  if (cap > l.cap || impact > cap) {
    return Status::Error("bounds: postings not in impact order");
  }
  const size_t slot = Slot(id);
  uint32_t i = slots_[slot];
  if (i == kNone) {
    i = static_cast<uint32_t>(ids_.size());
    slots_[slot] = i;
    ids_.push_back(id);
    scores_.push_back(0.0);
    probes_.push_back(ProbeOf(id));
    bits_.resize(bits_.size() + words_, 0);
    if (2 * ids_.size() > slots_.size()) Rehash(2 * ids_.size());
  }
  uint64_t& word = bits_[static_cast<size_t>(i) * words_ + li / 64];
  const uint64_t bit = uint64_t{1} << (li % 64);
  if ((word & bit) != 0) {
    return Status::Error("bounds: image popped twice in one list");
  }
  word |= bit;
  l.cap = cap;
  scores_[i] += l.q_impact * impact;
  if (!Filtered(li)) return Status::Ok();
  uint32_t bucket = 0;
  if (!l.filter->Delete(probes_[i], &bucket)) {
    return Status::Error("bounds: popped image missing from cuckoo filter");
  }
  if (tracker_) tracker_->OnDelete(bucket, probes_[i].fingerprint);
  return Status::Ok();
}

cuckoo::Probe Bounds::ProbeOf(ImageId id) const {
  return probe_list_ ? lists_[*probe_list_].filter->ProbeOf(id)
                     : cuckoo::Probe{};
}

bool Bounds::MayHold(size_t li, const uint64_t* popped,
                     const cuckoo::Probe& probe) const {
  const ListState& l = lists_[li];
  if (l.exhausted) return false;
  if (popped != nullptr && RowHas(popped, li)) return false;
  return !Filtered(li) || l.filter->Contains(probe);
}

double Bounds::ScoreOf(ImageId id) const {
  const uint32_t i = Find(id);
  return i == kNone ? 0.0 : scores_[i];
}

bool Bounds::PoppedIn(size_t li, ImageId id) const {
  const uint32_t i = Find(id);
  return i != kNone && RowHas(Row(i), li);
}

uint32_t Bounds::Gamma() const {
  uint32_t remaining = 0;
  for (const ListState& l : lists_) remaining += !l.exhausted;
  if (!use_filters_) return remaining;
  if (!tracker_) {
    std::vector<const cuckoo::CuckooFilter*> filters;
    for (size_t li = 0; li < lists_.size(); ++li) {
      if (Filtered(li)) filters.push_back(&*lists_[li].filter);
    }
    tracker_.emplace(filters);
  }
  return std::min(tracker_->Gamma(), remaining);
}

double Bounds::PiUpper() const {
  const uint32_t gamma = Gamma();
  if (gamma == 0) return 0.0;
  std::vector<double> contributions;
  contributions.reserve(lists_.size());
  for (size_t li = 0; li < lists_.size(); ++li) {
    const ListState& l = lists_[li];
    if (l.exhausted) continue;
    contributions.push_back(l.q_impact * Cap(li));  // may be +inf pre-pop
  }
  if (contributions.size() > gamma) {
    std::partial_sort(contributions.begin(), contributions.begin() + gamma,
                      contributions.end(), std::greater<double>());
    contributions.resize(gamma);
  }
  double sum = 0;
  for (double c : contributions) sum += c;
  return sum;
}

double Bounds::SUpper(ImageId id) const {
  const uint32_t i = Find(id);
  const uint64_t* row = i == kNone ? nullptr : Row(i);
  const cuckoo::Probe probe = i == kNone ? ProbeOf(id) : probes_[i];
  double bound = i == kNone ? 0.0 : scores_[i];
  for (size_t li = 0; li < lists_.size(); ++li) {
    if (MayHold(li, row, probe)) bound += lists_[li].q_impact * Cap(li);
  }
  return bound;
}

std::vector<size_t> Bounds::PossibleLists(ImageId id) const {
  const uint32_t i = Find(id);
  const uint64_t* row = i == kNone ? nullptr : Row(i);
  const cuckoo::Probe probe = i == kNone ? ProbeOf(id) : probes_[i];
  std::vector<size_t> out;
  for (size_t li = 0; li < lists_.size(); ++li) {
    if (MayHold(li, row, probe)) out.push_back(li);
  }
  return out;
}

bool Bounds::ClaimedTopK(const std::vector<ImageId>& claimed,
                         double* sk_lower) const {
  // The claimed ids must all have been popped, and be exactly the k best
  // by (score desc, id asc) among the popped images.
  const size_t k = claimed.size();
  if (k > ids_.size()) return false;
  for (ImageId id : claimed) {
    if (Find(id) == kNone) return false;
  }
  std::vector<kern::ScoredEntry> heap;
  heap.reserve(k);
  for (uint32_t i = 0; i < ids_.size(); ++i) {
    kern::TopKPush(heap, k, {scores_[i], ids_[i]});
  }
  std::vector<ImageId> best(k), claimed_sorted = claimed;
  for (size_t j = 0; j < k; ++j) best[j] = heap[j].id;
  std::sort(best.begin(), best.end());
  std::sort(claimed_sorted.begin(), claimed_sorted.end());
  if (best != claimed_sorted) return false;
  // The heap's root is the worst kept entry: the k-th best.
  *sk_lower = k == 0 ? 0.0 : heap.front().score;
  return true;
}

std::optional<ImageId> Bounds::FirstViolator(const IdSet& claimed,
                                             double sk_lower) const {
  // Only the lists with unpopped postings add a term to S^U, so they are
  // gathered once. Every term is nonnegative, so a partial sum already
  // above s_k^L settles the image: the answer is S^U(I) > s_k^L exactly.
  struct Term {
    size_t li;
    double contribution;
    const cuckoo::CuckooFilter* filter;  // nullptr: may hold any image
  };
  std::vector<Term> terms;
  for (size_t li = 0; li < lists_.size(); ++li) {
    if (Exhausted(li)) continue;
    terms.push_back({li, lists_[li].q_impact * Cap(li),
                     Filtered(li) ? &*lists_[li].filter : nullptr});
  }
  // Last pop first. Like first-pop order it depends on the pops alone;
  // measured on both perfbench workloads, it pops fewer postings before
  // the conditions hold.
  for (uint32_t i = static_cast<uint32_t>(ids_.size()); i-- > 0;) {
    if (claimed.contains(ids_[i])) continue;
    const uint64_t* row = Row(i);
    double bound = scores_[i];
    if (bound > sk_lower) return ids_[i];
    for (const Term& t : terms) {
      if (RowHas(row, t.li)) continue;
      if (t.filter != nullptr && !t.filter->Contains(probes_[i])) continue;
      bound += t.contribution;
      if (bound > sk_lower) return ids_[i];
    }
  }
  return std::nullopt;
}

Bounds::Verdict Bounds::Check(const std::vector<ImageId>& claimed) const {
  double sk_lower = 0;
  if (!ClaimedTopK(claimed, &sk_lower)) return Verdict::kNotTopK;
  if (sk_lower < PiUpper()) return Verdict::kCondition1;
  if (FirstViolator(IdSet(claimed), sk_lower)) return Verdict::kCondition2;
  return Verdict::kHolds;
}

}  // namespace imageproof::invindex
