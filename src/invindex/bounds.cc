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
// ListBounds
// ---------------------------------------------------------------------------

ListBounds::ListBounds(std::vector<BoundsList> lists, bool use_filters)
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

Status ListBounds::CheckOrder(size_t li, double impact, double cap) const {
  const ListState& l = lists_[li];
  if (l.exhausted) {
    return Status::Error("bounds: popped posting after list exhausted");
  }
  if (impact < 0 || cap < 0) return Status::Error("bounds: negative impact");
  if (cap > l.cap || impact > cap) {
    return Status::Error("bounds: postings not in impact order");
  }
  return Status::Ok();
}

Status ListBounds::Record(size_t li, uint64_t* row, double* score,
                          const cuckoo::Probe& probe, double impact,
                          double cap, uint32_t* bucket) {
  uint64_t& word = row[li / 64];
  const uint64_t bit = uint64_t{1} << (li % 64);
  if ((word & bit) != 0) {
    return Status::Error("bounds: image popped twice in one list");
  }
  word |= bit;
  ListState& l = lists_[li];
  l.cap = cap;
  *score += l.q_impact * impact;
  if (Filtered(li) && !l.filter->Delete(probe, bucket)) {
    return Status::Error("bounds: popped image missing from cuckoo filter");
  }
  return Status::Ok();
}

std::vector<const cuckoo::CuckooFilter*> ListBounds::Filters() const {
  std::vector<const cuckoo::CuckooFilter*> filters;
  for (size_t li = 0; li < lists_.size(); ++li) {
    if (Filtered(li)) filters.push_back(&*lists_[li].filter);
  }
  return filters;
}

uint32_t ListBounds::RemainingLists() const {
  uint32_t remaining = 0;
  for (const ListState& l : lists_) remaining += !l.exhausted;
  return remaining;
}

double ListBounds::PiUpper(uint32_t gamma) const {
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

cuckoo::Probe ListBounds::ProbeOf(ImageId id) const {
  return probe_list_ ? lists_[*probe_list_].filter->ProbeOf(id)
                     : cuckoo::Probe{};
}

bool ListBounds::MayHold(size_t li, const uint64_t* popped,
                         const cuckoo::Probe& probe) const {
  const ListState& l = lists_[li];
  if (l.exhausted) return false;
  if (popped != nullptr && RowHas(popped, li)) return false;
  return !use_filters_ || !l.filter.has_value() || l.filter->Contains(probe);
}

std::vector<size_t> ListBounds::PossibleLists(
    const uint64_t* popped, const cuckoo::Probe& probe) const {
  std::vector<size_t> out;
  for (size_t li = 0; li < lists_.size(); ++li) {
    if (MayHold(li, popped, probe)) out.push_back(li);
  }
  return out;
}

double ListBounds::SUpper(double score, const uint64_t* popped,
                          const cuckoo::Probe& probe) const {
  double bound = score;
  for (size_t li = 0; li < lists_.size(); ++li) {
    if (MayHold(li, popped, probe)) bound += lists_[li].q_impact * Cap(li);
  }
  return bound;
}

// ---------------------------------------------------------------------------
// BoundsEngine
// ---------------------------------------------------------------------------

BoundsEngine::BoundsEngine(std::vector<BoundsList> lists, bool use_filters)
    : ListBounds(std::move(lists), use_filters) {
  if (use_filters_) tracker_.emplace(Filters());
}

Status BoundsEngine::AddPopped(size_t li, ImageId id, double impact,
                               double cap) {
  Status s = CheckOrder(li, impact, cap);
  if (!s.ok()) return s;
  auto [it, inserted] = scores_.try_emplace(id);
  PoppedImage& img = it->second;
  if (inserted) {
    img.row = static_cast<uint32_t>(scores_.size() - 1);
    popped_bits_.resize(popped_bits_.size() + words_, 0);
    img.probe = ProbeOf(id);
  }
  uint32_t bucket = 0;
  s = Record(li, popped_bits_.data() + static_cast<size_t>(img.row) * words_,
             &img.score, img.probe, impact, cap, &bucket);
  if (s.ok() && Filtered(li)) tracker_->OnDelete(bucket, img.probe.fingerprint);
  return s;
}

double BoundsEngine::ScoreOf(ImageId id) const {
  auto it = scores_.find(id);
  return it == scores_.end() ? 0.0 : it->second.score;
}

bool BoundsEngine::PoppedIn(size_t li, ImageId id) const {
  auto it = scores_.find(id);
  return it != scores_.end() && RowHas(PoppedRow(it->second), li);
}

uint32_t BoundsEngine::Gamma() const {
  const uint32_t remaining = RemainingLists();
  if (!use_filters_) return remaining;
  return std::min(tracker_->Gamma(), remaining);
}

std::vector<size_t> BoundsEngine::PossibleLists(ImageId id) const {
  auto it = scores_.find(id);
  if (it == scores_.end()) {
    return ListBounds::PossibleLists(nullptr, ProbeOf(id));
  }
  return ListBounds::PossibleLists(PoppedRow(it->second), it->second.probe);
}

double BoundsEngine::SUpper(ImageId id) const {
  auto it = scores_.find(id);
  if (it == scores_.end()) return ListBounds::SUpper(0.0, nullptr, ProbeOf(id));
  return ListBounds::SUpper(it->second.score, PoppedRow(it->second),
                            it->second.probe);
}

std::optional<ImageId> BoundsEngine::FirstViolator(const IdSet& claimed,
                                                   double sk_lower) const {
  for (const auto& [id, img] : scores_) {
    if (claimed.contains(id)) continue;
    if (ListBounds::SUpper(img.score, PoppedRow(img), img.probe) > sk_lower) {
      return id;
    }
  }
  return std::nullopt;
}

bool VerifyClaimedTopK(const BoundsEngine& engine,
                       const std::vector<ImageId>& claimed, double* sk_lower) {
  const auto& scores = engine.Scores();
  // The claimed ids must all have been popped.
  for (ImageId id : claimed) {
    if (!scores.contains(id)) return false;
  }
  // k best by (score desc, id asc) among popped images.
  std::vector<std::pair<double, ImageId>> ranked;
  ranked.reserve(scores.size());
  for (const auto& [id, img] : scores) ranked.emplace_back(img.score, id);
  auto better = [](const std::pair<double, ImageId>& a,
                   const std::pair<double, ImageId>& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  };
  size_t k = claimed.size();
  if (k > ranked.size()) return false;
  std::partial_sort(ranked.begin(), ranked.begin() + k, ranked.end(), better);

  std::vector<ImageId> best(k);
  for (size_t i = 0; i < k; ++i) best[i] = ranked[i].second;
  std::vector<ImageId> claimed_sorted = claimed;
  std::sort(best.begin(), best.end());
  std::sort(claimed_sorted.begin(), claimed_sorted.end());
  if (best != claimed_sorted) return false;

  *sk_lower = k == 0 ? 0.0 : ranked[k - 1].first;
  return true;
}

// ---------------------------------------------------------------------------
// FinalBounds
// ---------------------------------------------------------------------------

FinalBounds::FinalBounds(std::vector<BoundsList> lists, bool use_filters,
                         size_t max_images)
    : ListBounds(std::move(lists), use_filters) {
  Rehash(max_images);
  ids_.reserve(max_images);
  scores_.reserve(max_images);
  probes_.reserve(max_images);
  bits_.reserve(max_images * words_);
}

void FinalBounds::Rehash(size_t n) {
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

Status FinalBounds::AddPopped(size_t li, ImageId id, double impact,
                              double cap) {
  Status s = CheckOrder(li, impact, cap);
  if (!s.ok()) return s;
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
  uint32_t bucket = 0;
  return Record(li, bits_.data() + static_cast<size_t>(i) * words_,
                &scores_[i], probes_[i], impact, cap, &bucket);
}

double FinalBounds::ScoreOf(ImageId id) const {
  const uint32_t i = Find(id);
  return i == kNone ? 0.0 : scores_[i];
}

bool FinalBounds::PoppedIn(size_t li, ImageId id) const {
  const uint32_t i = Find(id);
  return i != kNone && RowHas(Row(i), li);
}

uint32_t FinalBounds::Gamma() const {
  const uint32_t remaining = RemainingLists();
  if (!use_filters_) return remaining;
  return std::min(cuckoo::MaxCountGamma(Filters()), remaining);
}

double FinalBounds::SUpper(ImageId id) const {
  const uint32_t i = Find(id);
  if (i == kNone) return ListBounds::SUpper(0.0, nullptr, ProbeOf(id));
  return ListBounds::SUpper(scores_[i], Row(i), probes_[i]);
}

std::vector<size_t> FinalBounds::PossibleLists(ImageId id) const {
  const uint32_t i = Find(id);
  if (i == kNone) return ListBounds::PossibleLists(nullptr, ProbeOf(id));
  return ListBounds::PossibleLists(Row(i), probes_[i]);
}

FinalBounds::Verdict FinalBounds::Check(
    const std::vector<ImageId>& claimed) const {
  // The claimed ids must all have been popped, and be exactly the k best
  // by (score desc, id asc) among the popped images.
  const size_t k = claimed.size();
  if (k > ids_.size()) return Verdict::kNotTopK;
  std::vector<uint32_t> claimed_idx(k);
  for (size_t j = 0; j < k; ++j) {
    claimed_idx[j] = Find(claimed[j]);
    if (claimed_idx[j] == kNone) return Verdict::kNotTopK;
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
  if (best != claimed_sorted) return Verdict::kNotTopK;
  // The heap's root is the worst kept entry: the k-th best.
  const double sk_lower = k == 0 ? 0.0 : heap.front().score;

  if (sk_lower < PiUpper()) return Verdict::kCondition1;

  // Condition 2: does any popped non-result's S^U exceed s_k^L? Only the
  // lists with unpopped postings add a term, so they are gathered once.
  // Every term is nonnegative, so a partial sum already above s_k^L
  // settles the image.
  std::vector<uint8_t> is_claimed(ids_.size(), 0);
  for (uint32_t i : claimed_idx) is_claimed[i] = 1;
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
  for (uint32_t i = 0; i < ids_.size(); ++i) {
    if (is_claimed[i]) continue;
    const uint64_t* row = Row(i);
    double bound = scores_[i];
    for (const Term& t : terms) {
      if (RowHas(row, t.li)) continue;
      if (t.filter != nullptr && !t.filter->Contains(probes_[i])) continue;
      bound += t.contribution;
      if (bound > sk_lower) return Verdict::kCondition2;
    }
    if (bound > sk_lower) return Verdict::kCondition2;
  }
  return Verdict::kHolds;
}

}  // namespace imageproof::invindex
