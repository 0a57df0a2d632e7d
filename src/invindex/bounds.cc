#include "invindex/bounds.h"

#include <algorithm>

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

BoundsEngine::BoundsEngine(std::vector<BoundsList> lists, bool use_filters)
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
  if (use_filters_) {
    std::vector<const cuckoo::CuckooFilter*> filters;
    for (size_t li = 0; li < lists_.size(); ++li) {
      if (!lists_[li].filter.has_value()) continue;
      if (!probe_list_) probe_list_ = li;
      filters.push_back(&*lists_[li].filter);
    }
    tracker_.emplace(filters);
    if (!tracker_->ok()) {  // mixed geometry: no probe is shared
      tracker_.reset();
      probe_list_.reset();
      use_filters_ = false;
    }
  }
}

Status BoundsEngine::AddPopped(size_t li, ImageId id, double impact,
                               double cap) {
  ListState& l = lists_[li];
  if (l.exhausted) {
    return Status::Error("bounds: popped posting after list exhausted");
  }
  if (impact < 0 || cap < 0) return Status::Error("bounds: negative impact");
  if (cap > l.cap || impact > cap) {
    return Status::Error("bounds: postings not in impact order");
  }
  auto [it, inserted] = scores_.try_emplace(id);
  PoppedImage& img = it->second;
  if (inserted) {
    img.row = static_cast<uint32_t>(scores_.size() - 1);
    popped_bits_.resize(popped_bits_.size() + words_, 0);
    img.probe = ProbeOf(id);
  }
  uint64_t& word =
      popped_bits_[static_cast<size_t>(img.row) * words_ + li / 64];
  const uint64_t bit = uint64_t{1} << (li % 64);
  if ((word & bit) != 0) {
    return Status::Error("bounds: image popped twice in one list");
  }
  word |= bit;
  l.cap = cap;
  ++l.popped_count;
  img.score += l.q_impact * impact;

  if (use_filters_ && l.filter.has_value()) {
    uint32_t bucket = 0;
    if (!l.filter->Delete(img.probe, &bucket)) {
      return Status::Error("bounds: popped image missing from cuckoo filter");
    }
    tracker_->OnDelete(bucket, img.probe.fingerprint);
  }
  return Status::Ok();
}

void BoundsEngine::MarkExhausted(size_t li) { lists_[li].exhausted = true; }

double BoundsEngine::Cap(size_t li) const {
  const ListState& l = lists_[li];
  if (l.exhausted) return 0.0;
  return l.cap;  // +infinity until something is popped
}

double BoundsEngine::ScoreOf(ImageId id) const {
  auto it = scores_.find(id);
  return it == scores_.end() ? 0.0 : it->second.score;
}

bool BoundsEngine::PoppedIn(size_t li, ImageId id) const {
  auto it = scores_.find(id);
  if (it == scores_.end()) return false;
  return ((PoppedRow(it->second)[li / 64] >> (li % 64)) & 1) != 0;
}

uint32_t BoundsEngine::Gamma() const {
  uint32_t remaining_lists = 0;
  for (const ListState& l : lists_) {
    if (!l.exhausted) ++remaining_lists;
  }
  if (!use_filters_) return remaining_lists;
  return std::min(tracker_->Gamma(), remaining_lists);
}

double BoundsEngine::PiUpper() const {
  uint32_t gamma = Gamma();
  if (gamma == 0) return 0.0;
  std::vector<double> contributions;
  contributions.reserve(lists_.size());
  for (size_t li = 0; li < lists_.size(); ++li) {
    const ListState& l = lists_[li];
    if (l.exhausted) continue;
    double cap = Cap(li);
    contributions.push_back(l.q_impact * cap);  // may be +inf pre-pop
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

cuckoo::Probe BoundsEngine::ProbeOf(ImageId id) const {
  return probe_list_ ? lists_[*probe_list_].filter->ProbeOf(id)
                     : cuckoo::Probe{};
}

bool BoundsEngine::MayHold(size_t li, const uint64_t* popped,
                           const cuckoo::Probe& probe) const {
  const ListState& l = lists_[li];
  if (l.exhausted) return false;
  if (popped != nullptr && ((popped[li / 64] >> (li % 64)) & 1) != 0) {
    return false;
  }
  return !use_filters_ || !l.filter.has_value() || l.filter->Contains(probe);
}

std::vector<size_t> BoundsEngine::PossibleLists(ImageId id) const {
  auto it = scores_.find(id);
  const uint64_t* popped = nullptr;
  cuckoo::Probe probe;
  if (it != scores_.end()) {
    popped = PoppedRow(it->second);
    probe = it->second.probe;
  } else {
    probe = ProbeOf(id);
  }
  std::vector<size_t> out;
  for (size_t li = 0; li < lists_.size(); ++li) {
    if (MayHold(li, popped, probe)) out.push_back(li);
  }
  return out;
}

double BoundsEngine::SUpper(double score, const uint64_t* popped,
                            const cuckoo::Probe& probe) const {
  double bound = score;
  for (size_t li = 0; li < lists_.size(); ++li) {
    if (MayHold(li, popped, probe)) bound += lists_[li].q_impact * Cap(li);
  }
  return bound;
}

double BoundsEngine::SUpper(ImageId id) const {
  auto it = scores_.find(id);
  if (it == scores_.end()) return SUpper(0.0, nullptr, ProbeOf(id));
  return SUpper(it->second.score, PoppedRow(it->second), it->second.probe);
}

std::optional<ImageId> BoundsEngine::FirstViolator(const IdSet& claimed,
                                                   double sk_lower) const {
  for (const auto& [id, img] : scores_) {
    if (claimed.contains(id)) continue;
    if (SUpper(img.score, PoppedRow(img), img.probe) > sk_lower) return id;
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

}  // namespace imageproof::invindex
