#include "invindex/bounds.h"

#include <algorithm>

namespace imageproof::invindex {

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
  if (use_filters_) {
    std::vector<const cuckoo::CuckooFilter*> filters;
    for (const ListState& l : lists_) {
      if (l.filter.has_value()) filters.push_back(&*l.filter);
    }
    tracker_.emplace(filters);
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
  if (!l.popped_ids.insert(id).second) {
    return Status::Error("bounds: image popped twice in one list");
  }
  l.cap = cap;
  ++l.popped_count;
  scores_[id] += l.q_impact * impact;

  if (use_filters_ && l.filter.has_value()) {
    uint32_t bucket = 0;
    if (!l.filter->Delete(id, &bucket)) {
      return Status::Error("bounds: popped image missing from cuckoo filter");
    }
    tracker_->OnDelete(bucket, l.filter->Fingerprint(id));
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
  return it == scores_.end() ? 0.0 : it->second;
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

bool BoundsEngine::MayHold(size_t li, ImageId id) const {
  const ListState& l = lists_[li];
  if (l.exhausted || l.popped_ids.contains(id)) return false;
  return !use_filters_ || !l.filter.has_value() || l.filter->Contains(id);
}

std::vector<size_t> BoundsEngine::PossibleLists(ImageId id) const {
  std::vector<size_t> out;
  for (size_t li = 0; li < lists_.size(); ++li) {
    if (MayHold(li, id)) out.push_back(li);
  }
  return out;
}

double BoundsEngine::SUpper(ImageId id) const {
  double bound = ScoreOf(id);
  for (size_t li = 0; li < lists_.size(); ++li) {
    if (MayHold(li, id)) bound += lists_[li].q_impact * Cap(li);
  }
  return bound;
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
  for (const auto& [id, score] : scores) ranked.emplace_back(score, id);
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
