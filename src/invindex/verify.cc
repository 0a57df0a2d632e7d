#include "invindex/verify.h"

#include <algorithm>

#include "invindex/chain.h"
#include "invindex/vo_compress.h"

namespace imageproof::invindex {

namespace {

template <class E>
Status ParseLists(const Bytes& vo, bool expect_filters,
                  std::vector<ParsedInvList<E>>* out) {
  ByteReader r(vo);
  uint8_t vo_flags = 0;
  Status s = r.GetU8(&vo_flags);
  if (!s.ok()) return s;
  if (vo_flags > 3) return Status::Error("inv: non-canonical flag byte");
  const bool compressed = vo_flags & kVoFlagCompressed;
  const uint8_t use_filters = vo_flags & 1;
  if ((use_filters != 0) != expect_filters) {
    return Status::Error("inv: VO filter mode mismatch");
  }
  uint64_t num_lists;
  if (!(s = r.GetVarint(&num_lists)).ok()) return s;
  if (num_lists > r.remaining() / 10) {
    return Status::Error("inv: list count exceeds input size");
  }
  out->clear();
  out->reserve(num_lists);
  typename E::VoScratch scratch;  // reused across lists
  for (uint64_t i = 0; i < num_lists; ++i) {
    ParsedInvList<E> pl;
    uint64_t cid;
    if (!(s = r.GetVarint(&cid)).ok()) return s;
    pl.cluster = static_cast<ClusterId>(cid);
    if (!(s = r.GetF64(&pl.weight)).ok()) return s;
    uint64_t num_popped;
    if (!(s = r.GetVarint(&num_popped)).ok()) return s;
    // A count beyond what the remaining input can hold is a lie; this
    // bounds the allocation by the input size.
    if (num_popped > r.remaining() / E::MinVoBytes(compressed)) {
      return Status::Error("inv: popped count exceeds input size");
    }
    if (!(s = E::GetVo(r, num_popped, compressed, &pl.popped, &scratch))
             .ok()) {
      return s;
    }
    uint8_t flags = 0;
    if (!(s = r.GetU8(&flags)).ok()) return s;
    if (flags & ~3u) return Status::Error("inv: unknown flags");
    pl.has_remaining = flags & 1;
    pl.filter_included = flags & 2;
    if (pl.filter_included && !expect_filters) {
      return Status::Error("inv: filter shipped in baseline mode");
    }
    if (pl.has_remaining) {
      if (!(s = crypto::GetDigest(r, &pl.first_remaining)).ok()) return s;
    }
    if (expect_filters) {
      if (pl.filter_included) {
        if (!(s = r.GetBlob(&pl.filter_bytes)).ok()) return s;
      } else {
        if (!(s = crypto::GetDigest(r, &pl.theta)).ok()) return s;
      }
    }
    out->push_back(std::move(pl));
  }
  if (!r.AtEnd()) return Status::Error("inv: trailing bytes in VO");
  return Status::Ok();
}

}  // namespace

template <class E>
Status ParseInvVo(const Bytes& vo, bool expect_filters, ParsedInvVo<E>* out) {
  out->expect_filters = expect_filters;
  out->popped_postings = 0;
  out->filter_error_list = ParsedInvVo<E>::kNoList;
  out->filter_error = Status::Ok();
  std::vector<ParsedInvList<E>>& lists = out->lists;
  Status s = ParseLists(vo, expect_filters, &lists);
  if (!s.ok()) return s;
  for (const ParsedInvList<E>& pl : lists) {
    for (const E& e : pl.popped) out->popped_postings += e.NumMembers();
  }

  // Decode the shipped filters and take their h(Theta). Lemma 1: every
  // filter of one index shares one geometry. The bounds engine derives one
  // probe per image for all filters and MaxCount keys every filter by the
  // same buckets, so shipped filters must agree before either sees them.
  std::optional<cuckoo::CuckooParams> filter_params;
  for (size_t i = 0; i < lists.size(); ++i) {
    ParsedInvList<E>& pl = lists[i];
    if (!pl.filter_included) continue;
    auto f = cuckoo::CuckooFilter::Deserialize(pl.filter_bytes);
    if (f.ok() && !filter_params) filter_params = f->params();
    if (!f.ok() || f->params() != *filter_params) {
      out->filter_error_list = i;
      out->filter_error =
          f.ok() ? Status::Error("inv: filter geometry differs across lists")
                 : f.status();
      return Status::Ok();
    }
    pl.theta = f->StateDigest();
    pl.filter = std::move(*f);
  }
  return Status::Ok();
}

template <class E>
void DigestInvVo(const ParsedInvVo<E>& parsed,
                 std::vector<std::pair<ClusterId, Digest>>* out) {
  out->clear();
  if (parsed.filter_error_list != ParsedInvVo<E>::kNoList) return;
  // A list's chain head folds its popped prefix onto the first-remaining
  // digest; the lists are walked together on the Keccak lanes.
  const std::vector<ParsedInvList<E>>& lists = parsed.lists;
  std::vector<ChainSpan<E>> chains(lists.size());
  std::vector<Digest> heads(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    const ParsedInvList<E>& pl = lists[i];
    chains[i] = {pl.popped.data(), pl.popped.size(),
                 pl.has_remaining ? pl.first_remaining : Digest::Zero()};
    heads[i] = chains[i].tail;
  }
  WalkChains(chains.data(), chains.size(),
             [&](size_t k, size_t j, const Digest& d) {
               if (j == 0) heads[k] = d;
             });
  out->reserve(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    out->emplace_back(lists[i].cluster,
                      ListDigest(lists[i].weight, lists[i].theta, heads[i]));
  }
}

template <class E>
Status CheckInvVo(ParsedInvVo<E>* parsed, const bovw::BovwVector& query_bovw,
                  const std::vector<ImageId>& claimed_topk,
                  size_t requested_k, InvVerifyResult* out) {
  std::vector<ParsedInvList<E>>& lists = parsed->lists;
  const bool expect_filters = parsed->expect_filters;

  // The VO must cover exactly the query's BoVW support, in order.
  if (lists.size() != query_bovw.entries.size()) {
    return Status::Error("inv: VO does not cover the query's BoVW support");
  }
  for (size_t i = 0; i < lists.size(); ++i) {
    if (lists[i].cluster != query_bovw.entries[i].first) {
      return Status::Error("inv: VO cluster set mismatch");
    }
  }

  const double norm = query_bovw.L2Norm();
  std::vector<BoundsList> bounds_lists;
  std::vector<const ParsedInvList<E>*> relevant;  // aligned with bounds_lists
  for (size_t i = 0; i < lists.size(); ++i) {
    ParsedInvList<E>& pl = lists[i];
    if (pl.weight < 0) return Status::Error("inv: negative weight");
    if (i == parsed->filter_error_list) return parsed->filter_error;

    uint32_t freq = query_bovw.FrequencyOf(pl.cluster);
    double q_impact = bovw::ImpactValue(pl.weight, freq, norm);
    bool is_relevant =
        q_impact > 0 && (pl.has_remaining || !pl.popped.empty());

    if (!is_relevant) {
      // Reveal discipline: an irrelevant (or empty) list must not pop
      // entries or ship a filter.
      if (q_impact <= 0 && !pl.popped.empty()) {
        return Status::Error("inv: entries popped for irrelevant list");
      }
      if (pl.filter_included) {
        return Status::Error("inv: filter shipped for irrelevant list");
      }
      continue;
    }
    // A relevant list must be bounded: either something was popped (finite
    // cap) or it is exhausted.
    if (requested_k > 0 && pl.popped.empty() && pl.has_remaining) {
      return Status::Error("inv: relevant list with no popped entries");
    }
    if (expect_filters && pl.has_remaining && !pl.filter_included) {
      return Status::Error("inv: missing filter for relevant list");
    }
    BoundsList bl;
    bl.cluster = pl.cluster;
    bl.q_impact = q_impact;
    bl.filter = std::move(pl.filter);
    bounds_lists.push_back(std::move(bl));
    relevant.push_back(&pl);
  }

  out->popped_postings = parsed->popped_postings;

  // Replay every pop in canonical order.
  Status s;
  Bounds bounds(std::move(bounds_lists), expect_filters, out->popped_postings);
  for (size_t li = 0; li < relevant.size(); ++li) {
    const double weight = relevant[li]->weight;
    for (const E& e : relevant[li]->popped) {
      const double cap = e.Cap(weight);
      e.ForEachMember(weight, [&](ImageId id, double impact) {
        if (s.ok()) s = bounds.AddPopped(li, id, impact, cap);
      });
      if (!s.ok()) return s;
    }
    if (!relevant[li]->has_remaining) bounds.MarkExhausted(li);
  }

  // The claimed results must be exactly the best popped images.
  if (claimed_topk.size() > requested_k) {
    return Status::Error("inv: more results than requested");
  }
  if (IdSet(claimed_topk).size() != claimed_topk.size()) {
    return Status::Error("inv: duplicate result ids");
  }
  if (requested_k == 0) {
    // Nothing was requested, so nothing needs proving beyond the digests.
    if (!claimed_topk.empty() || out->popped_postings != 0) {
      return Status::Error("inv: nonempty proof for an empty request");
    }
    out->topk.clear();
    out->topk_exact = true;  // vacuously: no claimed scores
    return Status::Ok();
  }
  if (claimed_topk.size() < requested_k) {
    // Fewer than k results are only acceptable when the relevant lists are
    // provably drained and contain no further distinct image.
    for (size_t li = 0; li < relevant.size(); ++li) {
      if (!bounds.Exhausted(li)) {
        return Status::Error("inv: short result set with unpopped entries");
      }
    }
    if (bounds.NumImages() != claimed_topk.size()) {
      return Status::Error("inv: short result set hides popped images");
    }
  }
  switch (bounds.Check(claimed_topk)) {
    case Bounds::Verdict::kHolds:
      break;
    case Bounds::Verdict::kNotTopK:
      return Status::Error(
          "inv: claimed results are not the top-k popped images");
    case Bounds::Verdict::kCondition1:
      return Status::Error(
          "inv: condition 1 fails (unseen images may rank higher)");
    case Bounds::Verdict::kCondition2:
      return Status::Error(
          "inv: condition 2 fails (popped image may rank higher)");
  }

  out->topk_exact = true;
  for (ImageId id : claimed_topk) {
    if (!bounds.PossibleLists(id).empty()) {
      out->topk_exact = false;
      break;
    }
  }

  out->topk.clear();
  for (ImageId id : claimed_topk) {
    out->topk.push_back({id, bounds.ScoreOf(id)});
  }
  std::sort(out->topk.begin(), out->topk.end(),
            [](const bovw::ScoredImage& a, const bovw::ScoredImage& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  return Status::Ok();
}

template <class E>
Status VerifyInvVo(const Bytes& vo, const bovw::BovwVector& query_bovw,
                   const std::vector<ImageId>& claimed_topk,
                   size_t requested_k, bool expect_filters,
                   InvVerifyResult* out) {
  ParsedInvVo<E> parsed;
  Status s = ParseInvVo(vo, expect_filters, &parsed);
  if (!s.ok()) return s;
  DigestInvVo(parsed, &out->list_digests);
  return CheckInvVo(&parsed, query_bovw, claimed_topk, requested_k, out);
}

template Status ParseInvVo<Posting>(const Bytes&, bool,
                                    ParsedInvVo<Posting>*);
template Status ParseInvVo<Group>(const Bytes&, bool, ParsedInvVo<Group>*);
template void DigestInvVo<Posting>(
    const ParsedInvVo<Posting>&, std::vector<std::pair<ClusterId, Digest>>*);
template void DigestInvVo<Group>(const ParsedInvVo<Group>&,
                                 std::vector<std::pair<ClusterId, Digest>>*);
template Status CheckInvVo<Posting>(ParsedInvVo<Posting>*,
                                    const bovw::BovwVector&,
                                    const std::vector<ImageId>&, size_t,
                                    InvVerifyResult*);
template Status CheckInvVo<Group>(ParsedInvVo<Group>*, const bovw::BovwVector&,
                                  const std::vector<ImageId>&, size_t,
                                  InvVerifyResult*);
template Status VerifyInvVo<Posting>(const Bytes&, const bovw::BovwVector&,
                                     const std::vector<ImageId>&, size_t,
                                     bool, InvVerifyResult*);
template Status VerifyInvVo<Group>(const Bytes&, const bovw::BovwVector&,
                                   const std::vector<ImageId>&, size_t, bool,
                                   InvVerifyResult*);

Status ParseInvVo(EntryKind kind, const Bytes& vo, bool expect_filters,
                  AnyParsedInvVo* out) {
  if (kind == EntryKind::kGroup) {
    return ParseInvVo(vo, expect_filters, &out->emplace<ParsedInvVo<Group>>());
  }
  return ParseInvVo(vo, expect_filters, &out->emplace<ParsedInvVo<Posting>>());
}

void DigestInvVo(const AnyParsedInvVo& parsed,
                 std::vector<std::pair<ClusterId, Digest>>* out) {
  std::visit([&](const auto& p) { DigestInvVo(p, out); }, parsed);
}

Status CheckInvVo(AnyParsedInvVo* parsed, const bovw::BovwVector& query_bovw,
                  const std::vector<ImageId>& claimed_topk,
                  size_t requested_k, InvVerifyResult* out) {
  return std::visit(
      [&](auto& p) {
        return CheckInvVo(&p, query_bovw, claimed_topk, requested_k, out);
      },
      *parsed);
}

Status VerifyInvVo(EntryKind kind, const Bytes& vo,
                   const bovw::BovwVector& query_bovw,
                   const std::vector<ImageId>& claimed_topk,
                   size_t requested_k, bool expect_filters,
                   InvVerifyResult* out) {
  return kind == EntryKind::kGroup
             ? VerifyInvVo<Group>(vo, query_bovw, claimed_topk, requested_k,
                                  expect_filters, out)
             : VerifyInvVo<Posting>(vo, query_bovw, claimed_topk, requested_k,
                                    expect_filters, out);
}

}  // namespace imageproof::invindex
