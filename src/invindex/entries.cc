#include "invindex/entries.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/varint_kernels.h"
#include "invindex/vo_compress.h"

namespace imageproof::invindex {

// ---------------------------------------------------------------------------
// Posting
// ---------------------------------------------------------------------------

std::vector<Posting> Posting::Assemble(std::vector<Occurrence>& occ,
                                       double weight) {
  std::vector<Posting> list(occ.size());
  for (size_t i = 0; i < occ.size(); ++i) {
    list[i].id = occ[i].id;
    list[i].impact = bovw::ImpactValue(weight, occ[i].freq, occ[i].norm);
  }
  std::sort(list.begin(), list.end(),
            [weight](const Posting& a, const Posting& b) {
              return Precedes(a, b, weight);
            });
  return list;
}

size_t Posting::Insert(std::vector<Posting>* list, const Occurrence& occ,
                       double weight) {
  Posting posting;
  posting.id = occ.id;
  posting.impact = bovw::ImpactValue(weight, occ.freq, occ.norm);
  auto pos = std::lower_bound(list->begin(), list->end(), posting,
                              [weight](const Posting& a, const Posting& b) {
                                return Precedes(a, b, weight);
                              });
  const size_t p = static_cast<size_t>(pos - list->begin());
  list->insert(pos, posting);
  // Digests after the insertion point are untouched: recompute [0, p].
  return p + 1;
}

std::optional<size_t> Posting::Remove(std::vector<Posting>* list,
                                      ImageId image, double /*weight*/) {
  auto pos = std::find_if(list->begin(), list->end(),
                          [image](const Posting& p) { return p.id == image; });
  if (pos == list->end()) return std::nullopt;
  const size_t p = static_cast<size_t>(pos - list->begin());
  list->erase(pos);
  // The suffix that followed the removed posting keeps its digests:
  // recompute [0, p).
  return p;
}

void Posting::PutVo(ByteWriter& w, std::span<const Posting> popped,
                    bool compressed, VoScratch* scratch) {
  if (!compressed) {
    for (const Posting& p : popped) {
      w.PutVarint(p.id);
      w.PutF64(p.impact);
    }
    return;
  }
  if (popped.empty()) return;
  // Two split streams: zigzag-delta ids and impact bit patterns as
  // non-increasing high words (delta-coded) + raw low words. Either stream
  // falls back per list when a value does not fit its u32 coding.
  std::vector<uint32_t>& ids = scratch->ids;
  std::vector<uint32_t>& his = scratch->his;
  ids.clear();
  his.clear();
  bool gv_ids = true, gv_impacts = true;
  uint64_t prev_id = 0;
  uint32_t prev_hi = 0;
  for (size_t i = 0; i < popped.size(); ++i) {
    int64_t delta = static_cast<int64_t>(popped[i].id) -
                    static_cast<int64_t>(prev_id);
    prev_id = popped[i].id;
    uint64_t zz = (static_cast<uint64_t>(delta) << 1) ^
                  static_cast<uint64_t>(delta >> 63);
    if (zz > 0xFFFFFFFFull) gv_ids = false;
    ids.push_back(static_cast<uint32_t>(zz));
    uint64_t bits = std::bit_cast<uint64_t>(popped[i].impact);
    uint32_t hi = static_cast<uint32_t>(bits >> 32);
    if (i > 0 && hi > prev_hi) gv_impacts = false;
    his.push_back(i == 0 ? hi : prev_hi - hi);
    prev_hi = hi;
  }
  w.PutU8(static_cast<uint8_t>((gv_ids ? kGvIds : 0) |
                               (gv_impacts ? kGvImpacts : 0)));
  if (gv_ids) {
    kern::GroupVarintEncode(ids.data(), ids.size(), w);
  } else {
    for (const Posting& p : popped) w.PutVarint(p.id);
  }
  if (gv_impacts) {
    kern::GroupVarintEncode(his.data(), his.size(), w);
    for (const Posting& p : popped) {
      w.PutU32(static_cast<uint32_t>(std::bit_cast<uint64_t>(p.impact)));
    }
  } else {
    for (const Posting& p : popped) w.PutF64(p.impact);
  }
}

Status Posting::GetVo(ByteReader& r, uint64_t n, bool compressed,
                      std::vector<Posting>* out, VoScratch* scratch) {
  out->resize(n);
  Status s;
  if (!compressed) {
    for (Posting& p : *out) {
      if (!(s = r.GetVarint(&p.id)).ok()) return s;
      if (!(s = r.GetF64(&p.impact)).ok()) return s;
    }
    return Status::Ok();
  }
  if (n == 0) return Status::Ok();
  uint8_t lflags = 0;
  if (!(s = r.GetU8(&lflags)).ok()) return s;
  if (lflags & ~(kGvIds | kGvImpacts)) {
    return Status::Error("inv: unknown list flags");
  }
  std::vector<uint32_t>& buf = scratch->ids;
  if (lflags & kGvIds) {
    // ZigZag deltas (postings ride in impact order, so ids are not
    // monotone); the first value is the absolute id, zigzagged.
    buf.resize(n);
    if (!(s = kern::GroupVarintDecode(r, n, buf.data())).ok()) return s;
    uint64_t prev = 0;
    for (uint64_t j = 0; j < n; ++j) {
      prev = static_cast<uint64_t>(static_cast<int64_t>(prev) +
                                   kern::ZigZagDecode32(buf[j]));
      (*out)[j].id = prev;
    }
  } else {
    for (Posting& p : *out) {
      if (!(s = r.GetVarint(&p.id)).ok()) return s;
    }
  }
  if (lflags & kGvImpacts) {
    // Impacts descend, so the high words of their IEEE-754 bit patterns
    // never increase: the first high word is absolute, the rest are
    // non-negative deltas, then come the raw low words.
    buf.resize(n);
    if (!(s = kern::GroupVarintDecode(r, n, buf.data())).ok()) return s;
    uint32_t hi = 0;
    for (uint64_t j = 0; j < n; ++j) {
      hi = (j == 0) ? buf[j] : hi - buf[j];
      uint32_t lo = 0;
      if (!(s = r.GetU32(&lo)).ok()) return s;
      uint64_t bits = (static_cast<uint64_t>(hi) << 32) | lo;
      (*out)[j].impact = std::bit_cast<double>(bits);
    }
  } else {
    for (Posting& p : *out) {
      if (!(s = r.GetF64(&p.impact)).ok()) return s;
    }
  }
  return Status::Ok();
}

void Posting::PutIpk(ByteWriter& w) const {
  w.PutU64(id);
  w.PutF64(impact);
  crypto::PutDigest(w, digest);
}

Status Posting::GetIpk(ByteReader& r, Posting* out) {
  Status s;
  if (!(s = r.GetU64(&out->id)).ok()) return s;
  if (!(s = r.GetF64(&out->impact)).ok()) return s;
  return crypto::GetDigest(r, &out->digest);
}

// ---------------------------------------------------------------------------
// Group
// ---------------------------------------------------------------------------

namespace {

bool MemberBefore(const Member& a, const Member& b) {
  if (a.norm != b.norm) return a.norm < b.norm;
  return a.id < b.id;
}

// Restores group order after an edit to the group keyed `touched` (groups
// are keyed by freq within a list) and returns the chain prefix to re-hash.
// A group digest depends only on its chain suffix, so the longest common
// suffix of the old order `old_freqs` and the new one that excludes the
// touched group keeps its stored digests.
size_t Resort(std::vector<Group>* list, double weight,
              const std::vector<uint32_t>& old_freqs, uint32_t touched) {
  std::sort(list->begin(), list->end(),
            [weight](const Group& a, const Group& b) {
              return Group::Precedes(a, b, weight);
            });
  size_t k = list->size();
  size_t j = old_freqs.size();
  while (k > 0 && j > 0 && (*list)[k - 1].freq == old_freqs[j - 1] &&
         (*list)[k - 1].freq != touched) {
    --k;
    --j;
  }
  return k;
}

std::vector<uint32_t> Freqs(const std::vector<Group>& list) {
  std::vector<uint32_t> freqs;
  freqs.reserve(list.size());
  for (const Group& g : list) freqs.push_back(g.freq);
  return freqs;
}

}  // namespace

bool Group::Contains(ImageId image) const {
  for (const Member& m : members) {
    if (m.id == image) return true;
  }
  return false;
}

bool Group::WellFormed() const {
  if (members.empty()) return false;
  for (size_t i = 1; i < members.size(); ++i) {
    if (!MemberBefore(members[i - 1], members[i])) return false;
  }
  return true;
}

std::vector<Group> Group::Assemble(std::vector<Occurrence>& occ,
                                   double weight) {
  std::sort(occ.begin(), occ.end(),
            [](const Occurrence& a, const Occurrence& b) {
              if (a.freq != b.freq) return a.freq < b.freq;
              return MemberBefore({a.id, a.norm}, {b.id, b.norm});
            });
  std::vector<Group> list;
  for (const Occurrence& o : occ) {
    if (list.empty() || list.back().freq != o.freq) {
      list.emplace_back();
      list.back().freq = o.freq;
    }
    list.back().members.push_back({o.id, o.norm});
  }
  std::sort(list.begin(), list.end(),
            [weight](const Group& a, const Group& b) {
              return Precedes(a, b, weight);
            });
  return list;
}

size_t Group::Insert(std::vector<Group>* list, const Occurrence& occ,
                     double weight) {
  const std::vector<uint32_t> old_freqs = Freqs(*list);
  const Member member{occ.id, occ.norm};
  auto group = std::find_if(list->begin(), list->end(), [&](const Group& g) {
    return g.freq == occ.freq;
  });
  if (group == list->end()) {
    list->emplace_back();
    list->back().freq = occ.freq;
    list->back().members.push_back(member);
  } else {
    auto pos = std::lower_bound(group->members.begin(), group->members.end(),
                                member, MemberBefore);
    group->members.insert(pos, member);
  }
  return Resort(list, weight, old_freqs, occ.freq);
}

std::optional<size_t> Group::Remove(std::vector<Group>* list, ImageId image,
                                    double weight) {
  for (auto group = list->begin(); group != list->end(); ++group) {
    auto pos = std::find_if(group->members.begin(), group->members.end(),
                            [image](const Member& m) { return m.id == image; });
    if (pos == group->members.end()) continue;
    const std::vector<uint32_t> old_freqs = Freqs(*list);
    const uint32_t touched = group->freq;
    group->members.erase(pos);
    if (group->members.empty()) list->erase(group);
    return Resort(list, weight, old_freqs, touched);
  }
  return std::nullopt;
}

void Group::PutVo(ByteWriter& w, std::span<const Group> popped,
                  bool compressed, VoScratch* scratch) {
  std::vector<Member>& by_id = scratch->by_id;
  for (const Group& g : popped) {
    w.PutVarint(g.freq);
    w.PutVarint(g.members.size());
    // Members ride id-ascending with d-gaps, norms alongside; the verifier
    // re-sorts by (norm, id) to rebuild the digest order.
    by_id = g.members;
    std::sort(by_id.begin(), by_id.end(),
              [](const Member& a, const Member& b) { return a.id < b.id; });
    auto gap = [&](size_t m) {
      return m == 0 ? by_id[0].id : by_id[m].id - by_id[m - 1].id;
    };
    if (!compressed) {
      for (size_t m = 0; m < by_id.size(); ++m) {
        w.PutVarint(gap(m));
        w.PutF64(by_id[m].norm);
      }
      continue;
    }
    // Split streams: a group-varint block of id d-gaps (first value
    // absolute), then a block of u32 squared norms. Either stream falls
    // back per group (LEB128 gaps / raw f64 norms) when a value does not
    // fit, so any index the raw encoding can ship, this one can too.
    std::vector<uint32_t>& gaps = scratch->gaps;
    std::vector<uint32_t>& norms = scratch->norms;
    gaps.clear();
    norms.clear();
    bool gv_ids = true, gv_norms = true;
    for (size_t m = 0; m < by_id.size(); ++m) {
      if (gap(m) > 0xFFFFFFFFull) gv_ids = false;
      gaps.push_back(static_cast<uint32_t>(gap(m)));
      uint32_t msq = 0;
      if (!SquaredNormU32(by_id[m].norm, &msq)) gv_norms = false;
      norms.push_back(msq);
    }
    w.PutU8(static_cast<uint8_t>((gv_ids ? kGvIds : 0) |
                                 (gv_norms ? kGvNormsSq : 0)));
    if (gv_ids) {
      kern::GroupVarintEncode(gaps.data(), gaps.size(), w);
    } else {
      for (size_t m = 0; m < by_id.size(); ++m) w.PutVarint(gap(m));
    }
    if (gv_norms) {
      kern::GroupVarintEncode(norms.data(), norms.size(), w);
    } else {
      for (const Member& m : by_id) w.PutF64(m.norm);
    }
  }
}

Status Group::GetVo(ByteReader& r, uint64_t n, bool compressed,
                    std::vector<Group>* out, VoScratch* scratch) {
  out->resize(n);
  Status s;
  for (Group& g : *out) {
    uint64_t freq, num_members;
    if (!(s = r.GetVarint(&freq)).ok()) return s;
    if (freq == 0 || freq > (1u << 30)) return Status::Error("inv: bad freq");
    g.freq = static_cast<uint32_t>(freq);
    if (!(s = r.GetVarint(&num_members)).ok()) return s;
    // A member needs at least 9 bytes raw (varint id + f64 norm), 2
    // compressed (>=1.25 bytes per group-varint value, twice).
    if (num_members == 0 ||
        num_members > r.remaining() / (compressed ? 2 : 9)) {
      return Status::Error("inv: bad member count");
    }
    g.members.resize(num_members);
    uint8_t gflags = 0;
    if (compressed) {
      if (!(s = r.GetU8(&gflags)).ok()) return s;
      if (gflags & ~(kGvIds | kGvNormsSq)) {
        return Status::Error("inv: unknown group flags");
      }
    }
    std::vector<uint32_t>& gaps = scratch->gaps;
    if (gflags & kGvIds) {
      gaps.resize(num_members);
      if (!(s = kern::GroupVarintDecode(r, num_members, gaps.data())).ok()) {
        return s;
      }
    }
    ImageId prev = 0;
    bool ascending = true;  // false only if an id sum wrapped around
    for (uint64_t m = 0; m < num_members; ++m) {
      uint64_t gap;
      if (gflags & kGvIds) {
        gap = gaps[m];
      } else if (!(s = r.GetVarint(&gap)).ok()) {
        return s;
      }
      if (m > 0 && gap == 0) {
        return Status::Error("inv: duplicate member id in group");
      }
      if (m > 0 && prev + gap < prev) ascending = false;
      prev = (m == 0) ? gap : prev + gap;
      g.members[m].id = prev;
      // Raw members interleave (gap, norm); compressed ones split streams.
      if (!compressed) {
        if (!(s = r.GetF64(&g.members[m].norm)).ok()) return s;
        if (!(g.members[m].norm > 0)) {
          return Status::Error("inv: non-positive norm");
        }
      }
    }
    const bool squared = gflags & kGvNormsSq;
    std::vector<uint32_t>& norms = scratch->norms;
    if (compressed) {
      if (squared) {
        norms.resize(num_members);
        if (!(s = kern::GroupVarintDecode(r, num_members, norms.data()))
                 .ok()) {
          return s;
        }
      }
      for (uint64_t m = 0; m < num_members; ++m) {
        double& norm = g.members[m].norm;
        if (squared) {
          if (norms[m] == 0) return Status::Error("inv: non-positive norm");
          norm = std::sqrt(static_cast<double>(norms[m]));
        } else {
          if (!(s = r.GetF64(&norm)).ok()) return s;
          if (!(norm > 0)) return Status::Error("inv: non-positive norm");
        }
      }
    }
    // Restore the canonical digest order (norm asc, id asc). When the ids
    // arrived ascending and the norms rode as u32 squares, one sort of
    // (squared norm << 32 | arrival index) words gives exactly that order,
    // ties included: sqrt is strictly increasing on the squares. Otherwise
    // the members themselves are sorted.
    if (!ascending || !squared) {
      std::sort(g.members.begin(), g.members.end(), MemberBefore);
      continue;
    }
    std::vector<uint64_t>& keys = scratch->keys;
    keys.resize(num_members);
    for (uint64_t m = 0; m < num_members; ++m) {
      keys[m] = (uint64_t{norms[m]} << 32) | m;  // m < 2^32: input-bounded
    }
    std::sort(keys.begin(), keys.end());
    std::vector<Member>& arrived = scratch->by_id;
    arrived.assign(g.members.begin(), g.members.end());
    for (uint64_t m = 0; m < num_members; ++m) {
      g.members[m] = arrived[static_cast<uint32_t>(keys[m])];
    }
  }
  return Status::Ok();
}

void Group::PutIpk(ByteWriter& w) const {
  w.PutU32(freq);
  w.PutVarint(members.size());
  for (const Member& m : members) {
    w.PutU64(m.id);
    w.PutF64(m.norm);
  }
  crypto::PutDigest(w, digest);
}

Status Group::GetIpk(ByteReader& r, Group* out) {
  Status s;
  if (!(s = r.GetU32(&out->freq)).ok()) return s;
  uint64_t n = 0;
  if (!(s = r.GetVarint(&n)).ok()) return s;
  if (n > r.remaining() / 16) {
    return Status::Corrupted("store: member count exceeds input size");
  }
  out->members.resize(n);
  for (Member& m : out->members) {
    if (!(s = r.GetU64(&m.id)).ok()) return s;
    if (!(s = r.GetF64(&m.norm)).ok()) return s;
  }
  return crypto::GetDigest(r, &out->digest);
}

}  // namespace imageproof::invindex
