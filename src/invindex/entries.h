// The two entry kinds of the Merkle inverted index.
//
// An inverted list is a chain of entries in impact order, each carrying a
// backward-chained digest so a VO can reveal exactly a prefix. The paper
// defines two kinds of entry:
//   Posting <I, p_{I,c}>                                     (Section IV-B)
//     h_pos = h(I | p_{I,c} | h_next)                        (Definition 4)
//   Group   <f, (I_1, l_1) ... (I_n, l_n)>      (Section VI-B, Optimization B)
//     h_pos = h(f | I_1 | l_1 | ... | I_n | l_n | h_next)    (Definition 6)
// A group holds every image of the list with frequency f, members ordered by
// ascending BoVW L2 norm l (id ascending on ties). The first member thus
// carries the group's largest impact w*f/l, which is the group's impact for
// list ordering and for the remaining-impact caps during PostingSearch.
// Member order is recoverable from the member data itself, so the VO may
// ship members id-sorted with d-gap varints (the paper's compression)
// without losing digest verifiability.
//
// Each kind supplies only what differs: the digest preimage, entry order
// and the member walk, the insert/remove edit, and the VO and .ipk entry
// codecs. The chain engine (merkle_inv_index.h), the search (search.h) and
// the verifier (verify.h) are templates written once over the kind and
// instantiated for both; there is no per-entry virtual dispatch.

#ifndef IMAGEPROOF_INVINDEX_ENTRIES_H_
#define IMAGEPROOF_INVINDEX_ENTRIES_H_

#include <optional>
#include <span>
#include <vector>

#include "bovw/bovw.h"
#include "common/bytes.h"
#include "common/status.h"
#include "crypto/digest.h"
#include "crypto/hasher.h"

namespace imageproof::invindex {

using bovw::ClusterId;
using bovw::ImageId;
using crypto::Digest;

// One image's occurrence in a cluster's list, as gathered by the build.
struct Occurrence {
  ImageId id = 0;
  uint32_t freq = 0;
  double norm = 0.0;  // ||B_I||
};

struct Posting {
  ImageId id = 0;
  double impact = 0.0;
  Digest digest;  // h(id | impact | next digest)

  // Condition-1 and settle steps pop check_batch postings at a time.
  static constexpr bool kBatchedPops = true;

  template <class Sink>
  void Preimage(Sink& s, const Digest& next) const {
    s.AddU64(id);
    s.AddF64(impact);
    s.AddDigest(next);
  }
  // Calls f(id, impact) for every image of the entry, in digest order.
  template <class F>
  void ForEachMember(double /*weight*/, F&& f) const {
    f(id, impact);
  }
  // Bound on the impact of this entry and of every entry after it.
  double Cap(double /*weight*/) const { return impact; }
  size_t NumMembers() const { return 1; }
  bool Contains(ImageId image) const { return id == image; }
  bool WellFormed() const { return true; }
  // List order: impact descending, id ascending on ties.
  static bool Precedes(const Posting& a, const Posting& b, double /*weight*/) {
    if (a.impact != b.impact) return a.impact > b.impact;
    return a.id < b.id;
  }

  // The ordered list of one cluster's occurrences (which it may reorder).
  static std::vector<Posting> Assemble(std::vector<Occurrence>& occ,
                                       double weight);
  // Edits return the length of the chain prefix whose digests the edit
  // invalidated; Remove returns nullopt when the image is not in the list.
  static size_t Insert(std::vector<Posting>* list, const Occurrence& occ,
                       double weight);
  static std::optional<size_t> Remove(std::vector<Posting>* list,
                                      ImageId image, double weight);

  // VO codec of a list's popped prefix (layout in search.h).
  struct VoScratch {
    std::vector<uint32_t> ids, his;
  };
  static void PutVo(ByteWriter& w, std::span<const Posting> popped,
                    bool compressed, VoScratch* scratch);
  static Status GetVo(ByteReader& r, uint64_t n, bool compressed,
                      std::vector<Posting>* out, VoScratch* scratch);
  // Each popped posting occupies at least 9 bytes raw (varint id + f64
  // impact) and 6 compressed (>=1.25-byte group-varint id and impact-high
  // words + 4-byte impact-low word).
  static size_t MinVoBytes(bool compressed) { return compressed ? 6 : 9; }

  // .ipk codec: id(8) | impact(8) | digest(32).
  void PutIpk(ByteWriter& w) const;
  static Status GetIpk(ByteReader& r, Posting* out);
  static constexpr size_t kMinIpkBytes = 16 + crypto::kDigestSize;
};

struct Member {
  ImageId id = 0;
  double norm = 0.0;  // ||B_I||

  bool operator==(const Member&) const = default;
};

struct Group {
  uint32_t freq = 0;
  std::vector<Member> members;  // (norm asc, id asc)
  Digest digest;                // h(f | members | next digest)

  // Condition-1 and settle steps pop one group at a time.
  static constexpr bool kBatchedPops = false;

  double MemberImpact(double weight, size_t i) const {
    return bovw::ImpactValue(weight, freq, members[i].norm);
  }

  template <class Sink>
  void Preimage(Sink& s, const Digest& next) const {
    s.AddU32(freq);
    for (const Member& m : members) {
      s.AddU64(m.id);
      s.AddF64(m.norm);
    }
    s.AddDigest(next);
  }
  template <class F>
  void ForEachMember(double weight, F&& f) const {
    for (size_t i = 0; i < members.size(); ++i) {
      f(members[i].id, MemberImpact(weight, i));
    }
  }
  // The group's impact: that of its first member.
  double Cap(double weight) const { return MemberImpact(weight, 0); }
  size_t NumMembers() const { return members.size(); }
  bool Contains(ImageId image) const;
  // Nonempty (an emptied group is dissolved) and member-ordered: the order
  // the digest preimage and the VO's d-gap recovery both assume.
  bool WellFormed() const;
  // List order: group impact descending, freq ascending on ties.
  static bool Precedes(const Group& a, const Group& b, double weight) {
    double ia = a.Cap(weight);
    double ib = b.Cap(weight);
    if (ia != ib) return ia > ib;
    return a.freq < b.freq;
  }

  static std::vector<Group> Assemble(std::vector<Occurrence>& occ,
                                     double weight);
  // Inserting adds the image to its frequency group, creating the group if
  // needed; removing may dissolve a group.
  static size_t Insert(std::vector<Group>* list, const Occurrence& occ,
                       double weight);
  static std::optional<size_t> Remove(std::vector<Group>* list, ImageId image,
                                      double weight);

  struct VoScratch {
    std::vector<Member> by_id;
    std::vector<uint32_t> gaps, norms;
    std::vector<uint64_t> keys;  // (squared norm, arrival index) pairs
  };
  static void PutVo(ByteWriter& w, std::span<const Group> popped,
                    bool compressed, VoScratch* scratch);
  static Status GetVo(ByteReader& r, uint64_t n, bool compressed,
                      std::vector<Group>* out, VoScratch* scratch);
  // A group needs at least 11 bytes raw (freq + count + one member), 7
  // compressed (freq + count + flags + two 2-byte blocks).
  static size_t MinVoBytes(bool compressed) { return compressed ? 7 : 11; }

  // .ipk codec: freq(4) | varint count | (id(8) | norm(8))... | digest(32).
  void PutIpk(ByteWriter& w) const;
  static Status GetIpk(ByteReader& r, Group* out);
  static constexpr size_t kMinIpkBytes = 5 + 16 + crypto::kDigestSize;
};

// h(entry preimage | next), the chain digest of Definitions 4 and 6.
template <class E>
Digest EntryDigest(const E& entry, const Digest& next) {
  crypto::DigestBuilder b;
  entry.Preimage(b, next);
  return b.Finalize();
}

}  // namespace imageproof::invindex

#endif  // IMAGEPROOF_INVINDEX_ENTRIES_H_
