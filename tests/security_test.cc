// Security-focused tests beyond random bit flips: semantically coherent VO
// mutations (a rational cheating SP edits *fields*, not random bytes) and
// parser-robustness fuzzing of every untrusted-input surface.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "core/client.h"
#include "core/owner.h"
#include "core/query_engine.h"
#include "core/server.h"
#include "cuckoo/cuckoo_filter.h"
#include "invindex/search.h"
#include "invindex/verify.h"
#include "mrkd/commit.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "shard/composite.h"
#include "shard/composite_client.h"
#include "shard/coordinator.h"
#include "shard/manifest.h"
#include "shard/planner.h"
#include "workload/synthetic.h"

namespace imageproof {
namespace {

// ---------------------------------------------------------------------------
// Semantic attacks on the inverted-index VO
// ---------------------------------------------------------------------------

// Both entry kinds of the inverted index, each attack is mounted on both.
constexpr invindex::EntryKind kEntryKinds[] = {invindex::EntryKind::kPosting,
                                               invindex::EntryKind::kGroup};

const char* KindName(invindex::EntryKind kind) {
  return kind == invindex::EntryKind::kGroup ? "group kind" : "posting kind";
}

class SemanticAttackTest : public ::testing::Test {
 public:
  // One honest search per entry kind over the same corpus and query.
  struct Case {
    std::unique_ptr<invindex::InvertedIndex> index;
    invindex::InvSearchResult honest;
    std::vector<bovw::ImageId> claimed;
  };

  SemanticAttackTest() {
    workload::CorpusParams cp;
    cp.num_images = 600;
    cp.num_clusters = 128;
    cp.seed = 77;
    corpus_ = workload::GenerateCorpus(cp);
    std::vector<bovw::BovwVector> vecs;
    for (auto& [id, v] : corpus_) vecs.push_back(v);
    auto weights = bovw::ClusterWeights::FromCorpus(128, vecs);
    query_ = workload::QueryFromImage(cp, corpus_[33].second, 60, 0.2, 5);
    invindex::InvSearchParams params;
    params.k = 5;
    for (invindex::EntryKind kind : kEntryKinds) {
      Case c;
      c.index = std::make_unique<invindex::InvertedIndex>(
          invindex::InvertedIndex::Build(kind, 128, corpus_, weights, true));
      c.honest = invindex::InvSearch(*c.index, query_, params);
      for (const auto& si : c.honest.topk) c.claimed.push_back(si.id);
      cases_.push_back(std::move(c));
    }
  }

  bool Accepts(const Case& c, const Bytes& vo,
               const std::vector<bovw::ImageId>& claimed) {
    invindex::InvVerifyResult verified;
    if (!invindex::VerifyInvVo(c.index->kind(), vo, query_, claimed, 5, true,
                               &verified)
             .ok()) {
      return false;
    }
    for (const auto& [cluster, digest] : verified.list_digests) {
      if (digest != c.index->list_digest(cluster)) return false;
    }
    return true;
  }

  std::vector<std::pair<bovw::ImageId, bovw::BovwVector>> corpus_;
  bovw::BovwVector query_;
  std::vector<Case> cases_;
};

// Field-level model of a raw InvSearch VO of either entry kind (mirrors the
// layout documented in invindex/search.h), shared by the semantic attacks
// here and the engine-path tamper matrix.
struct Entry {
  uint64_t id = 0;        // posting
  double impact = 0.0;    // posting
  uint64_t freq = 0;      // group
  std::vector<std::pair<uint64_t, double>> members;  // group: (id gap, norm)
};
struct List {
  uint64_t cluster;
  double weight;
  std::vector<Entry> popped;
  uint8_t flags;
  crypto::Digest first_remaining;
  Bytes filter;
  crypto::Digest theta;
};

// Re-serializes a parsed VO faithfully, so a single-field mutation yields a
// VO that differs only in that field.
Bytes Reserialize(const std::vector<List>& lists, bool grouped = false) {
  ByteWriter w;
  w.PutU8(1);
  w.PutVarint(lists.size());
  for (const List& l : lists) {
    w.PutVarint(l.cluster);
    w.PutF64(l.weight);
    w.PutVarint(l.popped.size());
    for (const Entry& e : l.popped) {
      if (!grouped) {
        w.PutVarint(e.id);
        w.PutF64(e.impact);
        continue;
      }
      w.PutVarint(e.freq);
      w.PutVarint(e.members.size());
      for (const auto& [gap, norm] : e.members) {
        w.PutVarint(gap);
        w.PutF64(norm);
      }
    }
    w.PutU8(l.flags);
    if (l.flags & 1) crypto::PutDigest(w, l.first_remaining);
    if (l.flags & 2) {
      w.PutBlob(l.filter);
    } else {
      crypto::PutDigest(w, l.theta);
    }
  }
  return w.Take();
}

std::vector<List> ParseVo(const Bytes& vo, bool grouped = false) {
  std::vector<List> lists;
  ByteReader r(vo);
  uint8_t use_filters;
  if (!r.GetU8(&use_filters).ok()) return lists;
  uint64_t n;
  if (!r.GetVarint(&n).ok()) return lists;
  for (uint64_t i = 0; i < n; ++i) {
    List l;
    if (!r.GetVarint(&l.cluster).ok()) return {};
    if (!r.GetF64(&l.weight).ok()) return {};
    uint64_t popped;
    if (!r.GetVarint(&popped).ok()) return {};
    for (uint64_t j = 0; j < popped; ++j) {
      Entry e;
      if (!grouped) {
        if (!r.GetVarint(&e.id).ok()) return {};
        if (!r.GetF64(&e.impact).ok()) return {};
      } else {
        uint64_t members;
        if (!r.GetVarint(&e.freq).ok()) return {};
        if (!r.GetVarint(&members).ok()) return {};
        e.members.resize(members);
        for (auto& [gap, norm] : e.members) {
          if (!r.GetVarint(&gap).ok()) return {};
          if (!r.GetF64(&norm).ok()) return {};
        }
      }
      l.popped.push_back(std::move(e));
    }
    if (!r.GetU8(&l.flags).ok()) return {};
    if (l.flags & 1) {
      if (!crypto::GetDigest(r, &l.first_remaining).ok()) return {};
    }
    if (l.flags & 2) {
      if (!r.GetBlob(&l.filter).ok()) return {};
    } else {
      if (!crypto::GetDigest(r, &l.theta).ok()) return {};
    }
    lists.push_back(std::move(l));
  }
  return lists;
}

// Applies `attack` to the parsed honest VO of each entry kind; the attack
// reports whether it found a target, and every tampered VO must be
// rejected.
template <class Attack>
void ExpectRejectedOnBothKinds(SemanticAttackTest& t, Attack attack) {
  for (const SemanticAttackTest::Case& c : t.cases_) {
    SCOPED_TRACE(KindName(c.index->kind()));
    const bool grouped = c.index->kind() == invindex::EntryKind::kGroup;
    auto lists = ParseVo(c.honest.vo, grouped);
    ASSERT_FALSE(lists.empty());
    ASSERT_TRUE(attack(lists, grouped)) << "no target for the attack";
    EXPECT_FALSE(t.Accepts(c, Reserialize(lists, grouped), c.claimed));
  }
}

// First list with at least two popped entries, or nullptr.
List* ListWithTwoPops(std::vector<List>& lists) {
  for (List& l : lists) {
    if (l.popped.size() >= 2) return &l;
  }
  return nullptr;
}

TEST_F(SemanticAttackTest, HonestReserializationAccepted) {
  for (const Case& c : cases_) {
    SCOPED_TRACE(KindName(c.index->kind()));
    const bool grouped = c.index->kind() == invindex::EntryKind::kGroup;
    auto lists = ParseVo(c.honest.vo, grouped);
    ASSERT_FALSE(lists.empty());
    EXPECT_EQ(Reserialize(lists, grouped), c.honest.vo)
        << "parser/serializer mismatch";
    EXPECT_TRUE(Accepts(c, c.honest.vo, c.claimed));
  }
}

TEST_F(SemanticAttackTest, InflatedImpactRejected) {
  // Inflate a popped competitor's impact so it *looks* consistent; the
  // digest chain must expose it. A group's impacts derive from its freq
  // and member norms, so both are inflated in turn.
  ExpectRejectedOnBothKinds(*this, [](std::vector<List>& lists, bool grouped) {
    List* l = ListWithTwoPops(lists);
    if (l == nullptr) return false;
    if (grouped) {
      l->popped[1].freq *= 2;
    } else {
      l->popped[1].impact *= 2.0;
    }
    return true;
  });
  ExpectRejectedOnBothKinds(*this, [](std::vector<List>& lists, bool grouped) {
    List* l = ListWithTwoPops(lists);
    if (l == nullptr) return false;
    if (grouped) {
      l->popped[1].members[0].second *= 0.5;
    } else {
      l->popped[1].impact *= 2.0;
    }
    return true;
  });
}

TEST_F(SemanticAttackTest, HiddenPostingRejected) {
  // Drop the deepest popped entry of some list (hide a competitor).
  ExpectRejectedOnBothKinds(*this, [](std::vector<List>& lists, bool) {
    List* l = ListWithTwoPops(lists);
    if (l == nullptr) return false;
    l->popped.pop_back();
    return true;
  });
}

TEST_F(SemanticAttackTest, ReducedWeightRejected) {
  // Shrink a list's weight to depress a competitor's score.
  ExpectRejectedOnBothKinds(*this, [](std::vector<List>& lists, bool) {
    lists[0].weight *= 0.5;
    return true;
  });
}

TEST_F(SemanticAttackTest, SubstitutedFilterRejected) {
  // Replace a shipped filter with an emptier one (making competitors look
  // absent from remaining lists).
  ExpectRejectedOnBothKinds(*this, [](std::vector<List>& lists, bool) {
    for (auto& l : lists) {
      if (l.flags & 2) {
        cuckoo::CuckooFilter empty(cuckoo::CuckooParams::ForMaxItems(64));
        l.filter = empty.Serialize();
        return true;
      }
    }
    return false;
  });
}

TEST_F(SemanticAttackTest, ForgedRemainingDigestRejected) {
  // Pretend a list is exhausted (hide all remaining entries) by flipping
  // has_remaining and providing h(Theta) instead.
  ExpectRejectedOnBothKinds(*this, [](std::vector<List>& lists, bool) {
    for (auto& l : lists) {
      if ((l.flags & 1) && (l.flags & 2)) {
        l.flags = 0;  // exhausted, no filter
        auto restored = cuckoo::CuckooFilter::Deserialize(l.filter);
        if (!restored.ok()) return false;
        l.theta = restored->StateDigest();
        return true;
      }
    }
    return false;
  });
}

TEST_F(SemanticAttackTest, ReorderedPostingsRejected) {
  // Swap two adjacent popped entries (breaks either the chain digest or
  // the impact-order invariant).
  ExpectRejectedOnBothKinds(*this, [](std::vector<List>& lists, bool) {
    List* l = ListWithTwoPops(lists);
    if (l == nullptr) return false;
    std::swap(l->popped[0], l->popped[1]);
    return true;
  });
}

// ---------------------------------------------------------------------------
// Semantic attacks on the frequency-grouped VO
// ---------------------------------------------------------------------------

class FgSemanticAttackTest : public ::testing::Test {
 public:
  FgSemanticAttackTest() {
    workload::CorpusParams cp;
    cp.num_images = 400;
    cp.num_clusters = 96;
    cp.seed = 99;
    corpus_ = workload::GenerateCorpus(cp);
    std::vector<bovw::BovwVector> vecs;
    for (auto& [id, v] : corpus_) vecs.push_back(v);
    auto weights = bovw::ClusterWeights::FromCorpus(96, vecs);
    index_ = std::make_unique<invindex::GroupIndex>(
        invindex::GroupIndex::Build(96, corpus_, weights, true));
    query_ = workload::QueryFromImage(cp, corpus_[21].second, 50, 0.2, 3);
    invindex::InvSearchParams params;
    params.k = 5;
    honest_ = invindex::InvSearch(*index_, query_, params);
    for (const auto& si : honest_.topk) claimed_.push_back(si.id);
  }

  bool Accepts(const Bytes& vo) {
    invindex::InvVerifyResult verified;
    if (!invindex::VerifyInvVo<invindex::Group>(vo, query_, claimed_, 5, true,
                                                &verified)
             .ok()) {
      return false;
    }
    for (const auto& [c, digest] : verified.list_digests) {
      if (digest != index_->list(c).digest) return false;
    }
    return true;
  }

  std::vector<std::pair<bovw::ImageId, bovw::BovwVector>> corpus_;
  std::unique_ptr<invindex::GroupIndex> index_;
  bovw::BovwVector query_;
  invindex::InvSearchResult honest_;
  std::vector<bovw::ImageId> claimed_;
};

TEST_F(FgSemanticAttackTest, HonestAccepted) { EXPECT_TRUE(Accepts(honest_.vo)); }

TEST_F(FgSemanticAttackTest, NormAndFreqBitsAreCovered) {
  // Flip bits across the whole VO; every accepted variant must be byte-
  // identical in effect (none is, since every field is committed).
  Rng rng(7);
  for (int t = 0; t < 60; ++t) {
    Bytes tampered = honest_.vo;
    tampered[rng.NextBounded(tampered.size())] ^=
        static_cast<uint8_t>(1 + rng.NextBounded(255));
    EXPECT_FALSE(Accepts(tampered)) << t;
  }
}

// ---------------------------------------------------------------------------
// Parser fuzzing: untrusted bytes must never crash, only fail.
// ---------------------------------------------------------------------------

Bytes RandomBytes(Rng& rng, size_t max_len) {
  Bytes out(rng.NextBounded(max_len + 1));
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextU64());
  return out;
}

TEST(ParserFuzzTest, QueryVoDeserializeNeverCrashes) {
  Rng rng(1);
  for (int t = 0; t < 2000; ++t) {
    Bytes data = RandomBytes(rng, 512);
    core::QueryVO vo;
    (void)core::QueryVO::Deserialize(data, &vo);
  }
}

TEST(ParserFuzzTest, InvVoVerifyNeverCrashes) {
  Rng rng(2);
  bovw::BovwVector query;
  query.entries = {{1, 2}, {5, 1}};
  for (int t = 0; t < 2000; ++t) {
    Bytes data = RandomBytes(rng, 512);
    for (invindex::EntryKind kind : kEntryKinds) {
      invindex::InvVerifyResult out;
      (void)invindex::VerifyInvVo(kind, data, query, {1, 2}, 2, true, &out);
      (void)invindex::VerifyInvVo(kind, data, query, {}, 2, false, &out);
    }
  }
}

// Lemma 1 gives every filter of one index the same geometry; a VO whose
// shipped filters disagree is rejected before any bound is computed from
// them, since MaxCount and the shared probe key every filter by one
// filter's buckets and fingerprint width.
TEST(ParserFuzzTest, MixedFilterGeometryRejected) {
  cuckoo::CuckooParams small;
  small.num_buckets = 4;
  small.fingerprint_bits = 8;
  cuckoo::CuckooParams large;
  large.num_buckets = 1024;
  large.fingerprint_bits = 16;
  cuckoo::CuckooFilter f0(small), f1(large);
  for (uint64_t id = 0; id < 8; ++id) f0.Insert(id);
  for (uint64_t id = 0; id < 3000; ++id) f1.Insert(id);
  bovw::BovwVector query;
  query.entries = {{1, 1}, {2, 1}};
  for (invindex::EntryKind kind : kEntryKinds) {
    ByteWriter w;
    w.PutU8(1);  // filters on, uncompressed
    w.PutVarint(2);
    const cuckoo::CuckooFilter* filters[] = {&f0, &f1};
    for (size_t li = 0; li < 2; ++li) {
      w.PutVarint(li + 1);  // cluster
      w.PutF64(1.0);        // weight
      w.PutVarint(1);       // one popped entry
      if (kind == invindex::EntryKind::kGroup) {
        invindex::Group g;
        g.freq = 1;
        g.members = {{li + 1, 1.0}};
        invindex::Group::VoScratch scratch;
        invindex::Group::PutVo(w, std::span<const invindex::Group>(&g, 1),
                               false, &scratch);
      } else {
        invindex::Posting p;
        p.id = li + 1;
        p.impact = 0.5;
        invindex::Posting::VoScratch scratch;
        invindex::Posting::PutVo(w, std::span<const invindex::Posting>(&p, 1),
                                 false, &scratch);
      }
      w.PutU8(3);  // has_remaining | filter_included
      crypto::PutDigest(w, crypto::Digest::Zero());
      w.PutBlob(filters[li]->Serialize());
    }
    invindex::InvVerifyResult out;
    Status st = invindex::VerifyInvVo(kind, w.Take(), query, {1}, 1, true,
                                      &out);
    ASSERT_FALSE(st.ok()) << KindName(kind);
    EXPECT_NE(st.message().find("filter geometry differs"), std::string::npos)
        << KindName(kind) << ": " << st.message();
  }
}

TEST(ParserFuzzTest, CuckooDeserializeNeverCrashes) {
  Rng rng(3);
  for (int t = 0; t < 2000; ++t) {
    Bytes data = RandomBytes(rng, 256);
    (void)cuckoo::CuckooFilter::Deserialize(data);
  }
}

TEST(ParserFuzzTest, RevealDeserializeNeverCrashes) {
  Rng rng(4);
  for (int t = 0; t < 2000; ++t) {
    Bytes data = RandomBytes(rng, 512);
    ByteReader r(data);
    std::vector<mrkd::ClusterReveal> out;
    (void)mrkd::DeserializeReveals(r, 64, &out);
  }
}

TEST(ParserFuzzTest, TruncationsOfValidVoNeverCrash) {
  // Every prefix of a real VO must fail cleanly, not crash.
  workload::CorpusParams cp;
  cp.num_images = 100;
  cp.num_clusters = 64;
  auto corpus = workload::GenerateCorpus(cp);
  std::vector<bovw::BovwVector> vecs;
  for (auto& [id, v] : corpus) vecs.push_back(v);
  auto weights = bovw::ClusterWeights::FromCorpus(64, vecs);
  auto query = workload::QueryFromImage(cp, corpus[7].second, 30, 0.2, 9);
  invindex::InvSearchParams params;
  params.k = 3;
  int accepted = 0;
  for (invindex::EntryKind kind : kEntryKinds) {
    auto index =
        invindex::InvertedIndex::Build(kind, 64, corpus, weights, true);
    auto honest = invindex::InvSearch(index, query, params);
    std::vector<bovw::ImageId> claimed;
    for (auto& si : honest.topk) claimed.push_back(si.id);

    size_t step = std::max<size_t>(1, honest.vo.size() / 200);
    for (size_t len = 0; len < honest.vo.size(); len += step) {
      Bytes prefix(honest.vo.begin(), honest.vo.begin() + len);
      invindex::InvVerifyResult out;
      if (invindex::VerifyInvVo(kind, prefix, query, claimed, 3, true, &out)
              .ok()) {
        ++accepted;
      }
    }
  }
  EXPECT_EQ(accepted, 0) << "no strict prefix may verify";
}

// ---------------------------------------------------------------------------
// Adversarial matrix against the concurrent serving path: the same cheating
// strategies a rational SP could mount, but mounted on responses served by
// the QueryEngine. The engine must not open any hole the serial path does
// not have — a client holding the snapshot's PublicParams rejects each.
// ---------------------------------------------------------------------------

class EngineAdversaryTest : public ::testing::Test {
 public:
  EngineAdversaryTest() {
    core::Config config = core::Config::ImageProof();  // plain inv layout
    config.rsa_bits = 512;
    workload::CorpusParams cp;
    cp.num_images = 300;
    cp.num_clusters = 128;
    cp.seed = 13;
    auto corpus = workload::GenerateCorpus(cp);
    std::unordered_map<bovw::ImageId, Bytes> blobs;
    for (const auto& [id, v] : corpus) {
      blobs[id] = workload::GenerateImageBlob(id);
    }
    workload::CodebookParams cbp;
    cbp.num_clusters = 128;
    cbp.dims = 16;
    owner_ = core::BuildDeployment(config, workload::GenerateCodebook(cbp),
                                   std::move(corpus), std::move(blobs));
    package_ =
        std::shared_ptr<const core::SpPackage>(std::move(owner_.package));
    core::EngineOptions opts;
    opts.num_workers = 2;
    opts.intra_query_threads = 2;
    engine_ = std::make_unique<core::QueryEngine>(
        package_, owner_.public_params, opts);
    features_ =
        workload::GenerateQueryFeatures(package_->codebook, 10, 0.3, 21);
    honest_ = engine_->Submit(features_, 5).get();
  }

  // Verifies `vo` against the params of the snapshot that served `honest_`.
  bool Accepts(const core::QueryVO& vo) {
    core::Client client(honest_.snapshot->params);
    return client.Verify(features_, 5, vo).ok();
  }

  core::OwnerOutput owner_;
  std::shared_ptr<const core::SpPackage> package_;
  std::unique_ptr<core::QueryEngine> engine_;
  std::vector<std::vector<float>> features_;
  core::EngineResponse honest_;
};

TEST_F(EngineAdversaryTest, HonestResponseAccepted) {
  EXPECT_TRUE(Accepts(honest_.response.vo));
}

TEST_F(EngineAdversaryTest, TamperMatrixRejected) {
  struct TamperCase {
    const char* name;
    std::function<bool(core::QueryVO*)> mutate;  // false = skip (no target)
  };
  const size_t dims = package_->codebook.dims();
  std::vector<TamperCase> cases;

  // 1. Dropped reveal: hide one revealed candidate cluster — the client can
  // then no longer authenticate that candidate's exclusion/assignment.
  cases.push_back({"dropped_reveal", [dims](core::QueryVO* vo) {
                     ByteReader r(vo->reveal_section);
                     std::vector<mrkd::ClusterReveal> reveals;
                     if (!mrkd::DeserializeReveals(r, dims, &reveals).ok() ||
                         reveals.empty()) {
                       return false;
                     }
                     reveals.pop_back();
                     ByteWriter w;
                     mrkd::SerializeReveals(reveals, w);
                     vo->reveal_section = w.Take();
                     return true;
                   }});

  // 2. Swapped posting entry: reorder two popped postings inside one
  // inverted-list stream (breaks the impact order or the chain digest).
  cases.push_back({"swapped_posting_entry", [](core::QueryVO* vo) {
                     auto lists = ParseVo(vo->inv_vo);
                     for (auto& l : lists) {
                       if (l.popped.size() >= 2) {
                         std::swap(l.popped[0], l.popped[1]);
                         vo->inv_vo = Reserialize(lists);
                         return true;
                       }
                     }
                     return false;
                   }});

  // 3. Truncated inv VO: chop the tail of the inverted-index proof.
  cases.push_back({"truncated_inv_vo", [](core::QueryVO* vo) {
                     if (vo->inv_vo.size() < 8) return false;
                     vo->inv_vo.resize(vo->inv_vo.size() - 7);
                     return true;
                   }});

  for (const TamperCase& tc : cases) {
    core::QueryVO tampered = honest_.response.vo;
    if (!tc.mutate(&tampered)) {
      ADD_FAILURE() << tc.name << ": no mutation target in this VO";
      continue;
    }
    EXPECT_FALSE(Accepts(tampered)) << "accepted tampered VO: " << tc.name;
  }
}

TEST_F(EngineAdversaryTest, MemoizedProofsByteIdenticalAndTamperEvident) {
  // honest_ was served through the engine, with its worker scratch and
  // intra-query threads. This package commits full vectors, so it has no
  // dim trees (query_cache_test serves a dim-Merkle one, whose trees the
  // engine and direct serves share). A direct serial serve must produce
  // the same bytes, and the engine's proof sections stay tamper-evident.
  core::ServiceProvider cold_sp(package_.get());
  Bytes cold = cold_sp.Query(features_, 5).vo.Serialize();
  EXPECT_EQ(honest_.response.vo.Serialize(), cold);

  // Flip one byte in each MRKD proof section; every mutant must be
  // rejected (parse failure or digest mismatch — never acceptance).
  for (size_t t = 0; t < honest_.response.vo.tree_vos.size(); ++t) {
    core::QueryVO tampered = honest_.response.vo;
    Bytes& stream = tampered.tree_vos[t];
    ASSERT_FALSE(stream.empty());
    stream[stream.size() / 2] ^= 0x10;
    EXPECT_FALSE(Accepts(tampered)) << "tree_vos[" << t << "]";
  }
  core::QueryVO tampered = honest_.response.vo;
  ASSERT_FALSE(tampered.reveal_section.empty());
  tampered.reveal_section[tampered.reveal_section.size() / 3] ^= 0x04;
  EXPECT_FALSE(Accepts(tampered)) << "reveal_section";
}

TEST_F(EngineAdversaryTest, CompressedResponseTamperRejected) {
  core::SubmitOptions compressed;
  compressed.compress_vo = true;
  core::EngineResponse resp = engine_->Submit(features_, 5, compressed).get();
  ASSERT_TRUE(resp.ok());
  // The compressed framing verifies as-is (the hardened parsers decode the
  // group-varint sections before any digest is checked) ...
  ASSERT_TRUE(Accepts(resp.response.vo));
  // ... and every byte of the compressed inv section is load-bearing: the
  // decoded values feed digest reconstruction, so flips surface as parse
  // errors or digest mismatches, never different accepted results.
  const Bytes& inv = resp.response.vo.inv_vo;
  ASSERT_FALSE(inv.empty());
  size_t step = std::max<size_t>(1, inv.size() / 256);
  for (size_t pos = 0; pos < inv.size(); pos += step) {
    core::QueryVO tampered = resp.response.vo;
    tampered.inv_vo[pos] ^= 0x01;
    EXPECT_FALSE(Accepts(tampered)) << "compressed inv_vo byte " << pos;
  }
  // Truncation of the compressed stream is kCorrupted territory, not UB.
  core::QueryVO truncated = resp.response.vo;
  truncated.inv_vo.resize(truncated.inv_vo.size() / 2);
  EXPECT_FALSE(Accepts(truncated));
}

TEST_F(EngineAdversaryTest, TruncatedSerializedVoRejected) {
  // A network- or SP-truncated VO: every strict prefix of the serialized
  // honest response must be rejected with a specific error — either the
  // parser reports kCorrupted or the parsed remains fail verification.
  // Never a crash, never an accept.
  Bytes wire = honest_.response.vo.Serialize();
  ASSERT_GT(wire.size(), 16u);
  for (size_t len : {wire.size() - 1, wire.size() - 7, wire.size() / 2,
                     wire.size() / 4, size_t{16}, size_t{1}, size_t{0}}) {
    Bytes truncated(wire.begin(), wire.begin() + len);
    core::QueryVO vo;
    Status s = core::QueryVO::Deserialize(truncated, &vo);
    if (s.ok()) {
      EXPECT_FALSE(Accepts(vo)) << "accepted VO truncated to " << len;
    } else {
      EXPECT_EQ(s.code(), StatusCode::kCorrupted) << s.message();
    }
  }
}

TEST_F(EngineAdversaryTest, SplicedVoRejected) {
  // Splice attack: a valid header/prefix from the honest response combined
  // with the body of a DIFFERENT query's response, served by the same
  // engine. Both messages are individually authentic, so every digest in
  // each half is genuine — only the cross-binding to this query's features
  // can reject the hybrid.
  auto foreign_features =
      workload::GenerateQueryFeatures(package_->codebook, 10, 0.3, 77);
  core::EngineResponse foreign = engine_->Submit(foreign_features, 5).get();
  ASSERT_TRUE(foreign.ok());

  // Field-level splices: swap one VO section wholesale.
  {
    core::QueryVO hybrid = honest_.response.vo;
    hybrid.inv_vo = foreign.response.vo.inv_vo;
    EXPECT_FALSE(Accepts(hybrid)) << "accepted foreign inverted-index proof";
  }
  {
    core::QueryVO hybrid = honest_.response.vo;
    hybrid.reveal_section = foreign.response.vo.reveal_section;
    hybrid.tree_vos = foreign.response.vo.tree_vos;
    EXPECT_FALSE(Accepts(hybrid)) << "accepted foreign BoVW proof";
  }

  // Byte-level splices: honest prefix + foreign suffix at several cuts.
  Bytes a = honest_.response.vo.Serialize();
  Bytes b = foreign.response.vo.Serialize();
  for (size_t cut : {size_t{8}, a.size() / 4, a.size() / 2, 3 * a.size() / 4}) {
    ASSERT_LT(cut, a.size());
    size_t fcut = std::min(cut, b.size());
    Bytes spliced(a.begin(), a.begin() + cut);
    spliced.insert(spliced.end(), b.begin() + fcut, b.end());
    core::QueryVO vo;
    Status s = core::QueryVO::Deserialize(spliced, &vo);
    if (s.ok()) {
      EXPECT_FALSE(Accepts(vo)) << "accepted splice at " << cut;
    } else {
      EXPECT_EQ(s.code(), StatusCode::kCorrupted) << s.message();
    }
  }
}

TEST_F(EngineAdversaryTest, StaleSignatureRejected) {
  // The SP updates the deployment, then tries to pass off a response served
  // under the NEW root to a client still holding (or replaying) the OLD
  // public parameters — and vice versa. Both directions must fail: a root
  // signature authenticates exactly one package state.
  auto old_params = honest_.snapshot->params;
  workload::CorpusParams qp;
  qp.num_clusters = 128;
  auto ins = engine_->InsertImage(owner_.private_key, 31000,
                                  workload::GenerateQueryBovw(qp, 20, 3),
                                  workload::GenerateImageBlob(31000));
  ASSERT_TRUE(ins.ok()) << ins.status().message();

  core::EngineResponse fresh = engine_->Submit(features_, 5).get();
  ASSERT_GT(fresh.snapshot->version, honest_.snapshot->version);

  // New response under old params: stale signature, reject.
  core::Client stale_client(old_params);
  EXPECT_FALSE(stale_client.Verify(features_, 5, fresh.response.vo).ok());
  // Old (replayed) response under new params: also reject.
  core::Client new_client(fresh.snapshot->params);
  EXPECT_FALSE(new_client.Verify(features_, 5, honest_.response.vo).ok());
  // Each verifies under its own snapshot.
  EXPECT_TRUE(new_client.Verify(features_, 5, fresh.response.vo).ok());
  EXPECT_TRUE(stale_client.Verify(features_, 5, honest_.response.vo).ok());
}

// ---------------------------------------------------------------------------
// The client verifies the inverted-index VO's parse step on a helper thread
// while it replays the BoVW proof. The split must not show: errors keep
// their order, and an early failure joins the helper cleanly.
// ---------------------------------------------------------------------------

// The query's BoVW vector as the client derives it: each feature's exact
// nearest cluster, ties to the lower id.
bovw::BovwVector ExactQueryBovw(const ann::PointSet& codebook,
                                const std::vector<std::vector<float>>& fs) {
  std::vector<bovw::ClusterId> assignment;
  for (const std::vector<float>& f : fs) {
    bovw::ClusterId best_c = 0;
    double best = 0;
    for (size_t c = 0; c < codebook.size(); ++c) {
      double d = ann::SquaredL2(f.data(), codebook.row(c), codebook.dims());
      if (c == 0 || d < best) {
        best = d;
        best_c = static_cast<bovw::ClusterId>(c);
      }
    }
    assignment.push_back(best_c);
  }
  return bovw::CountAssignments(assignment);
}

TEST_F(EngineAdversaryTest, ReplayErrorOutranksInvertedFault) {
  core::Client client(honest_.snapshot->params);
  core::QueryVO tree_fault = honest_.response.vo;
  tree_fault.tree_vos[0][0] = 0x7F;  // the root's token kind
  core::QueryVO inv_fault = honest_.response.vo;
  inv_fault.inv_vo.resize(inv_fault.inv_vo.size() - 7);
  core::QueryVO both = tree_fault;
  both.inv_vo = inv_fault.inv_vo;

  auto replay = client.Verify(features_, 5, tree_fault);
  auto inv = client.Verify(features_, 5, inv_fault);
  ASSERT_FALSE(replay.ok());
  ASSERT_FALSE(inv.ok());
  EXPECT_NE(replay.status().message(), inv.status().message());
  EXPECT_EQ(replay.status().message(), "mrkd: unknown VO token");
  auto verified = client.Verify(features_, 5, both);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().message(), replay.status().message());
}

TEST_F(EngineAdversaryTest, InvertedOnlyFaultsGiveTheInvVerifierMessage) {
  const bovw::BovwVector query = ExactQueryBovw(package_->codebook, features_);
  auto claimed_of = [](const core::QueryVO& vo) {
    std::vector<bovw::ImageId> ids;
    for (const core::ResultImage& ri : vo.results) ids.push_back(ri.id);
    return ids;
  };
  auto inv_message = [&](const core::QueryVO& vo) {
    invindex::InvVerifyResult out;
    return invindex::VerifyInvVo(invindex::EntryKind::kPosting, vo.inv_vo,
                                 query, claimed_of(vo), 5, true, &out)
        .message();
  };
  ASSERT_EQ(inv_message(honest_.response.vo), "");

  // Each mutation edits the inverted VO or the claimed ids only; steps 1-3
  // of Client::Verify see the honest VO.
  struct Fault {
    const char* message;  // the guard message it must trip
    std::function<bool(std::vector<List>&, core::QueryVO*)> mutate;
  };
  auto first_popped = [](std::vector<List>& lists, size_t n) -> List* {
    for (List& l : lists) {
      if (l.popped.size() >= n && (l.flags & 1)) return &l;
    }
    return nullptr;
  };
  // The conditions trip on a list's popped prefix cut short, which raises
  // its cap; the first cut whose VO trips `message` is the fault.
  auto truncation_giving = [&](const std::string& message) {
    return [&, message](std::vector<List>& lists, core::QueryVO* vo) {
      for (size_t j = 0; j < lists.size(); ++j) {
        for (size_t m = 1; m < lists[j].popped.size(); ++m) {
          std::vector<List> cut = lists;
          cut[j].popped.resize(m);
          core::QueryVO probe = *vo;
          probe.inv_vo = Reserialize(cut);
          if (inv_message(probe) == message) {
            lists = std::move(cut);
            return true;
          }
        }
      }
      return false;
    };
  };
  std::vector<Fault> faults = {
      {"bounds: image popped twice in one list",
       [&](std::vector<List>& lists, core::QueryVO*) {
         List* l = first_popped(lists, 1);
         if (l == nullptr) return false;
         l->popped.insert(l->popped.begin() + 1, l->popped[0]);
         return true;
       }},
      {"bounds: postings not in impact order",
       [&](std::vector<List>& lists, core::QueryVO*) {
         for (List& l : lists) {
           if (l.popped.size() >= 2 &&
               l.popped[0].impact > l.popped[1].impact) {
             std::swap(l.popped[0], l.popped[1]);
             return true;
           }
         }
         return false;
       }},
      {"bounds: negative impact",
       [&](std::vector<List>& lists, core::QueryVO*) {
         List* l = first_popped(lists, 1);
         if (l == nullptr) return false;
         l->popped[0].impact = -l->popped[0].impact;
         return true;
       }},
      {"bounds: popped image missing from cuckoo filter",
       [&](std::vector<List>& lists, core::QueryVO*) {
         for (List& l : lists) {
           if (l.popped.empty() || !(l.flags & 2)) continue;
           auto f = cuckoo::CuckooFilter::Deserialize(l.filter);
           if (!f.ok()) return false;
           l.filter = cuckoo::CuckooFilter(f->params()).Serialize();
           return true;
         }
         return false;
       }},
      {"bytes: truncated input reading u32",
       [&](std::vector<List>& lists, core::QueryVO*) {
         for (List& l : lists) {
           if (!(l.flags & 2)) continue;
           l.filter.resize(3);
           return true;
         }
         return false;
       }},
      {"inv: filter geometry differs across lists",
       [&](std::vector<List>& lists, core::QueryVO*) {
         for (List& l : lists) {
           if (!(l.flags & 2)) continue;
           auto f = cuckoo::CuckooFilter::Deserialize(l.filter);
           if (!f.ok()) return false;
           cuckoo::CuckooParams other = f->params();
           other.num_buckets *= 2;
           l.filter = cuckoo::CuckooFilter(other).Serialize();
           return true;
         }
         return false;
       }},
      {"bytes: truncated input reading blob",
       [&](std::vector<List>&, core::QueryVO* vo) {
         vo->inv_vo.resize(vo->inv_vo.size() - 7);
         return true;
       }},
      {"inv: short result set with unpopped entries",
       [&](std::vector<List>&, core::QueryVO* vo) {
         if (vo->results.empty()) return false;
         vo->results.pop_back();
         return true;
       }},
      {"inv: short result set hides popped images",
       [&](std::vector<List>& lists, core::QueryVO* vo) {
         if (vo->results.empty()) return false;
         for (List& l : lists) {
           l.flags = 0;  // every list drained, no filter shipped
           l.theta = crypto::Digest::Zero();
         }
         vo->results.pop_back();
         return true;
       }},
      {"inv: claimed results are not the top-k popped images",
       [&](std::vector<List>& lists, core::QueryVO* vo) {
         const std::vector<bovw::ImageId> claimed = claimed_of(*vo);
         for (const List& l : lists) {
           for (const Entry& e : l.popped) {
             if (std::find(claimed.begin(), claimed.end(), e.id) ==
                 claimed.end()) {
               vo->results.back().id = e.id;
               return true;
             }
           }
         }
         return false;
       }},
      {"inv: condition 1 fails (unseen images may rank higher)",
       truncation_giving(
           "inv: condition 1 fails (unseen images may rank higher)")},
      {"inv: condition 2 fails (popped image may rank higher)",
       truncation_giving(
           "inv: condition 2 fails (popped image may rank higher)")},
  };

  core::Client client(honest_.snapshot->params);
  for (const Fault& fault : faults) {
    SCOPED_TRACE(fault.message);
    core::QueryVO vo = honest_.response.vo;
    std::vector<List> lists = ParseVo(vo.inv_vo);
    ASSERT_FALSE(lists.empty());
    ASSERT_TRUE(fault.mutate(lists, &vo)) << "no target for the fault";
    if (vo.inv_vo == honest_.response.vo.inv_vo) {
      vo.inv_vo = Reserialize(lists);
    }
    EXPECT_EQ(inv_message(vo), fault.message);
    auto verified = client.Verify(features_, 5, vo);
    ASSERT_FALSE(verified.ok());
    EXPECT_EQ(verified.status().message(), fault.message);
  }
}

// Verifies that fail in steps 1-3 return while the helper thread may still
// be parsing the inverted VO. Each must join it (ASan and TSan check the
// helper never outlives the locals it writes or races the caller on the
// VO).
TEST_F(EngineAdversaryTest, EarlyFailuresJoinTheParseThread) {
  core::Client client(honest_.snapshot->params);
  core::QueryVO bad_thresholds = honest_.response.vo;
  bad_thresholds.thresholds_sq.pop_back();
  core::QueryVO bad_reveals = honest_.response.vo;
  bad_reveals.reveal_section.resize(bad_reveals.reveal_section.size() / 2);
  core::QueryVO bad_tree = honest_.response.vo;
  bad_tree.tree_vos.back().resize(bad_tree.tree_vos.back().size() / 2);
  const core::QueryVO* vos[] = {&bad_thresholds, &bad_reveals, &bad_tree};
  std::string messages[3];
  for (int i = 0; i < 3; ++i) {
    auto verified = client.Verify(features_, 5, *vos[i]);
    ASSERT_FALSE(verified.ok());
    messages[i] = verified.status().message();
  }
  int mismatched = 0;
  for (int n = 0; n < 1000; ++n) {
    auto verified = client.Verify(features_, 5, *vos[n % 3]);
    if (verified.ok() || verified.status().message() != messages[n % 3]) {
      ++mismatched;
    }
  }
  EXPECT_EQ(mismatched, 0);
  EXPECT_TRUE(client.Verify(features_, 5, honest_.response.vo).ok());
}

// ---------------------------------------------------------------------------
// MITM over the wire: a protocol-aware adversary between a real NetServer
// and a real NetClient rewrites response frames mid-flight. This is the
// paper's threat model made literal — the transport gives no integrity, so
// Client::Verify alone must catch every rewrite of the results, the VO, or
// the root signature. (A transport-level MITM that garbles framing is the
// easy case: kCorrupted. These mutants keep the framing VALID.)
// ---------------------------------------------------------------------------

// One-shot TCP relay: accepts a single client connection, forwards request
// frames upstream verbatim, and passes each downstream (server -> client)
// frame through `rewrite` before relaying it. Frame-aware in both
// directions, so mutations operate on exactly one complete response frame.
class MitmProxy {
 public:
  MitmProxy(uint16_t upstream_port, std::function<Bytes(Bytes)> rewrite)
      : upstream_port_(upstream_port), rewrite_(std::move(rewrite)) {
    auto listener = net::ListenTcp("127.0.0.1", 0, &port_);
    EXPECT_TRUE(listener.ok());
    listener_ = std::move(listener).value();
    thread_ = std::thread([this] { Run(); });
  }

  ~MitmProxy() {
    if (thread_.joinable()) thread_.join();
  }

  uint16_t port() const { return port_; }

 private:
  // Blocking read of one complete frame from `fd` into *frame (raw bytes,
  // header included). False on peer close.
  static bool ReadFrame(int fd, Bytes* buffer, Bytes* frame) {
    net::FrameHeader header;
    Bytes payload;
    Status err;
    for (;;) {
      Bytes probe = *buffer;
      if (net::TryExtractFrame(&probe, &header, &payload, &err) ==
          net::ExtractResult::kFrame) {
        size_t frame_len = buffer->size() - probe.size();
        frame->assign(buffer->begin(), buffer->begin() + frame_len);
        buffer->erase(buffer->begin(), buffer->begin() + frame_len);
        return true;
      }
      uint8_t chunk[4096];
      auto got = net::RecvSome(fd, chunk, sizeof(chunk));
      if (!got.ok() || got.value() == 0) return false;
      buffer->insert(buffer->end(), chunk, chunk + got.value());
    }
  }

  void Run() {
    int client_fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (client_fd < 0) return;
    net::Socket client(client_fd);
    auto upstream = net::ConnectTcp("127.0.0.1", upstream_port_);
    if (!upstream.ok()) return;

    Bytes client_buf, upstream_buf;
    Bytes frame;
    while (ReadFrame(client.fd(), &client_buf, &frame)) {
      if (!net::SendAll(upstream->fd(), frame.data(), frame.size()).ok()) {
        return;
      }
      if (!ReadFrame(upstream->fd(), &upstream_buf, &frame)) return;
      Bytes rewritten = rewrite_(std::move(frame));
      if (!net::SendAll(client.fd(), rewritten.data(), rewritten.size())
               .ok()) {
        return;
      }
    }
  }

  uint16_t upstream_port_ = 0;
  std::function<Bytes(Bytes)> rewrite_;
  net::Socket listener_;
  uint16_t port_ = 0;
  std::thread thread_;
};

class WireMitmTest : public ::testing::Test {
 public:
  WireMitmTest() {
    core::Config config = core::Config::ImageProof();
    config.rsa_bits = 512;
    workload::CorpusParams cp;
    cp.num_images = 150;
    cp.num_clusters = 64;
    cp.seed = 29;
    auto corpus = workload::GenerateCorpus(cp);
    std::unordered_map<bovw::ImageId, Bytes> blobs;
    for (const auto& [id, v] : corpus) {
      blobs[id] = workload::GenerateImageBlob(id);
    }
    workload::CodebookParams cbp;
    cbp.num_clusters = 64;
    cbp.dims = 8;
    owner_ = core::BuildDeployment(config, workload::GenerateCodebook(cbp),
                                   std::move(corpus), std::move(blobs));
    package_ =
        std::shared_ptr<const core::SpPackage>(std::move(owner_.package));
    engine_ = std::make_unique<core::QueryEngine>(package_,
                                                  owner_.public_params);
    server_ = std::make_unique<net::NetServer>(engine_.get());
    EXPECT_TRUE(server_->Start().ok());
    features_ = workload::GenerateQueryFeatures(package_->codebook, 8, 0.3,
                                                41);
  }

  // Runs one query through a MITM applying `rewrite` to the response frame;
  // returns the client-side outcome.
  Status QueryThrough(std::function<Bytes(Bytes)> rewrite) {
    MitmProxy proxy(server_->port(), std::move(rewrite));
    auto client = net::NetClient::Connect("127.0.0.1", proxy.port(),
                                          owner_.public_params);
    if (!client.ok()) return client.status();
    auto result = client->Query(features_, 5, /*deadline_ms=*/30000);
    return result.ok() ? Status::Ok() : result.status();
  }

  // Decodes a response frame, hands the payload struct to `mutate`, and
  // re-frames — the protocol-aware rewrite every case below builds on.
  static Bytes RewriteResponse(
      Bytes frame, const std::function<void(net::ResponseFrame*)>& mutate) {
    net::FrameHeader header;
    Bytes payload;
    Status err;
    EXPECT_EQ(net::TryExtractFrame(&frame, &header, &payload, &err),
              net::ExtractResult::kFrame);
    EXPECT_EQ(header.type, net::FrameType::kResponse);
    net::ResponseFrame resp;
    EXPECT_TRUE(net::DecodeResponse(payload, &resp).ok());
    mutate(&resp);
    return net::EncodeFrame(net::FrameType::kResponse,
                            net::EncodeResponse(resp));
  }

  core::OwnerOutput owner_;
  std::shared_ptr<const core::SpPackage> package_;
  std::unique_ptr<core::QueryEngine> engine_;
  std::unique_ptr<net::NetServer> server_;
  std::vector<std::vector<float>> features_;
};

TEST_F(WireMitmTest, PassthroughVerifies) {
  // Control: the proxy itself must be transparent.
  Status st = QueryThrough([](Bytes frame) { return frame; });
  EXPECT_TRUE(st.ok()) << st.message();
}

TEST_F(WireMitmTest, FlippedVoBytesRejected) {
  // One byte anywhere in the VO stream: front, middle, back.
  for (double pos : {0.05, 0.5, 0.95}) {
    Status st = QueryThrough([pos](Bytes frame) {
      return RewriteResponse(std::move(frame), [pos](net::ResponseFrame* r) {
        r->vo_bytes[static_cast<size_t>(pos * r->vo_bytes.size())] ^= 0x01;
      });
    });
    EXPECT_FALSE(st.ok()) << "flip at " << pos << " accepted";
  }
}

TEST_F(WireMitmTest, TamperedResultImageRejected) {
  // Surgically rewrite a RESULT: deserialize the VO, flip one byte of the
  // top result's image payload, reserialize. Eq. (15) signatures must catch
  // it even though every proof structure around it is untouched.
  Status st = QueryThrough([](Bytes frame) {
    return RewriteResponse(std::move(frame), [](net::ResponseFrame* r) {
      core::QueryVO vo;
      ASSERT_TRUE(core::QueryVO::Deserialize(r->vo_bytes, &vo).ok());
      ASSERT_FALSE(vo.results.empty());
      vo.results[0].data[0] ^= 0xFF;
      r->vo_bytes = vo.Serialize();
    });
  });
  EXPECT_FALSE(st.ok());
}

TEST_F(WireMitmTest, SwappedResultIdRejected) {
  Status st = QueryThrough([](Bytes frame) {
    return RewriteResponse(std::move(frame), [](net::ResponseFrame* r) {
      core::QueryVO vo;
      ASSERT_TRUE(core::QueryVO::Deserialize(r->vo_bytes, &vo).ok());
      ASSERT_FALSE(vo.results.empty());
      vo.results[0].id ^= 1;  // claim a different image produced these bytes
      r->vo_bytes = vo.Serialize();
    });
  });
  EXPECT_FALSE(st.ok());
}

TEST_F(WireMitmTest, TamperedSignatureRejected) {
  for (auto mutate : {
           +[](net::ResponseFrame* r) { r->root_signature[0] ^= 0x01; },
           +[](net::ResponseFrame* r) { r->root_signature.pop_back(); },
           +[](net::ResponseFrame* r) { r->root_signature.clear(); },
       }) {
    Status st = QueryThrough([mutate](Bytes frame) {
      return RewriteResponse(std::move(frame), mutate);
    });
    EXPECT_FALSE(st.ok());
  }
}

TEST_F(WireMitmTest, SubstitutedVoRejected) {
  // Replace the whole VO with one served for a DIFFERENT query — every
  // byte individually authentic, but not an answer to what the client
  // asked. The replay must fail against the client's own features.
  core::ServiceProvider sp(package_.get());
  auto other_features =
      workload::GenerateQueryFeatures(package_->codebook, 8, 0.3, 99);
  Bytes other_vo = sp.Query(other_features, 5).vo.Serialize();
  Status st = QueryThrough([&other_vo](Bytes frame) {
    return RewriteResponse(std::move(frame), [&](net::ResponseFrame* r) {
      r->vo_bytes = other_vo;
    });
  });
  EXPECT_FALSE(st.ok());
}

TEST_F(WireMitmTest, AdvisoryVersionMutationStillVerifies) {
  // The one field a MITM may touch without detection: snapshot_version is
  // advisory metadata, authenticated by nothing — the test documents that
  // boundary (and that the VO it arrives with still verifies).
  Status st = QueryThrough([](Bytes frame) {
    return RewriteResponse(std::move(frame), [](net::ResponseFrame* r) {
      r->snapshot_version = 424242;
    });
  });
  EXPECT_TRUE(st.ok()) << st.message();
}

// ---------------------------------------------------------------------------
// Adversarial composite-merge matrix (sharded scatter-gather)
// ---------------------------------------------------------------------------
//
// A malicious coordinator holds N individually valid per-shard VOs, all
// signed by the same owner key — the composite layer is what stops it from
// recombining them dishonestly. Each attack below mutates a REAL composite
// (decode, edit fields, re-encode), and VerifyComposite must reject every
// one; the honest bytes are accepted as the control.

class CompositeAdversaryTest : public ::testing::Test {
 public:
  CompositeAdversaryTest() {
    core::Config config = core::Config::ImageProof();
    config.rsa_bits = 512;
    workload::CorpusParams cp;
    cp.num_images = 120;
    cp.num_clusters = 96;
    cp.min_distinct = 4;
    cp.max_distinct = 14;
    cp.seed = 21;
    corpus_ = workload::GenerateCorpus(cp);
    for (const auto& [id, v] : corpus_) {
      blobs_[id] = workload::GenerateImageBlob(id);
    }
    workload::CodebookParams cbp;
    cbp.num_clusters = 96;
    cbp.dims = 12;
    cbp.seed = 22;
    codebook_ = workload::GenerateCodebook(cbp);
    features_ = workload::FeaturesFromBovw(codebook_, corpus_[3].second, 24,
                                           0.2, 0.1, 99);

    shard::ShardedDeployment dep =
        shard::ShardPlanner::Build(config, codebook_, corpus_, blobs_, 2);
    base_params_ = dep.shards[0].public_params;
    keys_ = dep.keys;
    // Keep shard 0's package shared so UnsettledScores can serve it raw.
    std::vector<std::unique_ptr<shard::ShardBackend>> backends;
    for (core::OwnerOutput& s : dep.shards) {
      std::shared_ptr<const core::SpPackage> pkg(std::move(s.package));
      if (packages_.empty()) packages_.push_back(pkg);
      backends.push_back(std::make_unique<shard::LocalShardBackend>(
          std::move(pkg), s.public_params, dep.keys.private_key));
    }
    coordinator_ = std::make_unique<shard::Coordinator>(
        std::move(backends), dep.manifest, dep.keys.private_key,
        shard::CoordinatorOptions{});
    Result<Bytes> r = coordinator_->Query(features_, 5);
    EXPECT_TRUE(r.ok());
    honest_bytes_ = *r;
    EXPECT_TRUE(
        shard::CompositeVO::Deserialize(honest_bytes_, &honest_).ok());
  }

  bool Accepts(const shard::CompositeVO& vo) {
    shard::CompositeClient client(base_params_);
    return client.VerifyComposite(features_, 5, vo.Serialize()).ok();
  }

  std::vector<std::pair<bovw::ImageId, bovw::BovwVector>> corpus_;
  std::unordered_map<bovw::ImageId, Bytes> blobs_;
  ann::PointSet codebook_;
  std::vector<std::vector<float>> features_;
  core::PublicParams base_params_;
  crypto::RsaKeyPair keys_;
  std::vector<std::shared_ptr<const core::SpPackage>> packages_;
  std::unique_ptr<shard::Coordinator> coordinator_;
  Bytes honest_bytes_;
  shard::CompositeVO honest_;
};

TEST_F(CompositeAdversaryTest, HonestCompositeAccepted) {
  EXPECT_TRUE(Accepts(honest_));
}

TEST_F(CompositeAdversaryTest, DroppedShardRejected) {
  // The dropped shard might hold a better result; coverage must be total.
  shard::CompositeVO vo = honest_;
  vo.entries.resize(1);
  EXPECT_FALSE(Accepts(vo));
  shard::CompositeVO vo2 = honest_;
  vo2.entries.erase(vo2.entries.begin());  // drop shard 0, keep shard 1
  EXPECT_FALSE(Accepts(vo2));
}

TEST_F(CompositeAdversaryTest, ReorderedEntriesRejected) {
  shard::CompositeVO vo = honest_;
  std::swap(vo.entries[0], vo.entries[1]);
  EXPECT_FALSE(Accepts(vo));
}

TEST_F(CompositeAdversaryTest, SplicedEntryRejected) {
  // Shard 0's (individually valid, owner-signed) VO answering shard 1's
  // slot: the replayed root is not in slot 1's digest set.
  shard::CompositeVO vo = honest_;
  vo.entries[1] = vo.entries[0];
  vo.entries[1].shard_id = 1;
  EXPECT_FALSE(Accepts(vo));
}

TEST_F(CompositeAdversaryTest, DuplicatedEntryRejected) {
  shard::CompositeVO vo = honest_;
  vo.entries.push_back(vo.entries[1]);
  EXPECT_FALSE(Accepts(vo));
}

TEST_F(CompositeAdversaryTest, StaleRootBeyondWindowRejected) {
  // Two epoch swaps on shard 0 age its original root out of the
  // {current, prev} window; replaying the original response is a rollback.
  const auto& corpus_vec = packages_[0]->corpus;
  ASSERT_TRUE(coordinator_
                  ->Insert(1000, corpus_vec[0].second,
                           workload::GenerateImageBlob(1000))
                  .ok());
  ASSERT_TRUE(coordinator_
                  ->Insert(1002, corpus_vec[1].second,
                           workload::GenerateImageBlob(1002))
                  .ok());
  Result<Bytes> fresh = coordinator_->Query(features_, 5);
  ASSERT_TRUE(fresh.ok());
  shard::CompositeVO vo;
  ASSERT_TRUE(shard::CompositeVO::Deserialize(*fresh, &vo).ok());
  vo.entries[0] = honest_.entries[0];
  EXPECT_FALSE(Accepts(vo));
}

TEST_F(CompositeAdversaryTest, TamperedManifestRejected) {
  shard::CompositeVO vo = honest_;
  ASSERT_FALSE(vo.manifest_bytes.empty());
  vo.manifest_bytes[vo.manifest_bytes.size() / 2] ^= 0x01;
  EXPECT_FALSE(Accepts(vo));
}

TEST_F(CompositeAdversaryTest, SubstitutedManifestRejected) {
  // A structurally valid manifest signed by a DIFFERENT key (an SP's own):
  // the owner-key signature check must refuse it.
  Rng rng(91);
  crypto::RsaKeyPair forged_keys = crypto::RsaKeyPair::Generate(512, rng);
  shard::ShardManifest m;
  ASSERT_TRUE(
      shard::ShardManifest::Deserialize(honest_.manifest_bytes, &m).ok());
  m.Sign(forged_keys.private_key);
  shard::CompositeVO vo = honest_;
  vo.manifest_bytes = m.Serialize();
  EXPECT_FALSE(Accepts(vo));
}

TEST_F(CompositeAdversaryTest, UnsettledScoresRejected) {
  // A plain (non-settled) serve yields a perfectly valid VO whose scores
  // are only lower bounds — which would let a shard deflate a score to
  // eject an image from the global merge, so exactness is mandatory. The
  // filterless Baseline config makes inexactness structural (absence from
  // a non-exhausted list is unprovable without filters), so the plain
  // serve below is guaranteed un-settled while the coordinator's settled
  // serve of the same deployment drains to exact scores.
  core::Config config = core::Config::Baseline();
  config.rsa_bits = 512;
  // A corpus big enough that posting lists outlive the bound-resolution
  // pops (short lists drain completely, which would make even a plain
  // serve exact and void the attack).
  workload::CorpusParams cp;
  cp.num_images = 600;
  cp.num_clusters = 128;
  cp.seed = 31;
  auto corpus = workload::GenerateCorpus(cp);
  std::unordered_map<bovw::ImageId, Bytes> blobs;
  for (const auto& [id, v] : corpus) blobs[id] = workload::GenerateImageBlob(id);
  workload::CodebookParams cbp;
  cbp.num_clusters = 128;
  cbp.dims = 12;
  cbp.seed = 32;
  ann::PointSet codebook = workload::GenerateCodebook(cbp);
  std::vector<std::vector<float>> features =
      workload::FeaturesFromBovw(codebook, corpus[3].second, 40, 0.2, 0.3, 99);
  shard::ShardedDeployment dep =
      shard::ShardPlanner::Build(config, codebook, corpus, blobs, 2);
  const core::PublicParams base = dep.shards[0].public_params;
  std::shared_ptr<const core::SpPackage> shard0(std::move(dep.shards[0].package));
  std::shared_ptr<const core::SpPackage> shard1(std::move(dep.shards[1].package));
  std::vector<std::unique_ptr<shard::ShardBackend>> backends;
  backends.push_back(std::make_unique<shard::LocalShardBackend>(
      shard0, dep.shards[0].public_params, dep.keys.private_key));
  backends.push_back(std::make_unique<shard::LocalShardBackend>(
      shard1, dep.shards[1].public_params, dep.keys.private_key));
  shard::Coordinator coord(std::move(backends), dep.manifest,
                           dep.keys.private_key, shard::CoordinatorOptions{});
  Result<Bytes> honest = coord.Query(features, 5);
  ASSERT_TRUE(honest.ok()) << honest.status().message();
  shard::CompositeClient client(base);
  ASSERT_TRUE(client.VerifyComposite(features, 5, *honest).ok());

  core::ServiceProvider sp(shard0.get());
  core::QueryResponse resp;
  ASSERT_TRUE(sp.Query(features, 5, {}, {}, {}, &resp).ok());
  core::Client plain(base);
  Result<core::VerifiedResults> unsettled =
      plain.Verify(features, 5, resp.vo);
  ASSERT_TRUE(unsettled.ok());
  ASSERT_FALSE(unsettled->topk_scores_exact);  // the attack's precondition

  shard::CompositeVO vo;
  ASSERT_TRUE(shard::CompositeVO::Deserialize(*honest, &vo).ok());
  vo.entries[0].vo_bytes = resp.vo.Serialize();
  EXPECT_FALSE(client.VerifyComposite(features, 5, vo.Serialize()).ok());
}

TEST_F(CompositeAdversaryTest, TamperedEntrySignatureRejected) {
  shard::CompositeVO vo = honest_;
  ASSERT_FALSE(vo.entries[0].root_signature.empty());
  vo.entries[0].root_signature[0] ^= 0x01;
  EXPECT_FALSE(Accepts(vo));
}

}  // namespace
}  // namespace imageproof
