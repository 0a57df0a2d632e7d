// SHA3-256 known-answer tests (FIPS 202 / NIST CAVP style vectors).
//
// These pin the from-scratch Keccak to the spec independently of the rest of
// the suite: empty input, short strings, multi-block messages, and lengths
// straddling the rate boundary (135/136/137 and 271/272/273 bytes for the
// 136-byte SHA3-256 rate), where the padding rules are easiest to get wrong.
// Expected values generated with Python hashlib.sha3_256 and cross-checked
// against the NIST example values where published (empty, "abc", 200x 0xA3).
//
// The batch API (crypto/hasher.h HashBatch/HashPairBatch) is exercised here
// too: whatever lane-interleaved path serves a given batch size must produce
// exactly the serial digests.
//
// Below the sponge, Keccak-f[1600] itself is pinned to the published
// all-zero-state output on every path the library can take: the scalar and
// 2-way instantiations of the shared round body, and the 4-lane dispatch at
// every busy-lane mask (AVX2 where the CPU has it, the portable pairs in an
// IMAGEPROOF_NO_AVX2 build or run).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "crypto/hasher.h"
#include "crypto/keccak_impl.h"
#include "crypto/sha3.h"

namespace imageproof::crypto {
namespace {

Bytes AsciiBytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

struct KatVector {
  const char* name;
  Bytes input;
  const char* digest_hex;
};

std::vector<KatVector> KnownAnswerVectors() {
  return {
      {"empty", Bytes{},
       "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"},
      {"abc", AsciiBytes("abc"),
       "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"},
      {"alpha_448bit",
       AsciiBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
       "41c0dba2a9d6240849100376a8235e2c82e1b9998a999e21db32dd97496d3376"},
      {"alpha_896bit",
       AsciiBytes("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                  "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
       "916f6061fe879741ca6469b43971dfdb28b1a32dc36cb3254e812be27aad1d18"},
      // One byte: exercises the 0x06 || ... || 0x80 padding in isolation,
      // including the input byte that equals the domain separator.
      {"single_0xff", Bytes(1, 0xFF),
       "444b89ecce395aec5dc98f19defd3a23bca0822fc72226f58ca46a17eeeca442"},
      {"single_0x06", Bytes(1, 0x06),
       "5a3442340ee31fa728f182f7dbaef4825025f40378061428bcc9f859aa4c294a"},
      // Rate-boundary lengths (rate = 136 bytes). 135: padding squeezes into
      // the first block; 136: padding forces an entire extra block; 137: one
      // full block plus a one-byte tail.
      {"a3_x135", Bytes(135, 0xA3),
       "d51927265ca4bf0cc8b4453387700918c03f8894e395ad437d4573f3be4d2c34"},
      {"a3_x136", Bytes(136, 0xA3),
       "0adf6bfb359ae40019b67d8c49c361574b70242a6b752de6f9e0d426ca177f7a"},
      {"a3_x137", Bytes(137, 0xA3),
       "e2fa06eaa22fe60106af67d5f6ea093fe58f07d2dcfb06d51057953f114849a7"},
      // 200x 0xA3 is the NIST FIPS 202 example file value.
      {"a3_x200", Bytes(200, 0xA3),
       "79f38adec5c20307a98ef76e8324afbfd46cfd81b22e3973c65fa1bd9de31787"},
      // Two-block boundary.
      {"a3_x271", Bytes(271, 0xA3),
       "4a247a29191b7f1972cb50605c3e73ebc595d7a4744824bb635b32af7d273570"},
      {"a3_x272", Bytes(272, 0xA3),
       "c4742d97ad8ff950c0b5b078600ab1908c864c75b60f419e2d208dfc26a8ba11"},
      {"a3_x273", Bytes(273, 0xA3),
       "45e4a8772aa7f29907a00912f5eef4fb0bc19bd51b3d153c34216a4cdb099270"},
  };
}

TEST(Sha3KatTest, OneShotVectors) {
  for (const KatVector& v : KnownAnswerVectors()) {
    EXPECT_EQ(Sha3(v.input).ToHex(), v.digest_hex) << v.name;
  }
}

TEST(Sha3KatTest, IncrementalByteAtATimeVectors) {
  // Feeding one byte per Update must hit every buffered-absorb path.
  for (const KatVector& v : KnownAnswerVectors()) {
    Sha3_256 h;
    for (uint8_t b : v.input) h.Update(&b, 1);
    EXPECT_EQ(h.Finalize().ToHex(), v.digest_hex) << v.name;
  }
}

TEST(Sha3KatTest, MillionAs) {
  // NIST long-message example: 1,000,000 repetitions of 'a'.
  Sha3_256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(h.Finalize().ToHex(),
            "5c8875ae474a3634ba4fd55ec85bffd661f32aca75c6d699d0cdcb6c115891c1");
}

// ---------------------------------------------------------------------------
// Batch API must be byte-identical to the serial sponge.
// ---------------------------------------------------------------------------

TEST(Sha3BatchTest, KatVectorsThroughHashBatch) {
  auto vectors = KnownAnswerVectors();
  std::vector<BytesView> views;
  views.reserve(vectors.size());
  for (const KatVector& v : vectors) views.push_back(BytesView(v.input));
  std::vector<Digest> out(vectors.size());
  HashBatch(views.data(), out.data(), views.size());
  for (size_t i = 0; i < vectors.size(); ++i) {
    EXPECT_EQ(out[i].ToHex(), vectors[i].digest_hex) << vectors[i].name;
  }
}

TEST(Sha3BatchTest, RandomLengthsMatchSerial) {
  Rng rng(2024);
  // Batch sizes around the 4-lane width, message lengths spanning zero to
  // several blocks so lanes finish at different times and refill.
  for (size_t batch : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                       size_t{7}, size_t{8}, size_t{13}, size_t{64}}) {
    std::vector<Bytes> msgs(batch);
    for (auto& m : msgs) {
      size_t len = rng.NextBounded(600);
      m.resize(len);
      for (auto& b : m) b = static_cast<uint8_t>(rng.NextU64());
    }
    std::vector<BytesView> views;
    for (const auto& m : msgs) views.push_back(BytesView(m));
    std::vector<Digest> batched(batch);
    HashBatch(views.data(), batched.data(), batch);
    for (size_t i = 0; i < batch; ++i) {
      EXPECT_EQ(batched[i], Sha3(msgs[i])) << "batch=" << batch << " i=" << i;
    }
  }
}

TEST(Sha3BatchTest, ExactRateMultiplesMatchSerial) {
  // Lengths that are multiples of the rate need a full padding block; make
  // sure the lane scheduler agrees with the serial path there.
  for (size_t len : {size_t{0}, size_t{136}, size_t{272}, size_t{408}}) {
    std::vector<Bytes> msgs(4, Bytes(len, 0x5A));
    for (size_t i = 0; i < msgs.size(); ++i) {
      if (!msgs[i].empty()) msgs[i][0] = static_cast<uint8_t>(i);
    }
    std::vector<BytesView> views;
    for (const auto& m : msgs) views.push_back(BytesView(m));
    std::vector<Digest> batched(msgs.size());
    HashBatch(views.data(), batched.data(), msgs.size());
    for (size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(batched[i], Sha3(msgs[i])) << "len=" << len << " i=" << i;
    }
  }
}

TEST(Sha3BatchTest, HashPairBatchMatchesHashPair) {
  Rng rng(7);
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{9},
                   size_t{33}}) {
    std::vector<Digest> left(n), right(n), out(n);
    for (size_t i = 0; i < n; ++i) {
      for (auto& b : left[i].bytes) b = static_cast<uint8_t>(rng.NextU64());
      for (auto& b : right[i].bytes) b = static_cast<uint8_t>(rng.NextU64());
    }
    HashPairBatch(left.data(), right.data(), out.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], HashPair(left[i], right[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Sha3BatchTest, HashInvocationCounterAdvances) {
  uint64_t before = HashInvocations();
  (void)Sha3(Bytes{});
  Digest d{};
  (void)HashPair(d, d);
  std::vector<BytesView> views(3, BytesView(nullptr, 0));
  std::vector<Digest> out(3);
  HashBatch(views.data(), out.data(), views.size());
  EXPECT_EQ(HashInvocations() - before, 5u);
}

// ---------------------------------------------------------------------------
// Keccak-f[1600] on every path.
// ---------------------------------------------------------------------------

// Keccak-f[1600] applied to the all-zero state: the published output lanes
// (Keccak team, KeccakF-1600 intermediate values), lane x + 5y at [x + 5y].
constexpr uint64_t kZeroStatePermuted[25] = {
    0xF1258F7940E1DDE7ULL, 0x84D5CCF933C0478AULL, 0xD598261EA65AA9EEULL,
    0xBD1547306F80494DULL, 0x8B284E056253D057ULL, 0xFF97A42D7F8E6FD4ULL,
    0x90FEE5A0A44647C4ULL, 0x8C5BDA0CD6192E76ULL, 0xAD30A6F71B19059CULL,
    0x30935AB7D08FFC64ULL, 0xEB5AA93F2317D635ULL, 0xA9A6E6260D712103ULL,
    0x81A57C16DBCF555FULL, 0x43B831CD0347C826ULL, 0x01F22F1A11A5569FULL,
    0x05E5635A21D9AE61ULL, 0x64BEFEF28CC970F2ULL, 0x613670957BC46611ULL,
    0xB87C5A554FD00ECBULL, 0x8C3EE88A1CCF32C8ULL, 0x940C7922AE3A2614ULL,
    0x1841F924A2C509E4ULL, 0x16F53526E70465C2ULL, 0x75F644E97F30A13BULL,
    0xEAF1FF7B5CECA249ULL,
};

TEST(KeccakPermutationTest, ZeroStateScalar) {
  uint64_t a[25] = {};
  internal::KeccakPermute(a);
  for (int i = 0; i < 25; ++i) EXPECT_EQ(a[i], kZeroStatePermuted[i]) << i;
}

TEST(KeccakPermutationTest, ZeroStatePair) {
  internal::U64x2 a[25] = {};
  internal::KeccakPermute(a);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(a[i].v0, kZeroStatePermuted[i]) << i;
    EXPECT_EQ(a[i].v1, kZeroStatePermuted[i]) << i;
  }
}

// Every busy mask of the 4-lane dispatch: each busy sponge gets the
// published output. (An idle sponge's state is unspecified afterwards: the
// AVX2 kernel permutes all four, and Sha3x4::Start resets a lane anyway.)
TEST(KeccakPermutationTest, ZeroStateEveryLaneMask) {
  for (unsigned busy = 1; busy < 16; ++busy) {
    alignas(32) uint64_t state[25][4] = {};
    internal::KeccakF4(state, busy);
    for (int j = 0; j < 4; ++j) {
      if (((busy >> j) & 1u) == 0) continue;
      for (int i = 0; i < 25; ++i) {
        EXPECT_EQ(state[i][j], kZeroStatePermuted[i])
            << "busy=" << busy << " lane " << i << " sponge " << j
            << (internal::KeccakF4UsesAvx2() ? " (avx2)" : " (portable)");
      }
    }
  }
}

TEST(KeccakPermutationTest, RandomStatesAgreeOnEveryPath) {
  Rng rng(1600);
  for (int trial = 0; trial < 64; ++trial) {
    alignas(32) uint64_t state[25][4];
    for (auto& lane : state) {
      for (uint64_t& v : lane) v = rng.NextU64();
    }
    // The scalar permutation of each sponge is the reference.
    uint64_t want[4][25];
    for (int j = 0; j < 4; ++j) {
      for (int i = 0; i < 25; ++i) want[j][i] = state[i][j];
      internal::KeccakPermute(want[j]);
    }
    internal::U64x2 pair[25];
    for (int i = 0; i < 25; ++i) pair[i] = {state[i][1], state[i][2]};
    internal::KeccakPermute(pair);
    for (int i = 0; i < 25; ++i) {
      ASSERT_EQ(pair[i].v0, want[1][i]) << "trial " << trial << " lane " << i;
      ASSERT_EQ(pair[i].v1, want[2][i]) << "trial " << trial << " lane " << i;
    }
    const unsigned busy = 1 + static_cast<unsigned>(trial % 15);
    alignas(32) uint64_t x4[25][4];
    std::memcpy(x4, state, sizeof(x4));
    internal::KeccakF4(x4, busy);
    for (int j = 0; j < 4; ++j) {
      if (((busy >> j) & 1u) == 0) continue;
      for (int i = 0; i < 25; ++i) {
        ASSERT_EQ(x4[i][j], want[j][i])
            << "trial " << trial << " busy=" << busy << " lane " << i;
      }
    }
  }
}

// Sha3x4 driven by hand with 4, then 2, then 3 busy lanes per Step:
// multi-block messages keep the chosen lanes busy together for several
// permutations, and every digest must equal the serial Sha3.
TEST(KeccakPermutationTest, Sha3x4BusyLaneCountsMatchSerial) {
  Rng rng(41);
  for (int busy_lanes : {4, 2, 3}) {
    std::vector<Bytes> msgs(busy_lanes);
    for (size_t m = 0; m < msgs.size(); ++m) {
      msgs[m].resize(3 * Sha3x4::kRate + 17 * m);
      for (auto& b : msgs[m]) b = static_cast<uint8_t>(rng.NextU64());
    }
    Sha3x4 eng;
    // Leave lane 0 idle when fewer than four lanes are busy, so the busy
    // lanes are not always the low ones.
    const int first = busy_lanes == 4 ? 0 : 1;
    for (int m = 0; m < busy_lanes; ++m) eng.Start(first + m, msgs[m]);
    while (eng.AnyAbsorbing()) eng.Step();
    for (int m = 0; m < busy_lanes; ++m) {
      ASSERT_TRUE(eng.done(first + m));
      EXPECT_EQ(eng.Take(first + m), Sha3(msgs[m]))
          << busy_lanes << " busy lanes, message " << m;
    }
  }
}

}  // namespace
}  // namespace imageproof::crypto
