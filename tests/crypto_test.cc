// Tests for the from-scratch crypto substrate: SHA3-256 against published
// vectors, bignum arithmetic against independent references, and RSA
// sign/verify round trips.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/random.h"
#include "crypto/bignum.h"
#include "crypto/digest.h"
#include "crypto/hasher.h"
#include "crypto/rsa.h"
#include "crypto/sha3.h"

namespace imageproof::crypto {
namespace {

Bytes AsciiBytes(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

// ---------------------------------------------------------------------------
// SHA3-256 (FIPS 202 / NIST example values)
// ---------------------------------------------------------------------------

TEST(Sha3Test, EmptyString) {
  EXPECT_EQ(Sha3(Bytes{}).ToHex(),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a");
}

TEST(Sha3Test, Abc) {
  EXPECT_EQ(Sha3(AsciiBytes("abc")).ToHex(),
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532");
}

TEST(Sha3Test, LongerStandardVector) {
  EXPECT_EQ(
      Sha3(AsciiBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .ToHex(),
      "41c0dba2a9d6240849100376a8235e2c82e1b9998a999e21db32dd97496d3376");
}

TEST(Sha3Test, MillionAs) {
  Sha3_256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(h.Finalize().ToHex(),
            "5c8875ae474a3634ba4fd55ec85bffd661f32aca75c6d699d0cdcb6c115891c1");
}

TEST(Sha3Test, IncrementalMatchesOneShot) {
  Bytes data;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<uint8_t>(rng.NextU64()));
  // Split at many different points, including block boundaries (rate = 136).
  for (size_t split : {size_t{0}, size_t{1}, size_t{135}, size_t{136},
                       size_t{137}, size_t{272}, size_t{999}, size_t{1000}}) {
    Sha3_256 h;
    h.Update(data.data(), split);
    h.Update(data.data() + split, data.size() - split);
    EXPECT_EQ(h.Finalize(), Sha3(data)) << "split=" << split;
  }
}

TEST(Sha3Test, ExactRateBlock) {
  Bytes data(136, 0x5A);
  Bytes data2(137, 0x5A);
  EXPECT_NE(Sha3(data), Sha3(data2));
}

// ---------------------------------------------------------------------------
// DigestBuilder
// ---------------------------------------------------------------------------

TEST(DigestBuilderTest, MatchesByteWriterEncoding) {
  ByteWriter w;
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutF64(3.14159);
  Digest via_writer = Sha3(w.bytes());

  Digest via_builder = DigestBuilder()
                           .AddU32(0xDEADBEEF)
                           .AddU64(0x0123456789ABCDEFULL)
                           .AddF64(3.14159)
                           .Finalize();
  EXPECT_EQ(via_writer, via_builder);
}

TEST(DigestBuilderTest, OrderMatters) {
  Digest a = DigestBuilder().AddU32(1).AddU32(2).Finalize();
  Digest b = DigestBuilder().AddU32(2).AddU32(1).Finalize();
  EXPECT_NE(a, b);
}

TEST(DigestTest, ZeroAndHex) {
  Digest z = Digest::Zero();
  EXPECT_TRUE(z.IsZero());
  EXPECT_EQ(z.ToHex(), std::string(64, '0'));
  EXPECT_FALSE(Sha3(Bytes{}).IsZero());
}

// ---------------------------------------------------------------------------
// BigInt
// ---------------------------------------------------------------------------

TEST(BigIntTest, HexRoundTrip) {
  BigInt x = BigInt::FromHex("deadbeefcafebabe0123456789abcdef");
  EXPECT_EQ(x.ToHex(), "deadbeefcafebabe0123456789abcdef");
}

TEST(BigIntTest, BytesRoundTrip) {
  Bytes raw = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09};
  BigInt x = BigInt::FromBytes(raw);
  EXPECT_EQ(x.ToBytes(9), raw);
  EXPECT_EQ(x.ToHex(), "10203040506070809");
}

TEST(BigIntTest, AddSubInverse) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    BigInt a = BigInt::RandomWithBits(1 + static_cast<int>(rng.NextBounded(256)), rng);
    BigInt b = BigInt::RandomWithBits(1 + static_cast<int>(rng.NextBounded(256)), rng);
    BigInt sum = BigInt::Add(a, b);
    EXPECT_EQ(BigInt::Sub(sum, b), a);
    EXPECT_EQ(BigInt::Sub(sum, a), b);
  }
}

TEST(BigIntTest, MulMatchesU64) {
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    uint64_t a = rng.NextU64() >> 33;
    uint64_t b = rng.NextU64() >> 33;
    BigInt p = BigInt::Mul(BigInt(a), BigInt(b));
    EXPECT_EQ(p.LowU64(), a * b);
  }
}

TEST(BigIntTest, DivModIdentity) {
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    BigInt a = BigInt::RandomWithBits(2 + static_cast<int>(rng.NextBounded(384)), rng);
    BigInt b = BigInt::RandomWithBits(1 + static_cast<int>(rng.NextBounded(200)), rng);
    BigInt q, r;
    BigInt::DivMod(a, b, &q, &r);
    EXPECT_LT(BigInt::Compare(r, b), 0);
    EXPECT_EQ(BigInt::Add(BigInt::Mul(q, b), r), a);
  }
}

TEST(BigIntTest, KnownDivision) {
  BigInt a = BigInt::FromHex("fedcba9876543210fedcba9876543210");
  BigInt b = BigInt::FromHex("f00dfeed");
  BigInt q, r;
  BigInt::DivMod(a, b, &q, &r);
  // Verified independently: a = q*b + r.
  EXPECT_EQ(BigInt::Add(BigInt::Mul(q, b), r), a);
  EXPECT_LT(BigInt::Compare(r, b), 0);
}

TEST(BigIntTest, ShiftRoundTrip) {
  BigInt x = BigInt::FromHex("123456789abcdef0123456789abcdef");
  for (int s : {1, 7, 31, 32, 33, 64, 100}) {
    EXPECT_EQ(BigInt::ShiftRight(BigInt::ShiftLeft(x, s), s), x) << s;
  }
}

TEST(BigIntTest, ModExpSmallValues) {
  // 3^20 mod 1000 = 3486784401 mod 1000 = 401.
  EXPECT_EQ(BigInt::ModExp(BigInt(3), BigInt(20), BigInt(1000)).LowU64(), 401u);
  // Fermat: a^(p-1) = 1 mod p for prime p.
  BigInt p(1000003);
  for (uint64_t a : {2ULL, 3ULL, 999999ULL}) {
    EXPECT_EQ(BigInt::ModExp(BigInt(a), BigInt(1000002), p).LowU64(), 1u);
  }
}

TEST(BigIntTest, ModInverse) {
  Rng rng(23);
  BigInt m = BigInt::FromHex("fffffffb");  // prime
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::Add(BigInt(1), BigInt::RandomBelow(BigInt::Sub(m, BigInt(1)), rng));
    BigInt inv = BigInt::ModInverse(a, m);
    ASSERT_FALSE(inv.IsZero());
    EXPECT_EQ(BigInt::Mod(BigInt::Mul(a, inv), m).LowU64(), 1u);
  }
}

TEST(BigIntTest, ModInverseNotInvertible) {
  EXPECT_TRUE(BigInt::ModInverse(BigInt(6), BigInt(9)).IsZero());
}

TEST(BigIntTest, GcdKnown) {
  EXPECT_EQ(BigInt::Gcd(BigInt(48), BigInt(36)).LowU64(), 12u);
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(5)).LowU64(), 1u);
}

TEST(BigIntTest, PrimalityKnownPrimes) {
  Rng rng(29);
  for (uint64_t p : {2ULL, 3ULL, 5ULL, 65537ULL, 1000003ULL, 2147483647ULL}) {
    EXPECT_TRUE(BigInt::IsProbablePrime(BigInt(p), 20, rng)) << p;
  }
  for (uint64_t c : {1ULL, 4ULL, 100ULL, 65541ULL, 1000001ULL}) {
    EXPECT_FALSE(BigInt::IsProbablePrime(BigInt(c), 20, rng)) << c;
  }
}

TEST(BigIntTest, GeneratePrimeHasRequestedBits) {
  Rng rng(31);
  BigInt p = BigInt::GeneratePrime(128, rng);
  EXPECT_EQ(p.BitLength(), 128);
  EXPECT_TRUE(BigInt::IsProbablePrime(p, 30, rng));
}

// ---------------------------------------------------------------------------
// RSA
// ---------------------------------------------------------------------------

class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(42);
    key_pair_ = new RsaKeyPair(RsaKeyPair::Generate(512, rng));
  }
  static void TearDownTestSuite() {
    delete key_pair_;
    key_pair_ = nullptr;
  }
  static RsaKeyPair* key_pair_;
};

RsaKeyPair* RsaTest::key_pair_ = nullptr;

TEST_F(RsaTest, SignVerifyRoundTrip) {
  Digest d = Sha3(AsciiBytes("hello imageproof"));
  Bytes sig = RsaSign(key_pair_->private_key, d);
  EXPECT_EQ(sig.size(), key_pair_->public_key.ModulusBytes());
  EXPECT_TRUE(RsaVerify(key_pair_->public_key, d, sig));
}

TEST_F(RsaTest, RejectsWrongDigest) {
  Digest d = Sha3(AsciiBytes("message one"));
  Bytes sig = RsaSign(key_pair_->private_key, d);
  Digest other = Sha3(AsciiBytes("message two"));
  EXPECT_FALSE(RsaVerify(key_pair_->public_key, other, sig));
}

TEST_F(RsaTest, RejectsTamperedSignature) {
  Digest d = Sha3(AsciiBytes("message"));
  Bytes sig = RsaSign(key_pair_->private_key, d);
  for (size_t pos : {size_t{0}, sig.size() / 2, sig.size() - 1}) {
    Bytes bad = sig;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(RsaVerify(key_pair_->public_key, d, bad));
  }
}

TEST_F(RsaTest, RejectsWrongLengthSignature) {
  Digest d = Sha3(AsciiBytes("message"));
  Bytes sig = RsaSign(key_pair_->private_key, d);
  Bytes short_sig(sig.begin(), sig.end() - 1);
  EXPECT_FALSE(RsaVerify(key_pair_->public_key, d, short_sig));
  Bytes long_sig = sig;
  long_sig.push_back(0);
  EXPECT_FALSE(RsaVerify(key_pair_->public_key, d, long_sig));
}

TEST_F(RsaTest, SignerVerifierInterface) {
  RsaSigner signer(key_pair_->private_key);
  RsaVerifier verifier(key_pair_->public_key);
  Digest d = Sha3(AsciiBytes("interface"));
  EXPECT_TRUE(verifier.Verify(d, signer.Sign(d)));
}

TEST_F(RsaTest, DeterministicSignature) {
  Digest d = Sha3(AsciiBytes("determinism"));
  EXPECT_EQ(RsaSign(key_pair_->private_key, d), RsaSign(key_pair_->private_key, d));
}

TEST(RsaKeygenTest, DifferentSeedsDifferentKeys) {
  Rng rng1(1), rng2(2);
  RsaKeyPair a = RsaKeyPair::Generate(256, rng1);
  RsaKeyPair b = RsaKeyPair::Generate(256, rng2);
  EXPECT_NE(a.public_key.n.ToHex(), b.public_key.n.ToHex());
}

}  // namespace
}  // namespace imageproof::crypto
