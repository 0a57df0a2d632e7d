// Tests for the serialization and RNG utilities everything else builds on.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/bytes.h"
#include "common/random.h"
#include "common/status.h"

namespace imageproof {
namespace {

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutF64(-1234.5678);
  w.PutF32(3.25f);

  ByteReader r(w.bytes());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 0;
  float f32 = 0;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetF64(&f64).ok());
  ASSERT_TRUE(r.GetF32(&f32).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFULL);
  EXPECT_EQ(f64, -1234.5678);
  EXPECT_EQ(f32, 3.25f);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, VarintRoundTrip) {
  ByteWriter w;
  std::vector<uint64_t> values = {0,
                                  1,
                                  127,
                                  128,
                                  300,
                                  16383,
                                  16384,
                                  (1ULL << 32) - 1,
                                  1ULL << 32,
                                  std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) w.PutVarint(v);
  ByteReader r(w.bytes());
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(r.GetVarint(&got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, VarintEncodingLength) {
  ByteWriter w;
  w.PutVarint(127);
  EXPECT_EQ(w.size(), 1u);
  ByteWriter w2;
  w2.PutVarint(128);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(BytesTest, BlobAndStringRoundTrip) {
  ByteWriter w;
  Bytes blob = {1, 2, 3, 4, 5};
  w.PutBlob(blob);
  w.PutString("hello");
  w.PutBlob({});
  ByteReader r(w.bytes());
  Bytes got_blob;
  std::string got_str;
  Bytes got_empty;
  ASSERT_TRUE(r.GetBlob(&got_blob).ok());
  ASSERT_TRUE(r.GetString(&got_str).ok());
  ASSERT_TRUE(r.GetBlob(&got_empty).ok());
  EXPECT_EQ(got_blob, blob);
  EXPECT_EQ(got_str, "hello");
  EXPECT_TRUE(got_empty.empty());
}

TEST(BytesTest, TruncatedInputsAreErrorsNotCrashes) {
  ByteWriter w;
  w.PutU32(42);
  Bytes data = w.bytes();
  data.pop_back();
  ByteReader r(data);
  uint32_t v;
  EXPECT_FALSE(r.GetU32(&v).ok());
}

TEST(BytesTest, OversizedBlobLengthRejected) {
  ByteWriter w;
  w.PutVarint(1000000);  // claims a million bytes
  w.PutU8(1);
  ByteReader r(w.bytes());
  Bytes out;
  EXPECT_FALSE(r.GetBlob(&out).ok());
}

TEST(BytesTest, MalformedVarintRejected) {
  // 11 continuation bytes exceed the 64-bit range.
  Bytes data(11, 0xFF);
  ByteReader r(data);
  uint64_t v;
  EXPECT_FALSE(r.GetVarint(&v).ok());
}

TEST(StatusTest, OkAndError) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.message(), "");
  Status err = Status::Error("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.message(), "boom");
}

TEST(StatusTest, CodesAndToString) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kError), "ERROR");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOverloaded), "OVERLOADED");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnavailable), "UNAVAILABLE");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kCorrupted), "CORRUPTED");
  EXPECT_STREQ(StatusCodeToString(static_cast<StatusCode>(250)), "UNKNOWN");
}

TEST(StatusTest, NamedConstructors) {
  EXPECT_EQ(Status::Ok().code(), StatusCode::kOk);
  EXPECT_EQ(Status::Error("e").code(), StatusCode::kError);
  Status over = Status::Overloaded("full");
  EXPECT_EQ(over.code(), StatusCode::kOverloaded);
  EXPECT_EQ(over.message(), "full");
  EXPECT_FALSE(over.ok());
  EXPECT_EQ(Status::DeadlineExceeded("late").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Unavailable("down").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::Corrupted("bits").code(), StatusCode::kCorrupted);
}

TEST(StatusTest, WithCodePreservesAndSanitizes) {
  Status s = Status::WithCode(StatusCode::kCorrupted, "wrapped");
  EXPECT_EQ(s.code(), StatusCode::kCorrupted);
  EXPECT_EQ(s.message(), "wrapped");
  // A non-OK status can never carry kOk: WithCode maps it to kError.
  EXPECT_EQ(Status::WithCode(StatusCode::kOk, "bad").code(),
            StatusCode::kError);
}

TEST(ResultTest, ValueAndError) {
  Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  Result<int> bad = Result<int>::Error("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(), "nope");
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(21);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.08);
}

TEST(RngTest, ZipfIsHeavyTailed) {
  Rng rng(33);
  const uint64_t n = 1000;
  int rank0 = 0, tail = 0;
  const int samples = 20000;
  for (int i = 0; i < samples; ++i) {
    uint64_t r = rng.NextZipf(n, 1.2);
    EXPECT_LT(r, n);
    if (r == 0) ++rank0;
    if (r >= n / 2) ++tail;
  }
  // Rank 0 must dominate any individual deep-tail rank.
  EXPECT_GT(rank0, samples / 50);
  EXPECT_LT(tail, samples / 4);
}

}  // namespace
}  // namespace imageproof
