// Tests for the image container, PGM codec, and synthetic generator.

#include <gtest/gtest.h>

#include <cstdio>

#include "image/image.h"
#include "image/pgm_io.h"
#include "image/synth.h"
#include "test_support.h"

namespace imageproof::image {
namespace {

TEST(ImageTest, BasicAccessors) {
  Image img(4, 3, 7);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.at(2, 1), 7);
  img.set(2, 1, 200);
  EXPECT_EQ(img.at(2, 1), 200);
}

TEST(ImageTest, ClampedAccess) {
  Image img(2, 2);
  img.set(0, 0, 10);
  img.set(1, 1, 20);
  EXPECT_EQ(img.AtClamped(-5, -5), 10);
  EXPECT_EQ(img.AtClamped(100, 100), 20);
}

TEST(ImageTest, BilinearSample) {
  Image img(2, 1);
  img.set(0, 0, 0);
  img.set(1, 0, 100);
  EXPECT_NEAR(img.Sample(0.5, 0.0), 50.0, 1e-9);
  EXPECT_NEAR(img.Sample(0.25, 0.0), 25.0, 1e-9);
}

TEST(ImageTest, SerializeRoundTrip) {
  Image img = SynthesizeImage(42, 33, 17);
  Bytes data = img.Serialize();
  Image back;
  ASSERT_TRUE(Image::Deserialize(data, &back));
  EXPECT_EQ(back.width(), 33);
  EXPECT_EQ(back.height(), 17);
  EXPECT_EQ(back.pixels(), img.pixels());
}

TEST(ImageTest, DeserializeRejectsGarbage) {
  Image out;
  EXPECT_FALSE(Image::Deserialize({1, 2, 3}, &out));
  // Valid header, wrong pixel count.
  ByteWriter w;
  w.PutU32(10);
  w.PutU32(10);
  w.PutU8(0);
  EXPECT_FALSE(Image::Deserialize(w.bytes(), &out));
}

TEST(PgmTest, EncodeDecodeRoundTrip) {
  Image img = SynthesizeImage(7, 40, 25);
  Bytes pgm = EncodePgm(img);
  Image back;
  ASSERT_TRUE(DecodePgm(pgm, &back).ok());
  EXPECT_EQ(back.width(), img.width());
  EXPECT_EQ(back.height(), img.height());
  EXPECT_EQ(back.pixels(), img.pixels());
}

TEST(PgmTest, DecodeHandlesComments) {
  std::string text = "P5\n# a comment line\n2 2\n255\n";
  text += {10, 20, 30, 40};  // the 2x2 pixels
  Bytes data(text.begin(), text.end());
  Image img;
  ASSERT_TRUE(DecodePgm(data, &img).ok());
  EXPECT_EQ(img.width(), 2);
  EXPECT_EQ(img.at(1, 1), 40);
}

TEST(PgmTest, RejectsBadMagicAndTruncation) {
  Image img;
  Bytes p6 = {'P', '6', '\n'};
  EXPECT_FALSE(DecodePgm(p6, &img).ok());
  std::string text = "P5\n4 4\n255\n";
  Bytes truncated(text.begin(), text.end());
  truncated.push_back(1);  // only 1 of 16 pixels
  EXPECT_FALSE(DecodePgm(truncated, &img).ok());
}

TEST(PgmTest, FileRoundTrip) {
  Image img = SynthesizeImage(99, 16, 16);
  testing_support::ScopedTestDir tmp;
  std::string path = tmp.Path("imageproof_pgm_test.pgm");
  ASSERT_TRUE(WritePgmFile(path, img).ok());
  Image back;
  ASSERT_TRUE(ReadPgmFile(path, &back).ok());
  EXPECT_EQ(back.pixels(), img.pixels());
  std::remove(path.c_str());
}

TEST(SynthTest, DeterministicPerSeed) {
  Image a = SynthesizeImage(5, 64, 64);
  Image b = SynthesizeImage(5, 64, 64);
  Image c = SynthesizeImage(6, 64, 64);
  EXPECT_EQ(a.pixels(), b.pixels());
  EXPECT_NE(a.pixels(), c.pixels());
}

TEST(SynthTest, HasContrast) {
  Image img = SynthesizeImage(11, 64, 64);
  uint8_t lo = 255, hi = 0;
  for (uint8_t p : img.pixels()) {
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  EXPECT_GT(hi - lo, 60);  // textured, not flat
}

TEST(TransformTest, RotateByZeroIsIdentityish) {
  Image img = SynthesizeImage(3, 32, 32);
  Image rot = Rotate(img, 0.0);
  int diffs = 0;
  for (size_t i = 0; i < img.pixels().size(); ++i) {
    if (std::abs(int(img.pixels()[i]) - int(rot.pixels()[i])) > 1) ++diffs;
  }
  EXPECT_EQ(diffs, 0);
}

TEST(TransformTest, ScaleChangesDimensions) {
  Image img(40, 20);
  Image up = Scale(img, 2.0);
  EXPECT_EQ(up.width(), 80);
  EXPECT_EQ(up.height(), 40);
  Image down = Scale(img, 0.5);
  EXPECT_EQ(down.width(), 20);
  EXPECT_EQ(down.height(), 10);
}

TEST(TransformTest, BrightnessClamps) {
  Image img(2, 1);
  img.set(0, 0, 200);
  img.set(1, 0, 10);
  Image bright = AdjustBrightness(img, 2.0, 50);
  EXPECT_EQ(bright.at(0, 0), 255);  // clamped
  EXPECT_EQ(bright.at(1, 0), 70);
}

TEST(TransformTest, NoiseIsDeterministicAndBounded) {
  Image img = SynthesizeImage(13, 32, 32);
  Image n1 = AddNoise(img, 5.0, 77);
  Image n2 = AddNoise(img, 5.0, 77);
  EXPECT_EQ(n1.pixels(), n2.pixels());
  EXPECT_NE(n1.pixels(), img.pixels());
}

TEST(TransformTest, CenterCrop) {
  Image img(40, 40);
  img.set(20, 20, 123);
  Image crop = CenterCrop(img, 0.5);
  EXPECT_EQ(crop.width(), 20);
  EXPECT_EQ(crop.height(), 20);
  EXPECT_EQ(crop.at(10, 10), 123);
}

}  // namespace
}  // namespace imageproof::image
