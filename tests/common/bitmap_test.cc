#include "src/common/bitmap.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/types.h"

namespace bmx {
namespace {

TEST(Bitmap, SetTestClear) {
  Bitmap bm(200);
  EXPECT_EQ(bm.size(), 200u);
  EXPECT_FALSE(bm.Test(0));
  bm.Set(0);
  bm.Set(63);
  bm.Set(64);
  bm.Set(199);
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(63));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_TRUE(bm.Test(199));
  EXPECT_FALSE(bm.Test(65));
  bm.Clear(63);
  EXPECT_FALSE(bm.Test(63));
  EXPECT_EQ(bm.CountSet(), 3u);
}

TEST(Bitmap, ClearAll) {
  Bitmap bm(100);
  for (size_t i = 0; i < 100; i += 7) {
    bm.Set(i);
  }
  EXPECT_GT(bm.CountSet(), 0u);
  bm.ClearAll();
  EXPECT_EQ(bm.CountSet(), 0u);
}

TEST(Bitmap, FindNextSet) {
  Bitmap bm(300);
  bm.Set(5);
  bm.Set(64);
  bm.Set(128);
  bm.Set(299);
  EXPECT_EQ(bm.FindNextSet(0), 5u);
  EXPECT_EQ(bm.FindNextSet(5), 5u);
  EXPECT_EQ(bm.FindNextSet(6), 64u);
  EXPECT_EQ(bm.FindNextSet(65), 128u);
  EXPECT_EQ(bm.FindNextSet(129), 299u);
  EXPECT_EQ(bm.FindNextSet(300), 300u);
}

TEST(Bitmap, FindNextSetEmpty) {
  Bitmap bm(128);
  EXPECT_EQ(bm.FindNextSet(0), 128u);
}

TEST(Bitmap, IterationMatchesSetBits) {
  Rng rng(42);
  Bitmap bm(1000);
  std::vector<size_t> expected;
  for (size_t i = 0; i < 1000; ++i) {
    if (rng.Chance(0.1)) {
      bm.Set(i);
      expected.push_back(i);
    }
  }
  std::vector<size_t> found;
  for (size_t bit = bm.FindNextSet(0); bit < bm.size(); bit = bm.FindNextSet(bit + 1)) {
    found.push_back(bit);
  }
  EXPECT_EQ(found, expected);
  EXPECT_EQ(bm.CountSet(), expected.size());
}

TEST(Bitmap, FindNextSetInRange) {
  Bitmap bm(300);
  bm.Set(5);
  bm.Set(64);
  bm.Set(299);
  EXPECT_EQ(bm.FindNextSetInRange(0, 300), 5u);
  EXPECT_EQ(bm.FindNextSetInRange(6, 64), 64u);   // none in [6,64): clamps to to
  EXPECT_EQ(bm.FindNextSetInRange(6, 65), 64u);
  EXPECT_EQ(bm.FindNextSetInRange(65, 299), 299u);  // none strictly inside
  EXPECT_EQ(bm.FindNextSetInRange(65, 300), 299u);
  EXPECT_EQ(bm.FindNextSetInRange(100, 4000), 299u);  // to clamps to size
}

TEST(Bitmap, ForEachSetWordBoundaries) {
  // Bits 63 and 64 straddle the first word boundary; 127/128 the second.
  Bitmap bm(256);
  for (size_t bit : {0u, 63u, 64u, 127u, 128u, 255u}) {
    bm.Set(bit);
  }
  std::vector<size_t> found;
  bm.ForEachSet([&](size_t bit) { found.push_back(bit); });
  EXPECT_EQ(found, (std::vector<size_t>{0, 63, 64, 127, 128, 255}));
}

TEST(Bitmap, ForEachSetInRangeMidWordEnds) {
  Bitmap bm(256);
  for (size_t i = 0; i < 256; ++i) {
    bm.Set(i);
  }
  // Range ends mid-word: bits at and past `to` must not be visited.
  std::vector<size_t> found;
  bm.ForEachSetInRange(60, 70, [&](size_t bit) { found.push_back(bit); });
  EXPECT_EQ(found, (std::vector<size_t>{60, 61, 62, 63, 64, 65, 66, 67, 68, 69}));
  // Range starting mid-word.
  found.clear();
  bm.ForEachSetInRange(130, 133, [&](size_t bit) { found.push_back(bit); });
  EXPECT_EQ(found, (std::vector<size_t>{130, 131, 132}));
  // Empty range.
  found.clear();
  EXPECT_EQ(bm.ForEachSetInRange(70, 70, [&](size_t bit) { found.push_back(bit); }), 0u);
  EXPECT_TRUE(found.empty());
}

TEST(Bitmap, ForEachSetCountsZeroWordsSkipped) {
  Bitmap bm(320);  // 5 words
  bm.Set(0);
  bm.Set(300);  // words 1..3 are all-zero
  size_t visited = 0;
  size_t zero_words = bm.ForEachSet([&](size_t) { visited++; });
  EXPECT_EQ(visited, 2u);
  EXPECT_EQ(zero_words, 3u);

  Bitmap empty(256);
  EXPECT_EQ(empty.ForEachSet([](size_t) { FAIL(); }), 4u);

  Bitmap full(128);
  for (size_t i = 0; i < 128; ++i) {
    full.Set(i);
  }
  size_t count = 0;
  EXPECT_EQ(full.ForEachSet([&](size_t) { count++; }), 0u);
  EXPECT_EQ(count, 128u);
}

TEST(Bitmap, ForEachSetAndInRange) {
  Bitmap a(256);
  Bitmap b(256);
  for (size_t i = 0; i < 256; i += 2) {
    a.Set(i);  // evens
  }
  for (size_t i = 0; i < 256; i += 3) {
    b.Set(i);  // multiples of 3
  }
  std::vector<size_t> found;
  Bitmap::ForEachSetAndInRange(a, b, 0, 256, [&](size_t bit) { found.push_back(bit); });
  std::vector<size_t> expected;
  for (size_t i = 0; i < 256; i += 6) {
    expected.push_back(i);
  }
  EXPECT_EQ(found, expected);
  // Sub-range with mid-word ends.
  found.clear();
  Bitmap::ForEachSetAndInRange(a, b, 7, 61, [&](size_t bit) { found.push_back(bit); });
  EXPECT_EQ(found, (std::vector<size_t>{12, 18, 24, 30, 36, 42, 48, 54, 60}));
}

// Property test: word-level iteration is exactly equivalent to the bit-by-bit
// FindNextSet loop on random bitmaps and random sub-ranges.
TEST(Bitmap, WordIterationEquivalenceProperty) {
  Rng rng(1234);
  for (int round = 0; round < 50; ++round) {
    size_t nbits = 1 + rng.Below(520);  // covers <1 word through >8 words
    Bitmap bm(nbits);
    for (size_t i = 0; i < nbits; ++i) {
      if (rng.Chance(0.2)) {
        bm.Set(i);
      }
    }
    size_t from = rng.Below(nbits + 1);
    size_t to = from + rng.Below(nbits + 1 - from);
    std::vector<size_t> reference;
    for (size_t bit = bm.FindNextSet(from); bit < to; bit = bm.FindNextSet(bit + 1)) {
      reference.push_back(bit);
    }
    std::vector<size_t> kernel;
    bm.ForEachSetInRange(from, to, [&](size_t bit) { kernel.push_back(bit); });
    EXPECT_EQ(kernel, reference) << "nbits=" << nbits << " from=" << from << " to=" << to;
    EXPECT_EQ(bm.CountSetInRange(from, to), reference.size());
  }
}

TEST(Bitmap, WordsRoundTrip) {
  Bitmap a(256);
  a.Set(1);
  a.Set(100);
  a.Set(255);
  Bitmap b(256);
  b.LoadWords(a.words());
  EXPECT_TRUE(b.Test(1));
  EXPECT_TRUE(b.Test(100));
  EXPECT_TRUE(b.Test(255));
  EXPECT_EQ(b.CountSet(), 3u);
}

TEST(Bitmap, GrowToKeepsBitsAndClearsNewOnes) {
  Bitmap bm;
  bm.GrowTo(5);
  EXPECT_EQ(bm.size(), 5u);
  EXPECT_EQ(bm.words().size(), 1u);
  bm.Set(4);
  bm.GrowTo(130);
  EXPECT_EQ(bm.size(), 130u);
  EXPECT_EQ(bm.words().size(), 3u);
  bm.Set(129);
  bm.GrowTo(64);  // never shrinks
  EXPECT_EQ(bm.size(), 130u);
  std::vector<size_t> seen;
  bm.ForEachSet([&](size_t bit) { seen.push_back(bit); });
  EXPECT_EQ(seen, (std::vector<size_t>{4, 129}));
}

TEST(Rng, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, BelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Types, AddressGeometry) {
  SegmentId seg = 12;
  Gaddr base = SegmentBase(seg);
  EXPECT_EQ(SegmentOf(base), seg);
  EXPECT_EQ(OffsetInSegment(base), 0u);
  Gaddr addr = MakeAddr(seg, 4096);
  EXPECT_EQ(SegmentOf(addr), seg);
  EXPECT_EQ(OffsetInSegment(addr), 4096u);
  EXPECT_EQ(SegmentOf(addr + kSegmentBytes), seg + 1);
}

}  // namespace
}  // namespace bmx
