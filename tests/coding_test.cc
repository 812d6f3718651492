#include "src/util/coding.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/util/random.h"

namespace onepass {
namespace {

TEST(CodingTest, Fixed32RoundTrip) {
  std::string s;
  PutFixed32(&s, 0);
  PutFixed32(&s, 1);
  PutFixed32(&s, 0xdeadbeef);
  ASSERT_EQ(s.size(), 12u);
  EXPECT_EQ(DecodeFixed32(s.data()), 0u);
  EXPECT_EQ(DecodeFixed32(s.data() + 4), 1u);
  EXPECT_EQ(DecodeFixed32(s.data() + 8), 0xdeadbeefu);
}

TEST(CodingTest, Fixed64RoundTrip) {
  std::string s;
  PutFixed64(&s, 0xdeadbeefcafebabeULL);
  EXPECT_EQ(DecodeFixed64(s.data()), 0xdeadbeefcafebabeULL);
}

TEST(CodingTest, Varint32Boundaries) {
  const uint32_t cases[] = {0, 1, 127, 128, 16383, 16384,
                            (1u << 21) - 1, 1u << 21, 0xffffffffu};
  for (uint32_t v : cases) {
    std::string s;
    PutVarint32(&s, v);
    EXPECT_EQ(static_cast<int>(s.size()), VarintLength(v));
    std::string_view in = s;
    uint32_t out = 0;
    ASSERT_TRUE(GetVarint32(&in, &out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(CodingTest, Varint64Boundaries) {
  const uint64_t cases[] = {0,
                            127,
                            128,
                            (1ull << 35) - 1,
                            1ull << 35,
                            0xffffffffffffffffULL};
  for (uint64_t v : cases) {
    std::string s;
    PutVarint64(&s, v);
    EXPECT_EQ(static_cast<int>(s.size()), VarintLength(v));
    std::string_view in = s;
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint64(&in, &out)) << v;
    EXPECT_EQ(out, v);
  }
}

TEST(CodingTest, VarintRandomRoundTrip) {
  Xoshiro256StarStar rng(99);
  std::string s;
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Next() >> (rng.Next() % 64);
    values.push_back(v);
    PutVarint64(&s, v);
  }
  std::string_view in = s;
  for (uint64_t expected : values) {
    uint64_t v = 0;
    ASSERT_TRUE(GetVarint64(&in, &v));
    EXPECT_EQ(v, expected);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, TruncatedVarintFails) {
  std::string s;
  PutVarint32(&s, 1u << 30);  // 5 bytes
  for (size_t cut = 0; cut + 1 < s.size(); ++cut) {
    std::string_view in(s.data(), cut);
    uint32_t v;
    EXPECT_FALSE(GetVarint32(&in, &v));
  }
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string s;
  PutLengthPrefixed(&s, "");
  PutLengthPrefixed(&s, "hello");
  PutLengthPrefixed(&s, std::string(300, 'z'));
  std::string_view in = s;
  std::string_view a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a));
  ASSERT_TRUE(GetLengthPrefixed(&in, &b));
  ASSERT_TRUE(GetLengthPrefixed(&in, &c));
  EXPECT_EQ(a, "");
  EXPECT_EQ(b, "hello");
  EXPECT_EQ(c.size(), 300u);
  EXPECT_TRUE(in.empty());
  EXPECT_FALSE(GetLengthPrefixed(&in, &a));
}

TEST(CodingTest, LengthPrefixedRejectsShortBuffer) {
  std::string s;
  PutLengthPrefixed(&s, "hello");
  std::string_view in(s.data(), s.size() - 1);
  std::string_view out;
  EXPECT_FALSE(GetLengthPrefixed(&in, &out));
}

std::string Snprintf(uint64_t v, size_t min_digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%0*llu", static_cast<int>(min_digits),
                static_cast<unsigned long long>(v));
  return buf;
}

// PutDecimal appends: the prefix must survive.
std::string Decimal(uint64_t v, size_t min_digits) {
  std::string s = "w";
  PutDecimal(&s, v, min_digits);
  EXPECT_EQ(s[0], 'w');
  return s.substr(1);
}

TEST(CodingTest, PutDecimalMatchesSnprintfUpToAMillion) {
  for (uint64_t v = 0; v <= 1'000'000; ++v) {
    ASSERT_EQ(Decimal(v, 6), Snprintf(v, 6)) << v;
  }
}

TEST(CodingTest, PutDecimalMatchesSnprintfAtBoundaries) {
  std::vector<uint64_t> values = {0, 1, std::numeric_limits<uint64_t>::max(),
                                  std::numeric_limits<uint64_t>::max() - 1,
                                  std::numeric_limits<uint32_t>::max()};
  for (uint64_t p = 10;; p *= 10) {  // every power of ten up to 10^19
    values.insert(values.end(), {p - 1, p, p + 1});
    if (p > std::numeric_limits<uint64_t>::max() / 10) break;
  }
  for (uint64_t v : values) {
    for (size_t width : {0, 1, 6, 8, 9, 19, 20, 21, 32}) {
      EXPECT_EQ(Decimal(v, width), Snprintf(v, width)) << v << " " << width;
    }
  }
}

}  // namespace
}  // namespace onepass
