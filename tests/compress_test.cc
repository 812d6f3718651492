#include "src/util/compress.h"

#include <sys/mman.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/crc32c.h"

namespace onepass {
namespace {

// Deterministic xorshift; tests must not depend on global RNG state.
uint64_t Next(uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

std::string RandomBytes(size_t n, uint64_t seed) {
  std::string out;
  out.reserve(n);
  uint64_t s = seed | 1;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<char>(Next(&s) & 0xff));
  }
  return out;
}

// Zipf-ish text: a small vocabulary where low word ids dominate, roughly
// the key distribution of the word-count workloads.
std::string ZipfText(size_t target_bytes, uint64_t seed) {
  std::string out;
  uint64_t s = seed | 1;
  while (out.size() < target_bytes) {
    // Favor small ids: map a uniform draw through a square to skew it.
    const uint64_t u = Next(&s) % 1000;
    const uint64_t id = (u * u) / 25000;  // 0..39
    out += "word" + std::to_string(id);
    out.push_back(' ');
  }
  return out;
}

std::string RoundTrip(const std::string& input) {
  std::string compressed;
  const size_t n = LzCompress(input, &compressed);
  EXPECT_EQ(n, compressed.size());
  std::string back;
  EXPECT_TRUE(LzDecompress(compressed, input.size(), &back));
  return back;
}

TEST(CompressTest, RoundTripsEmptyAndTiny) {
  for (const std::string& input : {std::string(), std::string("a"),
                                   std::string("ab"), std::string("abcd")}) {
    EXPECT_EQ(RoundTrip(input), input) << "len=" << input.size();
  }
}

TEST(CompressTest, RoundTripsRandomBytes) {
  for (size_t n : {size_t{17}, size_t{1000}, size_t{65536}, size_t{200000}}) {
    const std::string input = RandomBytes(n, /*seed=*/n);
    EXPECT_EQ(RoundTrip(input), input) << "len=" << n;
  }
}

TEST(CompressTest, RoundTripsZipfTextAndCompressesIt) {
  const std::string input = ZipfText(100000, /*seed=*/7);
  std::string compressed;
  LzCompress(input, &compressed);
  std::string back;
  ASSERT_TRUE(LzDecompress(compressed, input.size(), &back));
  EXPECT_EQ(back, input);
  // A 40-word vocabulary must compress well; 2x is a loose floor.
  EXPECT_LT(compressed.size(), input.size() / 2);
}

TEST(CompressTest, RoundTripsHighlyRepetitiveInput) {
  const std::string input(300000, 'x');
  std::string compressed;
  LzCompress(input, &compressed);
  EXPECT_LT(compressed.size(), input.size() / 50);
  std::string back;
  ASSERT_TRUE(LzDecompress(compressed, input.size(), &back));
  EXPECT_EQ(back, input);
}

TEST(CompressTest, RoundTripsLongRangeMatches) {
  // Matches at offsets close to the 64 KiB window edge.
  std::string input = RandomBytes(65000, 3);
  input += input.substr(0, 2000);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(CompressTest, IncompressibleInputStaysNearRawSize) {
  const std::string input = RandomBytes(100000, 11);
  std::string compressed;
  LzCompress(input, &compressed);
  // Literal runs add ~1 byte per 255; random data must not blow up.
  EXPECT_LE(compressed.size(), LzMaxCompressedSize(input.size()));
  EXPECT_LE(compressed.size(), input.size() + input.size() / 100 + 64);
}

TEST(CompressTest, AppendsToExistingOutput) {
  const std::string input = ZipfText(5000, 1);
  std::string out = "prefix";
  const size_t n = LzCompress(input, &out);
  EXPECT_EQ(out.size(), 6 + n);
  EXPECT_EQ(out.substr(0, 6), "prefix");
  std::string back = "keep";
  ASSERT_TRUE(
      LzDecompress(std::string_view(out).substr(6), input.size(), &back));
  EXPECT_EQ(back, "keep" + input);
}

TEST(CompressTest, DecompressRejectsTruncationAtEveryLength) {
  const std::string input = ZipfText(2000, 9);
  std::string compressed;
  LzCompress(input, &compressed);
  for (size_t keep = 0; keep < compressed.size(); ++keep) {
    std::string out;
    const bool ok = LzDecompress(std::string_view(compressed).substr(0, keep),
                                 input.size(), &out);
    // Either detected (and out restored), or — never — silent success.
    EXPECT_FALSE(ok) << "keep=" << keep;
    EXPECT_TRUE(out.empty()) << "keep=" << keep << ": output not restored";
  }
}

TEST(CompressTest, DecompressRejectsWrongRawSize) {
  const std::string input = ZipfText(2000, 13);
  std::string compressed;
  LzCompress(input, &compressed);
  std::string out;
  EXPECT_FALSE(LzDecompress(compressed, input.size() - 1, &out));
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(LzDecompress(compressed, input.size() + 1, &out));
  EXPECT_TRUE(out.empty());
  // No input byte decodes to more than 255 output bytes, so a larger raw
  // size is refused before any allocation.
  EXPECT_FALSE(LzDecompress(compressed, 255 * compressed.size() + 1, &out));
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(LzDecompress(compressed, std::numeric_limits<size_t>::max(),
                            &out));
  EXPECT_TRUE(out.empty());
}

TEST(CompressTest, DecompressSurvivesRandomGarbage) {
  // Fuzz-ish: random bytes must never crash or over-produce; success is
  // allowed (garbage can be a valid stream) but output is bounded.
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const std::string garbage = RandomBytes(1 + seed % 500, seed);
    std::string out;
    const bool ok = LzDecompress(garbage, 1000, &out);
    if (ok) {
      EXPECT_EQ(out.size(), 1000u);
    } else {
      EXPECT_TRUE(out.empty());
    }
  }
}

TEST(CompressTest, RejectsOversizedInput) {
  // > 1 GiB inputs are refused outright (the block path never makes them).
  // The view spans an untouched anonymous mapping, so no page is ever
  // backed by memory.
  const size_t n = (size_t{1} << 30) + 1;
  void* mem = mmap(nullptr, n, PROT_READ,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  std::string out = "keep";
  EXPECT_EQ(LzCompress(std::string_view(static_cast<const char*>(mem), n),
                       &out),
            0u);
  EXPECT_EQ(out, "keep");
  munmap(mem, n);
}

// Inputs near the worst case for the compressed size: no matches at all,
// literal runs that just reach each length-extension byte, and the
// shortest literal-plus-match sequences.
std::vector<std::string> WorstCaseInputs() {
  std::vector<std::string> inputs;
  for (size_t n : {size_t{1}, size_t{5}, size_t{15}, size_t{16}, size_t{269},
                   size_t{270}, size_t{271}, size_t{65536}, size_t{200000}}) {
    inputs.push_back(RandomBytes(n, 1001 + 2 * n));
  }
  const std::string tag = RandomBytes(4, 77);
  for (size_t lit_len : {size_t{15}, size_t{270}}) {
    const std::string noise = RandomBytes(200 * lit_len, lit_len);
    std::string s = tag;
    for (size_t k = 0; k < 200; ++k) {
      s += noise.substr(k * lit_len, lit_len) + tag;
    }
    inputs.push_back(std::move(s));
  }
  // One literal + one 4-byte match per unit: each literal byte is new, so
  // the match never extends past the tag.
  std::string units = tag;
  for (int k = 0; k < 255; ++k) units += static_cast<char>(k) + tag;
  inputs.push_back(std::move(units));
  return inputs;
}

TEST(CompressTest, CompressedSizeStaysWithinBoundOnWorstCaseInputs) {
  // LzCompress writes into output presized to LzMaxCompressedSize, so the
  // bound is also what keeps its writes in range.
  for (const std::string& input : WorstCaseInputs()) {
    std::string compressed;
    const size_t n = LzCompress(input, &compressed);
    EXPECT_EQ(n, compressed.size());
    EXPECT_LE(n, LzMaxCompressedSize(input.size())) << "len=" << input.size();
    EXPECT_EQ(RoundTrip(input), input) << "len=" << input.size();
  }
}

// The pinned corpus: every input shape the matcher and the token format
// treat differently.
std::vector<std::pair<std::string, std::string>> PinnedCorpus() {
  std::vector<std::pair<std::string, std::string>> corpus;
  for (size_t n = 0; n <= 5; ++n) {
    corpus.emplace_back("run" + std::to_string(n), std::string(n, 'a'));
    corpus.emplace_back("random" + std::to_string(n),
                        RandomBytes(n, 101 + 2 * n));
  }
  // A run of n bytes is one literal plus an n-1 byte match at offset 1;
  // runs of 20 and 275 bytes are the shortest whose match length takes a
  // first and a second extension byte.
  for (size_t n : {size_t{6}, size_t{19}, size_t{20}, size_t{274},
                   size_t{275}, size_t{276}, size_t{1000}}) {
    corpus.emplace_back("run" + std::to_string(n), std::string(n, 'x'));
  }
  // One long match overlapping its own offset, at offsets 2-17.
  for (size_t period = 2; period <= 17; ++period) {
    std::string s;
    while (s.size() < 600) {
      s.push_back(static_cast<char>('A' + s.size() % period));
    }
    corpus.emplace_back("period" + std::to_string(period), std::move(s));
  }
  corpus.emplace_back("zipf20k", ZipfText(20000, 7));
  corpus.emplace_back("zipf70k", ZipfText(70000, 11));
  corpus.emplace_back("random3000", RandomBytes(3000, 5));
  // A copy of the first bytes at offset 65535 (the farthest the window
  // reaches) and at 65536 (one past it).
  for (size_t gap : {size_t{65535}, size_t{65536}}) {
    const std::string r = RandomBytes(gap, 21);
    corpus.emplace_back("window" + std::to_string(gap), r + r.substr(0, 64));
  }
  // Literal runs around 15 and 15 + 255, each followed by an 8-byte
  // match.
  {
    const std::string tag = RandomBytes(8, 31);
    std::string s = tag;
    for (size_t lit_len : {size_t{14}, size_t{15}, size_t{16}, size_t{269},
                           size_t{270}, size_t{271}, size_t{600}}) {
      s += RandomBytes(lit_len, 1001 + 2 * lit_len) + tag;
    }
    corpus.emplace_back("literal_runs", std::move(s));
  }
  // Matches around 4 + 15 and 4 + 15 + 255 bytes, each after 5 literals.
  {
    const std::string block = RandomBytes(700, 51);
    std::string s = block;
    for (size_t match_len : {size_t{18}, size_t{19}, size_t{20}, size_t{273},
                             size_t{274}, size_t{275}, size_t{600}}) {
      s += RandomBytes(5, 3001 + 2 * match_len) + block.substr(0, match_len);
    }
    corpus.emplace_back("match_runs", std::move(s));
  }
  // Units of 4-16 bytes, each repeated once: matches exactly as long as
  // their offset, the longest copy at that offset that does not overlap.
  {
    std::string s;
    for (size_t d = 4; d <= 16; ++d) {
      const std::string unit = RandomBytes(d, 5001 + 2 * d);
      s += unit + unit + RandomBytes(3, 6001 + 2 * d);
    }
    corpus.emplace_back("small_offsets", std::move(s));
  }
  return corpus;
}

struct PinnedImage {
  const char* name;
  size_t size;
  uint32_t crc;
};

// Compressed size and CRC32C of each PinnedCorpus() entry. Every
// simulated figure of an lz job is computed from encoded sizes, so these
// bytes are frozen: a matcher or emitter change must reproduce them.
constexpr PinnedImage kPinnedImages[] = {
    {"run0", 1, 0x527d5351},
    {"random0", 1, 0x527d5351},
    {"run1", 2, 0x5d099632},
    {"random1", 2, 0xb825571e},
    {"run2", 3, 0x81b3f57e},
    {"random2", 3, 0xdf6b6b1f},
    {"run3", 4, 0xf5d5aad2},
    {"random3", 4, 0xfde931f9},
    {"run4", 5, 0x5016b9ec},
    {"random4", 5, 0xe8c573c8},
    {"run5", 5, 0xced7644c},
    {"random5", 6, 0xc79fc3e5},
    {"run6", 5, 0x34a37383},
    {"run19", 5, 0x59b27656},
    {"run20", 6, 0xca90b705},
    {"run274", 6, 0x7ad10bf1},
    {"run275", 7, 0xf643fc52},
    {"run276", 7, 0xe5e16425},
    {"run1000", 9, 0x50a1e18c},
    {"period2", 9, 0x17d9c7e9},
    {"period3", 10, 0x1e5f9b5a},
    {"period4", 11, 0x8b3a351e},
    {"period5", 12, 0x7cfc4da8},
    {"period6", 13, 0x81b3498a},
    {"period7", 14, 0xd1634cba},
    {"period8", 15, 0x83628b2f},
    {"period9", 16, 0xff4bea1b},
    {"period10", 17, 0x5aa85278},
    {"period11", 18, 0x296d56d5},
    {"period12", 19, 0xfcf14441},
    {"period13", 20, 0x3c066f5c},
    {"period14", 21, 0xe8a34e24},
    {"period15", 23, 0xd314b862},
    {"period16", 24, 0x7051f2ea},
    {"period17", 25, 0xd191273a},
    {"zipf20k", 5761, 0x5b3feb6e},
    {"zipf70k", 19613, 0x361b0687},
    {"random3000", 3013, 0x99eedbf6},
    {"window65535", 65796, 0x51e8d1ed},
    {"window65536", 65857, 0xaa73deab},
    {"literal_runs", 1495, 0xa04b3437},
    {"match_runs", 770, 0x3a72f557},
    {"small_offsets", 214, 0x0f8831ec},
};

TEST(CompressTest, CompressedBytesArePinned) {
  const auto corpus = PinnedCorpus();
  ASSERT_EQ(corpus.size(), std::size(kPinnedImages));
  for (size_t k = 0; k < corpus.size(); ++k) {
    const auto& [name, input] = corpus[k];
    const PinnedImage& pinned = kPinnedImages[k];
    ASSERT_EQ(name, pinned.name);
    std::string compressed;
    LzCompress(input, &compressed);
    EXPECT_EQ(compressed.size(), pinned.size) << name;
    EXPECT_EQ(Crc32c(compressed), pinned.crc) << name;
    EXPECT_EQ(RoundTrip(input), input) << name;
  }
}

// ---- the per-thread match table ----

// A seeded mix of inputs in every size regime of the match table: tiny
// (no table use), typical checkpoint deltas, both sides of the
// small/large reset threshold (4 KB), a codec block, and past the 64 KB
// window, shuffled so each size follows others. Every input comes twice
// in a row: a head entry the first call leaves behind then points at the
// very position the second call is matching, a zero-offset match that
// changes the bytes (random bytes put few other candidates in its way).
std::vector<std::string> SizeMix(uint64_t seed) {
  uint64_t s = seed | 1;
  std::vector<size_t> sizes = {0,    1,    2,    3,     4,     100,
                               232,  2048, 4095, 4096,  4097,  4500,
                               8000, 48 << 10,   65536, 70000, 150000};
  for (int k = 0; k < 12; ++k) sizes.push_back(100 + Next(&s) % 1948);
  for (int k = 0; k < 4; ++k) sizes.push_back(3800 + Next(&s) % 600);
  for (size_t i = sizes.size() - 1; i > 0; --i) {
    std::swap(sizes[i], sizes[Next(&s) % (i + 1)]);
  }
  std::vector<std::string> inputs;
  for (const size_t n : sizes) {
    for (const bool random : {false, true}) {
      std::string in = random ? RandomBytes(n, Next(&s))
                              : ZipfText(n, 3 + Next(&s) % 3);
      in.resize(n);
      inputs.push_back(in);
      inputs.push_back(std::move(in));
    }
  }
  return inputs;
}

std::string CompressOnFreshThread(const std::string& input) {
  std::string out;
  std::thread([&] { LzCompress(input, &out); }).join();
  return out;
}

TEST(CompressTest, ReusedMatchTableGivesFreshTableBytes) {
  const std::vector<std::string> inputs = SizeMix(0x7AB1E);
  std::vector<std::string> fresh;
  for (const std::string& in : inputs) {
    fresh.push_back(CompressOnFreshThread(in));
  }
  // One thread, one input after another.
  for (size_t i = 0; i < inputs.size(); ++i) {
    std::string out;
    LzCompress(inputs[i], &out);
    EXPECT_EQ(out, fresh[i]) << "input " << i << " (" << inputs[i].size()
                             << " B)";
  }
  // Four threads at once, each over the mix from its own start.
  constexpr int kThreads = 4;
  std::vector<std::vector<size_t>> wrong(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < inputs.size(); ++k) {
        const size_t i = (k + static_cast<size_t>(t) * 14) % inputs.size();
        std::string out;
        LzCompress(inputs[i], &out);
        if (out != fresh[i]) wrong[static_cast<size_t>(t)].push_back(i);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(wrong[static_cast<size_t>(t)].empty())
        << "thread " << t << " differed on "
        << wrong[static_cast<size_t>(t)].size() << " inputs";
  }
}

}  // namespace
}  // namespace onepass
