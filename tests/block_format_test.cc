#include "src/storage/block_format.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/coding.h"
#include "src/util/kv_buffer.h"

namespace onepass {
namespace {

struct Codecs {
  BlockEncoding encoding;
  BlockCodecKind codec;
};

const Codecs kAll[] = {
    {BlockEncoding::kPrefix, BlockCodecKind::kNone},
    {BlockEncoding::kPrefix, BlockCodecKind::kLz},
    {BlockEncoding::kGrouped, BlockCodecKind::kNone},
    {BlockEncoding::kGrouped, BlockCodecKind::kLz},
};

// Encodes and decodes `buf` under every (encoding, codec) combination and
// checks the decoded KvBuffer is byte-identical.
void ExpectRoundTrips(const KvBuffer& buf, uint64_t block_bytes = 1024) {
  for (const Codecs& c : kAll) {
    CodecStats enc_stats;
    const std::string enc =
        EncodeKvStream(buf, c.encoding, c.codec, block_bytes, &enc_stats);
    EXPECT_EQ(enc_stats.raw_bytes, buf.bytes());
    EXPECT_EQ(enc_stats.encoded_bytes, enc.size());
    CodecStats dec_stats;
    Result<KvBuffer> dec = DecodeKvStream(enc, &dec_stats);
    ASSERT_TRUE(dec.ok()) << dec.status().ToString();
    EXPECT_EQ(dec.value().data(), buf.data());
    EXPECT_EQ(dec.value().count(), buf.count());
  }
}

TEST(BlockFormatTest, EmptyStream) {
  KvBuffer empty;
  for (const Codecs& c : kAll) {
    const std::string enc =
        EncodeKvStream(empty, c.encoding, c.codec, 1024, nullptr);
    EXPECT_TRUE(enc.empty());
    Result<KvBuffer> dec = DecodeKvStream(enc, nullptr);
    ASSERT_TRUE(dec.ok());
    EXPECT_TRUE(dec.value().empty());
  }
}

TEST(BlockFormatTest, SortedRunRoundTripsAcrossBlockBoundaries) {
  KvBuffer buf;
  for (int i = 0; i < 2000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%08d", i);
    buf.Append(key, "value" + std::to_string(i % 7));
  }
  for (uint64_t block : {uint64_t{64}, uint64_t{1024}, uint64_t{1} << 20}) {
    ExpectRoundTrips(buf, block);
  }
}

TEST(BlockFormatTest, PrefixEncodingShrinksSharedKeyPrefixes) {
  // Sorted keys with a long common prefix: front coding must beat the raw
  // serialization even before LZ.
  KvBuffer buf;
  for (int i = 0; i < 1000; ++i) {
    char key[40];
    std::snprintf(key, sizeof(key), "user/session/2026/08/%08d", i);
    buf.Append(key, "v");
  }
  const std::string enc = EncodeKvStream(buf, BlockEncoding::kPrefix,
                                         BlockCodecKind::kNone, 4096, nullptr);
  EXPECT_LT(enc.size(), buf.bytes() / 2);
  Result<KvBuffer> dec = DecodeKvStream(enc, nullptr);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value().data(), buf.data());
}

TEST(BlockFormatTest, GroupedEncodingCollapsesRepeatedKeys) {
  // Hash-bucket streams carry long runs of one key; the key is stored once
  // per run, not once per record.
  KvBuffer buf;
  for (int k = 0; k < 20; ++k) {
    const std::string key = "hotkey-number-" + std::to_string(k);
    for (int i = 0; i < 100; ++i) buf.Append(key, "v" + std::to_string(i));
  }
  const std::string enc = EncodeKvStream(buf, BlockEncoding::kGrouped,
                                         BlockCodecKind::kNone, 1 << 20,
                                         nullptr);
  EXPECT_LT(enc.size(), buf.bytes() / 2);
  Result<KvBuffer> dec = DecodeKvStream(enc, nullptr);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value().data(), buf.data());
}

TEST(BlockFormatTest, RestartPointsBoundPrefixChains) {
  // A key run longer than the restart interval still round-trips: the
  // decoder's chain state resets at every restart record.
  KvBuffer buf;
  std::string key = "aaaaaaaaaaaaaaaa";
  for (int i = 0; i < 100; ++i) {
    key.back() = static_cast<char>('a' + (i % 26));
    buf.Append(key, std::string(3, static_cast<char>('0' + i % 10)));
  }
  ExpectRoundTrips(buf, /*block_bytes=*/1 << 20);  // one big block
}

TEST(BlockFormatTest, UnsortedKeysRoundTripUnderPrefixEncoding) {
  // kPrefix never requires sortedness for correctness — unsorted keys just
  // share shorter prefixes.
  KvBuffer buf;
  for (int i = 0; i < 500; ++i) {
    buf.Append("k" + std::to_string((i * 7919) % 500), "v");
  }
  ExpectRoundTrips(buf);
}

TEST(BlockFormatTest, EmptyAndHugeKeysAndValues) {
  KvBuffer buf;
  buf.Append("", "");
  buf.Append("", std::string(100000, 'v'));
  buf.Append(std::string(100000, 'k'), "");
  buf.Append(std::string(100000, 'k') + "x", std::string(50000, 'w'));
  buf.Append("tiny", "t");
  // Records far larger than the block size each get their own block.
  ExpectRoundTrips(buf, /*block_bytes=*/256);
}

TEST(BlockFormatTest, BinaryKeysAndValues) {
  KvBuffer buf;
  std::string key, value;
  for (int i = 0; i < 256; ++i) {
    key.push_back(static_cast<char>(i));
    value = std::string(5, static_cast<char>(255 - i));
    buf.Append(key, value);
  }
  ExpectRoundTrips(buf);
}

TEST(BlockFormatTest, StreamsConcatenate) {
  // Blocks are self-delimiting: the concatenation of two encoded streams
  // decodes to the concatenation of their payloads (bucket files rely on
  // this — each page flush appends one stream).
  KvBuffer a, b;
  for (int i = 0; i < 100; ++i) a.Append("a" + std::to_string(i), "1");
  for (int i = 0; i < 100; ++i) b.Append("b" + std::to_string(i), "2");
  for (const Codecs& c : kAll) {
    const std::string enc =
        EncodeKvStream(a, c.encoding, c.codec, 512, nullptr) +
        EncodeKvStream(b, c.encoding, c.codec, 512, nullptr);
    Result<KvBuffer> dec = DecodeKvStream(enc, nullptr);
    ASSERT_TRUE(dec.ok()) << dec.status().ToString();
    EXPECT_EQ(dec.value().data(), a.data() + b.data());
    EXPECT_EQ(dec.value().count(), a.count() + b.count());
  }
}

TEST(BlockFormatTest, DecodeRejectsTruncation) {
  KvBuffer buf;
  for (int i = 0; i < 300; ++i) buf.Append("key" + std::to_string(i), "val");
  for (const Codecs& c : kAll) {
    const std::string enc =
        EncodeKvStream(buf, c.encoding, c.codec, 512, nullptr);
    for (size_t keep = 0; keep < enc.size(); keep += 13) {
      if (keep == 0) continue;
      Result<KvBuffer> dec =
          DecodeKvStream(std::string_view(enc).substr(0, keep), nullptr);
      // Truncation at a block boundary can decode a shorter valid stream;
      // anything else must fail cleanly. Either way: no crash, no bogus
      // extra records.
      if (dec.ok()) {
        EXPECT_LE(dec.value().count(), buf.count());
        EXPECT_EQ(buf.data().compare(0, dec.value().data().size(),
                                     dec.value().data()),
                  0);
      }
    }
  }
}

TEST(BlockFormatTest, DecodeRejectsCorruptHeader) {
  KvBuffer buf;
  buf.Append("some-key", "some-value");
  const std::string enc = EncodeKvStream(buf, BlockEncoding::kPrefix,
                                         BlockCodecKind::kNone, 512, nullptr);
  // Unknown flag bits are a format error.
  std::string bad = enc;
  bad[2] = static_cast<char>(0x80);
  EXPECT_FALSE(DecodeKvStream(bad, nullptr).ok());
}

TEST(BlockFormatTest, DecodeRejectsForgedDecompressedSize) {
  // A header that passes the plausibility check (the largest ubody_len it
  // allows for 2^30 raw bytes in 2^30 records, about 17 GiB) over a 1-byte
  // lz body: rejected as corrupt without allocating the claimed size.
  const uint64_t raw_len = uint64_t{1} << 30;
  const uint64_t num_records = uint64_t{1} << 30;
  std::string forged;
  PutVarint64(&forged, raw_len);
  PutVarint64(&forged, num_records);
  forged.push_back(static_cast<char>(0x2));  // kPrefix, lz-compressed
  PutVarint64(&forged, raw_len + 16 * num_records + 64);
  PutVarint64(&forged, 1);
  forged.push_back('\0');
  Result<KvBuffer> dec = DecodeKvStream(forged, nullptr);
  ASSERT_FALSE(dec.ok());
  EXPECT_TRUE(dec.status().IsCorruption()) << dec.status().ToString();
}

TEST(BlockFormatTest, StatsCountStoredBlocksForIncompressibleData) {
  // Pseudorandom payloads defeat LZ; such blocks are stored raw and the
  // stream stays within the format overhead of the plain encoding.
  KvBuffer buf;
  uint64_t s = 12345;
  for (int i = 0; i < 500; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    std::string key(8, '\0'), value(24, '\0');
    for (auto& ch : key) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      ch = static_cast<char>(s >> 56);
    }
    for (auto& ch : value) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      ch = static_cast<char>(s >> 56);
    }
    buf.Append(key, value);
  }
  CodecStats stats;
  const std::string enc = EncodeKvStream(buf, BlockEncoding::kPrefix,
                                         BlockCodecKind::kLz, 4096, &stats);
  EXPECT_GT(stats.stored_blocks, 0u);
  EXPECT_LE(stats.stored_blocks, stats.blocks);
  // Random keys share no prefixes, so front coding costs up to ~2 extra
  // varint bytes per record; stored blocks add only header bytes on top.
  EXPECT_LE(enc.size(), buf.bytes() + 2 * buf.count() + 32 * stats.blocks);
  Result<KvBuffer> dec = DecodeKvStream(enc, &stats);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value().data(), buf.data());
}

}  // namespace
}  // namespace onepass
