#include "src/storage/block_format.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/logging.h"
#include "src/util/coding.h"
#include "src/util/compress.h"

namespace onepass {

namespace {

constexpr uint8_t kFlagEncodingMask = 0x1;
constexpr uint8_t kFlagLz = 0x2;

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t CommonPrefix(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

}  // namespace

std::string_view BlockCodecName(BlockCodecKind kind) {
  switch (kind) {
    case BlockCodecKind::kNone:
      return "none";
    case BlockCodecKind::kLz:
      return "lz";
  }
  return "unknown";
}

BlockBuilder::BlockBuilder(BlockEncoding encoding, BlockCodecKind codec,
                           uint64_t block_bytes, CodecStats* stats)
    : encoding_(encoding),
      codec_(codec),
      block_bytes_(block_bytes > 0 ? block_bytes : kCodecBlockBytes),
      stats_(stats) {}

void BlockBuilder::Add(std::string_view key, std::string_view value) {
  if (encoding_ == BlockEncoding::kPrefix) {
    const size_t shared =
        restart_countdown_ > 0 ? CommonPrefix(last_key_, key) : 0;
    PutVarint64(&body_, shared);
    PutVarint64(&body_, key.size() - shared);
    PutVarint64(&body_, value.size());
    body_.append(key.data() + shared, key.size() - shared);
    body_.append(value.data(), value.size());
    last_key_.assign(key.data(), key.size());
    restart_countdown_ =
        restart_countdown_ > 0 ? restart_countdown_ - 1 : kRestartInterval - 1;
  } else {
    if (!run_open_ || key != run_key_) {
      CloseRun();
      run_open_ = true;
      run_key_.assign(key.data(), key.size());
      run_count_ = 0;
      run_values_.clear();
    }
    PutLengthPrefixed(&run_values_, value);
    ++run_count_;
  }
  raw_in_block_ += RecordBytes(key, value);
  ++records_in_block_;
  if (raw_in_block_ >= block_bytes_) CutBlock();
}

void BlockBuilder::CloseRun() {
  if (!run_open_) return;
  PutLengthPrefixed(&body_, run_key_);
  PutVarint64(&body_, run_count_);
  body_.append(run_values_);
  run_open_ = false;
}

void BlockBuilder::CutBlock() {
  CloseRun();
  if (records_in_block_ == 0) return;
  uint8_t flags = static_cast<uint8_t>(encoding_) & kFlagEncodingMask;
  std::string_view body = body_;
  if (codec_ == BlockCodecKind::kLz) {
    scratch_.clear();
    const double t0 = NowNs();
    const size_t lz_size = LzCompress(body_, &scratch_);
    const double t1 = NowNs();
    if (stats_ != nullptr) stats_->compress_ns += t1 - t0;
    if (lz_size > 0 && lz_size < body_.size()) {
      flags |= kFlagLz;
      body = scratch_;
    } else if (stats_ != nullptr) {
      ++stats_->stored_blocks;  // incompressible passthrough
    }
  }
  const size_t before = out_.size();
  PutVarint64(&out_, raw_in_block_);
  PutVarint64(&out_, records_in_block_);
  out_.push_back(static_cast<char>(flags));
  if ((flags & kFlagLz) != 0) PutVarint64(&out_, body_.size());
  PutVarint64(&out_, body.size());
  out_.append(body.data(), body.size());
  if (stats_ != nullptr) {
    stats_->raw_bytes += raw_in_block_;
    stats_->encoded_bytes += out_.size() - before;
    ++stats_->blocks;
  }
  body_.clear();
  raw_in_block_ = 0;
  records_in_block_ = 0;
  last_key_.clear();
  restart_countdown_ = 0;
}

std::string BlockBuilder::Finish() {
  CutBlock();
  return std::move(out_);
}

std::string EncodeKvStream(const KvBuffer& records, BlockEncoding encoding,
                           BlockCodecKind codec, uint64_t block_bytes,
                           CodecStats* stats) {
  BlockBuilder builder(encoding, codec, block_bytes, stats);
  // Batched decode (§5.8): stage a batch of up to kBatchRecords views
  // per Fill; the builder adds them in order. A small stream (a
  // checkpoint delta) stages only its own records.
  KvBatchReader reader(
      records, static_cast<size_t>(std::min<uint64_t>(kBatchRecords,
                                                      records.count())));
  for (;;) {
    const size_t n = reader.Fill();
    if (n == 0) break;
    for (size_t i = 0; i < n; ++i) {
      builder.Add(reader.keys()[i], reader.values()[i]);
    }
  }
  return builder.Finish();
}

namespace {

// Decodes one block body into *out, appending exactly the records the
// builder consumed. Returns false on malformed input.
bool DecodeBody(std::string_view body, BlockEncoding encoding,
                uint64_t num_records, KvBuffer* out) {
  uint64_t decoded = 0;
  if (encoding == BlockEncoding::kPrefix) {
    std::string key;
    while (!body.empty()) {
      uint64_t shared = 0, unshared = 0, vlen = 0;
      if (!GetVarint64(&body, &shared) || !GetVarint64(&body, &unshared) ||
          !GetVarint64(&body, &vlen)) {
        return false;
      }
      if (shared > key.size() || unshared > body.size() ||
          vlen > body.size() - unshared) {
        return false;
      }
      key.resize(shared);
      key.append(body.data(), unshared);
      body.remove_prefix(unshared);
      out->Append(key, body.substr(0, vlen));
      body.remove_prefix(vlen);
      ++decoded;
    }
  } else {
    while (!body.empty()) {
      std::string_view key;
      uint64_t count = 0;
      if (!GetLengthPrefixed(&body, &key) || !GetVarint64(&body, &count) ||
          count == 0 || count > num_records) {
        return false;
      }
      for (uint64_t i = 0; i < count; ++i) {
        std::string_view value;
        if (!GetLengthPrefixed(&body, &value)) return false;
        out->Append(key, value);
      }
      decoded += count;
    }
  }
  return decoded == num_records;
}

}  // namespace

Result<KvBuffer> DecodeKvStream(std::string_view stream, CodecStats* stats) {
  KvBuffer out;
  std::string decompressed;  // reused per compressed block
  if (stats != nullptr) stats->encoded_bytes += stream.size();
  while (!stream.empty()) {
    uint64_t raw_len = 0, num_records = 0, body_len = 0, ubody_len = 0;
    if (!GetVarint64(&stream, &raw_len) ||
        !GetVarint64(&stream, &num_records) || stream.empty()) {
      return Status::Corruption("block stream: truncated header");
    }
    if (raw_len > (1ull << 30) || num_records > (1ull << 30)) {
      return Status::Corruption("block stream: implausible block header");
    }
    const uint8_t flags = static_cast<uint8_t>(stream.front());
    stream.remove_prefix(1);
    if ((flags & ~(kFlagEncodingMask | kFlagLz)) != 0) {
      return Status::Corruption("block stream: unknown flags");
    }
    const bool lz = (flags & kFlagLz) != 0;
    if (lz && !GetVarint64(&stream, &ubody_len)) {
      return Status::Corruption("block stream: truncated header");
    }
    if (!GetVarint64(&stream, &body_len) || body_len > stream.size()) {
      return Status::Corruption("block stream: truncated body");
    }
    std::string_view body = stream.substr(0, body_len);
    stream.remove_prefix(body_len);
    if (lz) {
      // The encoded body is never larger than raw_len plus a small
      // per-record overhead. LzDecompress sizes its output only after
      // checking the body can decode to ubody_len bytes, so a forged
      // header cannot force a large allocation.
      if (ubody_len > raw_len + 16 * num_records + 64) {
        return Status::Corruption("block stream: implausible body size");
      }
      decompressed.clear();
      const double t0 = NowNs();
      const bool ok = LzDecompress(body, ubody_len, &decompressed);
      if (stats != nullptr) stats->decompress_ns += NowNs() - t0;
      if (!ok) {
        return Status::Corruption("block stream: failed decompression");
      }
      body = decompressed;
    }
    const BlockEncoding encoding =
        static_cast<BlockEncoding>(flags & kFlagEncodingMask);
    const uint64_t before_bytes = out.bytes();
    if (!DecodeBody(body, encoding, num_records, &out)) {
      return Status::Corruption("block stream: malformed body");
    }
    if (out.bytes() - before_bytes != raw_len) {
      return Status::Corruption("block stream: byte-count mismatch");
    }
    if (stats != nullptr) {
      stats->raw_bytes += raw_len;
      ++stats->blocks;
    }
  }
  return out;
}

}  // namespace onepass
