// Codec smoke for CI (DESIGN.md §5.5): three floors that must hold for
// the block byte path to be worth shipping, checked fast enough to run on
// every push:
//   (1) compression ratio on the Zipf'd word-count spill plane >= 1.5x;
//   (2) LZ compress and decode throughput >= deliberately conservative
//       floors, and 256 B blocks compressing at least as fast as 48 KB
//       ones (the per-call setup gate);
//   (3) kNone and kLz produce identical output fingerprints on all four
//       engines.
// Exits non-zero if any floor is missed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.h"
#include "src/storage/block_format.h"
#include "src/util/compress.h"
#include "src/util/hash.h"
#include "src/util/kv_buffer.h"
#include "src/workloads/jobs.h"

namespace {

// Order-insensitive fingerprint (same construction as bench_fig4b): a
// commutative sum of per-record hashes, so engines that emit records in
// different orders can still be compared record-for-record.
uint64_t OutputFingerprint(const std::vector<onepass::Record>& outputs) {
  uint64_t fp = 0;
  for (const onepass::Record& rec : outputs) {
    fp += onepass::Mix64(onepass::HashBytes(rec.key, 7) ^
                         onepass::HashBytes(rec.value, 13));
  }
  return fp;
}

bool Check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace onepass;
  const bench::Flags flags = bench::ParseFlags(argc, argv);
  bool ok = true;

  std::printf("=== codec smoke: ratio, compress/decode throughput, answer "
              "equivalence ===\n\n");

  // ---- (1) compression ratio on Zipf word-count spills ----
  {
    DocumentCorpusConfig docs = bench::ScaledDocs(flags.scale);
    docs.num_records = static_cast<uint64_t>(20'000 * flags.scale);
    JobConfig cfg = bench::ScaledJobConfig(EngineKind::kSortMerge);
    cfg.map_buffer_bytes = 128 << 10;   // forces map-side spill runs
    cfg.reduce_memory_bytes = 64 << 10;  // forces reduce-side runs
    cfg.merge_factor = 4;
    cfg.block_codec = BlockCodecKind::kLz;
    ChunkStore input(cfg.chunk_bytes, cfg.cluster.nodes);
    GenerateDocuments(docs, &input);

    auto r = bench::MustRun(TrigramCountJob(/*threshold=*/5), cfg, input);
    if (!r.ok()) return 1;
    const JobMetrics& m = r->metrics;
    const uint64_t raw = m.codec_map_spill_raw_bytes +
                         m.codec_shuffle_raw_bytes +
                         m.codec_reduce_spill_raw_bytes +
                         m.codec_bucket_raw_bytes;
    const uint64_t enc = m.codec_map_spill_encoded_bytes +
                         m.codec_shuffle_encoded_bytes +
                         m.codec_reduce_spill_encoded_bytes +
                         m.codec_bucket_encoded_bytes;
    const double ratio =
        enc > 0 ? static_cast<double>(raw) / static_cast<double>(enc) : 0.0;
    std::printf("Zipf word-count spill plane: raw %s MB -> encoded %s MB "
                "(%.2fx)\n",
                bench::Mb(raw).c_str(), bench::Mb(enc).c_str(), ratio);
    ok &= Check(ratio >= 1.5, "spill compression ratio >= 1.5x");

    // Informational: end-to-end decode throughput observed inside the job.
    if (m.decompress_ns > 0) {
      std::printf("  in-job decode: %.0f MB/s over %s MB raw\n",
                  raw / (m.decompress_ns / 1e9) / (1 << 20),
                  bench::Mb(raw).c_str());
    }
  }

  // ---- (2) LZ compress and decode throughput floors ----
  {
    // Time repeated compressions and decodes of a Zipf'd text buffer in
    // codec-sized blocks. The floors are conservative by design so the
    // checks trip only on real regressions (quadratic matching or copies,
    // per-byte branching), not on slow CI machines: decode's is an order
    // of magnitude below what the byte-aligned decoder does on release
    // builds, compress's about a third of what the matcher does on this
    // corpus.
    DocumentCorpusConfig docs = bench::ScaledDocs(0.05);
    ChunkStore text(256 << 10, 1);
    GenerateDocuments(docs, &text);
    std::string raw;
    for (const Chunk& c : text.chunks()) raw += c.records.data();
    auto blocks_of = [&raw](size_t block) {
      std::vector<std::string_view> blocks;
      for (size_t off = 0; off < raw.size(); off += block) {
        blocks.push_back(std::string_view(raw).substr(
            off, std::min(block, raw.size() - off)));
      }
      return blocks;
    };
    const std::vector<std::string_view> raw_blocks = blocks_of(48 << 10);
    const int reps = 20;
    std::vector<std::string> enc(raw_blocks.size());
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
      for (size_t b = 0; b < raw_blocks.size(); ++b) {
        enc[b].clear();
        LzCompress(raw_blocks[b], &enc[b]);
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    std::string out;
    for (int i = 0; i < reps; ++i) {
      for (size_t b = 0; b < raw_blocks.size(); ++b) {
        out.clear();
        if (!LzDecompress(enc[b], raw_blocks[b].size(), &out)) return 1;
      }
    }
    const auto t2 = std::chrono::steady_clock::now();
    // The same corpus in 256-byte blocks, the size of a typical
    // checkpoint delta: a per-call setup cost (a match table allocated
    // and filled on every call) shows here and not in 48 KB blocks.
    const std::vector<std::string_view> small_blocks = blocks_of(256);
    std::string small_enc;
    const auto t3 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
      for (const std::string_view block : small_blocks) {
        small_enc.clear();
        LzCompress(block, &small_enc);
      }
    }
    const auto t4 = std::chrono::steady_clock::now();
    const double mb = static_cast<double>(reps) * raw.size() / (1 << 20);
    const double compress_mb_s =
        mb / std::chrono::duration<double>(t1 - t0).count();
    const double decode_mb_s =
        mb / std::chrono::duration<double>(t2 - t1).count();
    const double small_mb_s =
        mb / std::chrono::duration<double>(t4 - t3).count();
    const double small_ratio = small_mb_s / compress_mb_s;
    std::printf("\nLZ compress: %.0f MB/s in 48 KB blocks, %.0f MB/s in "
                "256 B blocks (%.2fx); decode: %.0f MB/s (%zu KB corpus, "
                "%d reps)\n",
                compress_mb_s, small_mb_s, small_ratio, decode_mb_s,
                raw.size() >> 10, reps);
    ok &= Check(compress_mb_s >= 16.0, "compress throughput >= 16 MB/s");
    ok &= Check(decode_mb_s >= 64.0, "decode throughput >= 64 MB/s");
    // Both figures come from this run on this host, so the floor holds
    // on any CI machine: the small blocks must compress at least as fast
    // as the large ones (about 0.7x with per-call setup, 1.6x without).
    ok &= Check(small_ratio >= 1.0,
                "256 B block compress >= 1.0x the 48 KB block speed");
  }

  // ---- (3) kNone vs kLz fingerprints on all four engines ----
  {
    std::printf("\n%-12s %18s %18s\n", "engine", "fp(none)", "fp(lz)");
    const ClickStreamConfig clicks = bench::ScaledClicks(0.1 * flags.scale);
    for (const EngineKind engine :
         {EngineKind::kSortMerge, EngineKind::kMRHash, EngineKind::kIncHash,
          EngineKind::kDincHash}) {
      JobConfig cfg = bench::ScaledJobConfig(engine);
      cfg.reduce_memory_bytes = 64 << 10;  // tight: every engine spills
      cfg.map_side_combine = true;
      cfg.collect_outputs = true;
      cfg.expected_keys_per_reducer =
          clicks.num_users /
          (cfg.cluster.nodes * cfg.reducers_per_node);
      cfg.expected_bytes_per_reducer = cfg.reduce_memory_bytes;
      ChunkStore input(cfg.chunk_bytes, cfg.cluster.nodes);
      GenerateClickStream(clicks, &input);

      uint64_t fp[2] = {0, 0};
      for (const BlockCodecKind codec :
           {BlockCodecKind::kNone, BlockCodecKind::kLz}) {
        cfg.block_codec = codec;
        auto r = bench::MustRun(ClickCountJob(), cfg, input);
        if (!r.ok()) return 1;
        fp[codec == BlockCodecKind::kLz] = OutputFingerprint(r->outputs);
      }
      std::printf("%-12s %18llx %18llx\n",
                  std::string(EngineKindName(engine)).c_str(),
                  static_cast<unsigned long long>(fp[0]),
                  static_cast<unsigned long long>(fp[1]));
      ok &= Check(fp[0] == fp[1], "kLz output identical to kNone");
    }
  }

  std::printf("\ncodec smoke: %s\n", ok ? "all floors hold" : "FAILED");
  return ok ? 0 : 1;
}
