// StoredRun: the disk image of one key-value stream (DESIGN.md §5.5), and
// the verified read that replays its seeded corruption (DESIGN.md §5.2).
//
// A map spill run's partitions, a sort-merge reduce run and a hash-engine
// bucket file are all stored runs: raw KvBuffer bytes under
// BlockCodecKind::kNone, otherwise one block stream (block_format.h) per
// Append, which concatenate into one valid stream. A run knows its raw size
// (what a read gives back), its disk size (what the disk carries and the
// checksums cover) and its record count. This is the one place an
// intermediate run's codec is applied: owners charge the sizes a run
// reports and never branch on the codec.

#ifndef ONEPASS_STORAGE_STORED_RUN_H_
#define ONEPASS_STORAGE_STORED_RUN_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/model/cost_model.h"
#include "src/mr/cost_trace.h"
#include "src/mr/metrics.h"
#include "src/sim/fault_injector.h"
#include "src/storage/block_format.h"
#include "src/storage/checkpoint.h"
#include "src/storage/framed_io.h"
#include "src/util/kv_buffer.h"

namespace onepass {

// The codec one family of stored runs is written with, and where the
// codec work is charged.
class RunCodec {
 public:
  // Which JobMetrics codec_*_{raw,encoded}_bytes pair the family feeds.
  enum class Family : uint8_t { kMapSpill, kReduceSpill, kBucket };

  // `costs` supplies the codec CPU prices; required unless kind is kNone.
  RunCodec(BlockCodecKind kind, BlockEncoding encoding, uint64_t block_bytes,
           const CostModel* costs, Family family);

  bool coded() const { return kind_ != BlockCodecKind::kNone; }

  // Charge the work `stats` accrued over any number of encodes (decodes):
  // one CPU op for its raw bytes at `tag`, the family's byte counters and
  // the host timer. Under kNone nothing was coded and nothing is charged.
  void ChargeEncode(const CodecStats& stats, OpTag tag, TraceRecorder* trace,
                    JobMetrics* metrics) const;
  void ChargeDecode(const CodecStats& stats, OpTag tag, TraceRecorder* trace,
                    JobMetrics* metrics) const;

 private:
  friend class StoredRun;

  BlockCodecKind kind_ = BlockCodecKind::kNone;
  BlockEncoding encoding_ = BlockEncoding::kPrefix;
  Family family_ = Family::kMapSpill;
  uint64_t block_bytes_ = 0;
  const CostModel* costs_ = nullptr;
};

class StoredRun {
 public:
  explicit StoredRun(const RunCodec& codec) : codec_(codec) {}

  // Appends `records` to the image — their raw bytes under kNone, one
  // more block stream under a codec, with the encode work accrued to
  // *stats. Returns the disk bytes added.
  uint64_t Append(const KvBuffer& records, CodecStats* stats);

  uint64_t raw_bytes() const { return raw_bytes_; }
  uint64_t disk_bytes() const { return image_.size(); }
  uint64_t records() const { return records_; }
  std::string_view image() const { return image_; }

  // Reads the records back, decoding a block stream with the decode work
  // accrued to *stats. Returns Status::Corruption when the stream is
  // malformed or decodes to the wrong size.
  Result<KvBuffer> Load(CodecStats* stats) const;
  // Load that leaves the run empty and frees its image (under kNone, the
  // image moves into the returned buffer).
  Result<KvBuffer> Take(CodecStats* stats);

  // Checkpoint fields (DESIGN.md §5.6) in the layout sort-merge run
  // manifests use: "<name>_raw_bytes.<tag>", "<name>_disk_bytes.<tag>",
  // then the image as a raw field ("<name>_n.<tag>" records,
  // "<name>.<tag>") and a coded one ("<name>_enc.<tag>"), one of the two
  // always empty.
  void SaveTo(CheckpointWriter* w, const std::string& name,
              const std::string& tag) const;
  Status RestoreFrom(CheckpointReader* r, const std::string& name,
                     const std::string& tag);
  // Replaces the run with a checkpointed image of known sizes.
  void Restore(std::string_view image, uint64_t raw_bytes, uint64_t records);

 private:
  RunCodec codec_;
  std::string image_;
  uint64_t raw_bytes_ = 0;
  uint64_t records_ = 0;
};

// Where a stored image sits in the fault plan's corruption keyspace, and
// the op tag its recovery I/O is charged to.
struct StreamSite {
  sim::StreamKind kind;
  uint64_t owner;  // map task, or bucket manager owner id
  uint64_t index;  // spill run, or bucket
  OpTag tag;
};

// Verified read of one stored image: the one rebuild loop shared by map
// spill runs and bucket files. When checksums are on, frames the image,
// then for each corrupt generation the plan draws damages a framed copy,
// proves the verifier rejects it and counts it; past the plan's
// corruption_retry.max_retries it returns Status::Corruption, otherwise
// it charges the backoff stall plus the rebuild's write and read at
// site.tag. `verify_bytes` counts every verified read, damaged
// generations included. The caller charges the first read itself.
Status VerifiedRead(std::string_view image, const StreamSite& site,
                    const IntegrityConfig* integrity,
                    const sim::FaultPlan* plan, TraceRecorder* trace,
                    JobMetrics* metrics);

// Damages a copy of the framed image `framed` as `ev` says (ev must fire)
// and proves the verifier rejects it: injected damage that verifies is a
// checksum bug, and aborts.
void ProveDamageDetected(std::string_view framed,
                         const sim::CorruptionEvent& ev,
                         int64_t expected_payload_bytes);

}  // namespace onepass

#endif  // ONEPASS_STORAGE_STORED_RUN_H_
