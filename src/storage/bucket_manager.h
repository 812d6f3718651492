// BucketFileManager: the reduce-side disk bucket files with paged write
// buffers.
//
// All three hash engines stage overflow tuples into h on-disk bucket files
// (§4.1–4.3). Each bucket has a write-buffer page; tuples append to the
// page and the page is flushed to the bucket's file when full (one
// sequential I/O request per flush). Bytes written/read are charged to the
// owning task's CostTrace and to JobMetrics as reduce spill.
//
// "Disk" content is held in memory (the platform's time plane is simulated;
// see DESIGN.md), but the byte accounting is exact. A manager is strictly
// task-local: each reduce task's engine owns its own instance(s), wired to
// that task's trace and metrics, so concurrent reduce tasks never share
// one (DESIGN.md §5.3). Corruption draws are keyed by the stable `owner`
// id, not by when the task happens to run. Each bucket file is a StoredRun
// (stored_run.h), which applies the codec; TakeBucket reads it back
// through VerifiedRead, the rebuild loop bucket files share with map spill
// runs (DESIGN.md §5.2): a corrupt copy is rebuilt from the recorded page
// flushes, charging the extra I/O, until the per-stream recovery budget
// runs out, and then TakeBucket returns Status::Corruption.

#ifndef ONEPASS_STORAGE_BUCKET_MANAGER_H_
#define ONEPASS_STORAGE_BUCKET_MANAGER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/model/cost_model.h"
#include "src/mr/cost_trace.h"
#include "src/mr/metrics.h"
#include "src/sim/fault_injector.h"
#include "src/storage/block_format.h"
#include "src/storage/checkpoint.h"
#include "src/storage/framed_io.h"
#include "src/storage/stored_run.h"
#include "src/util/kv_buffer.h"

namespace onepass {

class BucketFileManager {
 public:
  // num_buckets: h; page_bytes: write-buffer size per bucket.
  // integrity/plan may be null (checksums off / no injection); `owner`
  // names this manager in the FaultPlan's corruption keyspace — reduce
  // task index + 1 for an engine's primary manager, a mixed child id for
  // recursive sub-partition managers (must be stable across runs for
  // determinism).
  // When `codec` is not kNone, each page flush is encoded as a run-length
  // key-grouped block stream (DESIGN.md §5.5) before it hits disk, so disk
  // charges and integrity checksums cover the encoded bytes. `costs`
  // supplies the codec CPU constants and must be non-null when a codec is
  // active.
  BucketFileManager(int num_buckets, uint64_t page_bytes,
                    TraceRecorder* trace, JobMetrics* metrics,
                    const IntegrityConfig* integrity = nullptr,
                    const sim::FaultPlan* plan = nullptr,
                    uint64_t owner = 0, const CostModel* costs = nullptr,
                    BlockCodecKind codec = BlockCodecKind::kNone,
                    uint64_t codec_block_bytes = 48 << 10);

  // Appends a tuple to `bucket`'s write buffer, flushing the page to disk
  // if it is full.
  void Add(int bucket, std::string_view key, std::string_view value);

  // Flushes every non-empty page. Call at end of input.
  void FlushAll();

  // Reads a bucket's file back from disk (charges the read), verifies it
  // when integrity checksums are on, and returns its contents, clearing
  // the stored file. FlushAll must have been called. Returns
  // Status::Corruption when the file is corrupt beyond the plan's
  // corruption_retry.max_retries rebuild budget.
  Result<KvBuffer> TakeBucket(int bucket);

  int num_buckets() const { return static_cast<int>(files_.size()); }
  // Memory held by unflushed write-buffer pages.
  uint64_t buffered_bytes() const { return buffered_bytes_; }
  // Total bytes spilled to disk through this manager (encoded bytes when a
  // codec is active — this is what the simulated disk carried).
  uint64_t spilled_bytes() const { return spilled_bytes_; }
  uint64_t spilled_records() const { return spilled_records_; }

  // Checkpointing (DESIGN.md §5.6): serializes the complete mid-stream
  // state — unflushed pages, bucket files (raw or encoded), and the spill
  // accounting — so a restored manager continues byte-identically.
  // Non-destructive; charges nothing (the cluster prices checkpoint I/O).
  void SaveTo(CheckpointWriter* w) const;
  // Restores into a freshly constructed manager with the same shape
  // (bucket count and codec must match the saved state).
  Status RestoreFrom(CheckpointReader* r);

 private:
  void FlushPage(int bucket);

  uint64_t page_bytes_;
  TraceRecorder* trace_;
  JobMetrics* metrics_;
  const IntegrityConfig* integrity_;
  const sim::FaultPlan* plan_;
  uint64_t owner_;
  RunCodec codec_;
  std::vector<KvBuffer> pages_;
  std::vector<StoredRun> files_;
  uint64_t buffered_bytes_ = 0;
  uint64_t spilled_bytes_ = 0;
  uint64_t spilled_records_ = 0;
};

}  // namespace onepass

#endif  // ONEPASS_STORAGE_BUCKET_MANAGER_H_
