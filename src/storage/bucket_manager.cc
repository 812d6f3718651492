#include "src/storage/bucket_manager.h"

#include <string>

#include "src/common/logging.h"

namespace onepass {

BucketFileManager::BucketFileManager(
    int num_buckets, uint64_t page_bytes, TraceRecorder* trace,
    JobMetrics* metrics, const sim::FaultPlan* plan, uint64_t owner,
    const CostModel* costs, BlockCodecKind codec)
    : page_bytes_(page_bytes),
      trace_(trace),
      metrics_(metrics),
      plan_(plan),
      owner_(owner),
      codec_(codec, BlockEncoding::kGrouped, costs,
             RunCodec::Family::kBucket) {
  CHECK_GE(num_buckets, 1);
  pages_.resize(num_buckets);
  files_.resize(num_buckets, StoredRun(codec_));
}

void BucketFileManager::Add(int bucket, std::string_view key,
                            std::string_view value) {
  KvBuffer& page = pages_[bucket];
  const uint64_t before = page.bytes();
  page.Append(key, value);
  buffered_bytes_ += page.bytes() - before;
  ++spilled_records_;
  if (page.bytes() >= page_bytes_) FlushPage(bucket);
}

void BucketFileManager::FlushAll() {
  for (int b = 0; b < num_buckets(); ++b) {
    if (!pages_[b].empty()) FlushPage(b);
  }
}

void BucketFileManager::FlushPage(int bucket) {
  KvBuffer& page = pages_[bucket];
  buffered_bytes_ -= page.bytes();
  CodecStats stats;
  const uint64_t disk_bytes = files_[bucket].Append(page, &stats);
  codec_.ChargeEncode(stats, OpTag::kReduceSpill, trace_, metrics_);
  trace_->DiskWrite(disk_bytes, OpTag::kReduceSpill);
  metrics_->reduce_spill_write_bytes += disk_bytes;
  spilled_bytes_ += disk_bytes;
  page.Clear();
}

Result<KvBuffer> BucketFileManager::TakeBucket(int bucket) {
  CHECK(pages_[bucket].empty()) << "FlushAll must run before TakeBucket";
  StoredRun& file = files_[bucket];
  if (file.disk_bytes() == 0) return KvBuffer();
  trace_->DiskRead(file.disk_bytes(), OpTag::kReduceSpill);
  metrics_->reduce_spill_read_bytes += file.disk_bytes();
  // A corrupt copy is rebuilt by replaying the recorded page flushes.
  VerifiedRead(file.image(),
               {sim::StreamKind::kBucketFile, owner_,
                static_cast<uint64_t>(bucket), OpTag::kReduceSpill},
               plan_, trace_, metrics_);
  CodecStats stats;
  Result<KvBuffer> records = file.Take(&stats);
  codec_.ChargeDecode(stats, OpTag::kReduceSpill, trace_, metrics_);
  return records;
}

void BucketFileManager::SaveTo(CheckpointWriter* w) const {
  w->PutU64("bkt.buckets", static_cast<uint64_t>(num_buckets()));
  w->PutU64("bkt.coded", codec_.coded() ? 1 : 0);
  w->PutU64("bkt.buffered_bytes", buffered_bytes_);
  w->PutU64("bkt.spilled_bytes", spilled_bytes_);
  w->PutU64("bkt.spilled_records", spilled_records_);
  for (int b = 0; b < num_buckets(); ++b) {
    const std::string tag = std::to_string(b);
    const StoredRun& file = files_[b];
    w->PutU64("bkt.page_n." + tag, pages_[b].count());
    w->PutBytes("bkt.page." + tag, pages_[b].data());
    if (codec_.coded()) {
      w->PutBytes("bkt.enc." + tag, file.image());
      w->PutU64("bkt.raw_bytes." + tag, file.raw_bytes());
      w->PutU64("bkt.raw_records." + tag, file.records());
    } else {
      w->PutU64("bkt.file_n." + tag, file.records());
      w->PutBytes("bkt.file." + tag, file.image());
    }
  }
}

Status BucketFileManager::RestoreFrom(CheckpointReader* r) {
  uint64_t buckets = 0, was_coded = 0;
  RETURN_IF_ERROR(r->GetU64("bkt.buckets", &buckets));
  RETURN_IF_ERROR(r->GetU64("bkt.coded", &was_coded));
  if (buckets != static_cast<uint64_t>(num_buckets()) ||
      was_coded != (codec_.coded() ? 1u : 0u)) {
    return Status::Corruption(
        "checkpointed bucket manager shape does not match this config");
  }
  RETURN_IF_ERROR(r->GetU64("bkt.buffered_bytes", &buffered_bytes_));
  RETURN_IF_ERROR(r->GetU64("bkt.spilled_bytes", &spilled_bytes_));
  RETURN_IF_ERROR(r->GetU64("bkt.spilled_records", &spilled_records_));
  for (int b = 0; b < num_buckets(); ++b) {
    const std::string tag = std::to_string(b);
    uint64_t n = 0, raw_bytes = 0;
    std::string_view bytes;
    RETURN_IF_ERROR(r->GetU64("bkt.page_n." + tag, &n));
    RETURN_IF_ERROR(r->GetBytes("bkt.page." + tag, &bytes));
    pages_[b] = KvBuffer::FromData(std::string(bytes), n);
    if (codec_.coded()) {
      RETURN_IF_ERROR(r->GetBytes("bkt.enc." + tag, &bytes));
      RETURN_IF_ERROR(r->GetU64("bkt.raw_bytes." + tag, &raw_bytes));
      RETURN_IF_ERROR(r->GetU64("bkt.raw_records." + tag, &n));
    } else {
      RETURN_IF_ERROR(r->GetU64("bkt.file_n." + tag, &n));
      RETURN_IF_ERROR(r->GetBytes("bkt.file." + tag, &bytes));
      raw_bytes = bytes.size();
    }
    files_[b].Restore(bytes, raw_bytes, n);
  }
  return Status::OK();
}

}  // namespace onepass
