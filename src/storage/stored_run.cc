#include "src/storage/stored_run.h"

#include <utility>

#include "src/common/logging.h"
#include "src/storage/framed_io.h"

namespace onepass {

RunCodec::RunCodec(BlockCodecKind kind, BlockEncoding encoding,
                   const CostModel* costs, Family family)
    : kind_(kind), encoding_(encoding), family_(family), costs_(costs) {
  CHECK(!coded() || costs_ != nullptr)
      << "codec needs the cost model's CPU constants";
}

void RunCodec::ChargeEncode(const CodecStats& stats, OpTag tag,
                            TraceRecorder* trace, JobMetrics* metrics) const {
  if (!coded()) return;
  trace->Cpu(costs_->compress_byte_s * static_cast<double>(stats.raw_bytes),
             tag);
  switch (family_) {
    case Family::kMapSpill:
      metrics->codec_map_spill_raw_bytes += stats.raw_bytes;
      metrics->codec_map_spill_encoded_bytes += stats.encoded_bytes;
      break;
    case Family::kReduceSpill:
      metrics->codec_reduce_spill_raw_bytes += stats.raw_bytes;
      metrics->codec_reduce_spill_encoded_bytes += stats.encoded_bytes;
      break;
    case Family::kBucket:
      metrics->codec_bucket_raw_bytes += stats.raw_bytes;
      metrics->codec_bucket_encoded_bytes += stats.encoded_bytes;
      break;
  }
  metrics->compress_ns += stats.compress_ns;
}

void RunCodec::ChargeDecode(const CodecStats& stats, OpTag tag,
                            TraceRecorder* trace, JobMetrics* metrics) const {
  if (!coded()) return;
  trace->Cpu(
      costs_->decompress_byte_s * static_cast<double>(stats.raw_bytes), tag);
  metrics->decompress_ns += stats.decompress_ns;
}

uint64_t StoredRun::Append(const KvBuffer& records, CodecStats* stats) {
  if (records.empty()) return 0;
  const uint64_t before = image_.size();
  if (codec_.coded()) {
    image_.append(EncodeKvStream(records, codec_.encoding_, codec_.kind_,
                                 kCodecBlockBytes, stats));
  } else {
    image_.append(records.data());
  }
  raw_bytes_ += records.bytes();
  records_ += records.count();
  return image_.size() - before;
}

Result<KvBuffer> StoredRun::Load(CodecStats* stats) const {
  if (!codec_.coded()) return KvBuffer::FromData(image_, records_);
  ASSIGN_OR_RETURN(KvBuffer records, DecodeKvStream(image_, stats));
  if (records.bytes() != raw_bytes_ || records.count() != records_) {
    return Status::Corruption("stored run decoded to the wrong size");
  }
  return records;
}

Result<KvBuffer> StoredRun::Take(CodecStats* stats) {
  Result<KvBuffer> records =
      codec_.coded() ? Load(stats)
                     : KvBuffer::FromData(std::move(image_), records_);
  // Free the image's buffer: assigning an empty string would keep it.
  std::string().swap(image_);
  raw_bytes_ = 0;
  records_ = 0;
  return records;
}

void StoredRun::SaveTo(CheckpointWriter* w, const std::string& name,
                       const std::string& tag) const {
  const bool coded = codec_.coded();
  w->PutU64(name + "_raw_bytes." + tag, raw_bytes_);
  w->PutU64(name + "_disk_bytes." + tag, disk_bytes());
  w->PutU64(name + "_n." + tag, coded ? 0 : records_);
  w->PutBytes(name + "." + tag, coded ? std::string_view() : image());
  w->PutBytes(name + "_enc." + tag, coded ? image() : std::string_view());
}

Status StoredRun::RestoreFrom(CheckpointReader* r, const std::string& name,
                              const std::string& tag) {
  uint64_t raw_bytes = 0, disk_bytes = 0, records = 0;
  std::string_view raw, coded;
  RETURN_IF_ERROR(r->GetU64(name + "_raw_bytes." + tag, &raw_bytes));
  // The disk size is the stored image's length.
  RETURN_IF_ERROR(r->GetU64(name + "_disk_bytes." + tag, &disk_bytes));
  RETURN_IF_ERROR(r->GetU64(name + "_n." + tag, &records));
  RETURN_IF_ERROR(r->GetBytes(name + "." + tag, &raw));
  RETURN_IF_ERROR(r->GetBytes(name + "_enc." + tag, &coded));
  const std::string_view image = codec_.coded() ? coded : raw;
  if (codec_.coded() && !image.empty()) {
    // This layout stores no record count for a coded image; decoding it
    // once recovers the count and proves the stream sound.
    ASSIGN_OR_RETURN(KvBuffer decoded, DecodeKvStream(image));
    records = decoded.count();
  }
  Restore(image, raw_bytes, records);
  return Status::OK();
}

void StoredRun::Restore(std::string_view image, uint64_t raw_bytes,
                        uint64_t records) {
  image_.assign(image);
  raw_bytes_ = raw_bytes;
  records_ = records;
}

void VerifiedRead(std::string_view image, const StreamSite& site,
                  const sim::FaultPlan* plan, TraceRecorder* trace,
                  JobMetrics* metrics) {
  if (image.empty()) return;
  // The "disk" holds the framed image; read it back through the checksum
  // layer.
  const std::string framed = FrameBytes(image, IntegrityConfig::block_bytes);
  metrics->checksum_overhead_bytes += framed.size() - image.size();
  const int64_t expect = static_cast<int64_t>(image.size());
  const int chain = plan == nullptr ? 0
                                    : plan->CorruptionChain(
                                          site.kind, site.owner, site.index);
  for (int gen = 0; gen < chain; ++gen) {
    // Generation `gen` is corrupt: prove the verifier catches it, then
    // rebuild the stream from its recorded inputs — rewritten and re-read,
    // charged for real.
    metrics->verify_bytes += image.size();
    const sim::CorruptionEvent ev = plan->CorruptionDamage(
        site.kind, site.owner, site.index, gen, framed.size());
    ProveDamageDetected(framed, ev, expect);
    ++metrics->corruptions_detected;
    if (ev.torn) ++metrics->torn_writes_detected;
    trace->DiskWrite(image.size(), site.tag);
    trace->DiskRead(image.size(), site.tag);
    metrics->corruption_recovery_bytes += 2 * image.size();
    ++metrics->corruptions_recovered;
  }
  Result<std::string> payload = ReadAllFramed(framed, expect);
  CHECK(payload.ok() && payload.value() == image)
      << "clean stored image failed verification";
  metrics->verify_bytes += image.size();
}

void ProveDamageDetected(std::string_view framed,
                         const sim::CorruptionEvent& ev,
                         int64_t expected_payload_bytes) {
  CHECK(ev.fires());
  std::string damaged(framed);
  if (ev.torn) {
    TornTruncate(&damaged, static_cast<uint64_t>(ev.bit) / 8);
  } else {
    FlipBit(&damaged, static_cast<uint64_t>(ev.bit));
  }
  CHECK(!VerifyFramed(damaged, expected_payload_bytes).ok())
      << "undetected injected corruption";
}

}  // namespace onepass
