#include "src/engine/mr_hash_engine.h"

#include <string>

#include "src/common/logging.h"
#include "src/engine/batch_consume.h"
#include "src/engine/inc_hash_engine.h"

namespace onepass {

namespace {
constexpr uint32_t kNilNode = UINT32_MAX;
}  // namespace

int MRHashEngine::ChooseNumBuckets(uint64_t expected_bytes,
                                   uint64_t memory_bytes,
                                   uint64_t page_bytes) {
  // Keep a safety margin for the in-memory group-by table built over D1.
  const double fill = 0.8;
  const double usable = fill * static_cast<double>(memory_bytes);
  if (static_cast<double>(expected_bytes) <= usable) return 0;
  // Smallest h with (expected - D1)/h <= usable, where D1 = usable minus
  // the h (clamped) write-buffer pages.
  int last_feasible = 1;
  for (int h = 1; h < 1 << 20; ++h) {
    const double page = static_cast<double>(
        IncHashEngine::ClampedPageBytes(page_bytes, memory_bytes, h));
    const double d1 = usable - static_cast<double>(h) * page;
    if (d1 <= 0) break;
    last_feasible = h;
    const double per_bucket =
        (static_cast<double>(expected_bytes) - d1) / static_cast<double>(h);
    if (per_bucket <= usable) return h;
  }
  return last_feasible;
}

MRHashEngine::MRHashEngine(const EngineContext& ctx)
    : GroupByEngine(ctx),
      h2_(ctx.hashes.At(1)) {
  const JobConfig& cfg = *ctx.config;
  const uint64_t expected = cfg.expected_bytes_per_reducer;
  num_disk_buckets_ =
      expected > 0 ? ChooseNumBuckets(expected, cfg.reduce_memory_bytes,
                                      cfg.bucket_page_bytes)
                   : kDefaultBuckets;
  const uint64_t page =
      num_disk_buckets_ > 0
          ? IncHashEngine::ClampedPageBytes(cfg.bucket_page_bytes,
                                            cfg.reduce_memory_bytes,
                                            num_disk_buckets_)
          : 0;
  d1_capacity_bytes_ =
      cfg.reduce_memory_bytes -
      std::min<uint64_t>(cfg.reduce_memory_bytes,
                         static_cast<uint64_t>(num_disk_buckets_) * page);
  if (num_disk_buckets_ > 0) {
    buckets_ = std::make_unique<BucketFileManager>(
        num_disk_buckets_, page, ctx_.trace, ctx_.metrics, ctx_.faults,
        ctx_.integrity_owner, &cfg.costs, cfg.block_codec);
  }
}

Status MRHashEngine::Consume(const KvBuffer& segment, bool /*sorted*/) {
  const CostModel& costs = ctx_.config->costs;
  uint64_t n = 0;
  // Batched walk (§5.8): h2 digests for a whole RecordBatch at a time; the
  // FastRangeBucket identity (hash.h) makes FastRangeBucket(h2(key), h+1)
  // == h2_.Bucket(key, h+1) exactly, so routing is unchanged.
  ConsumeBatched(
      segment, h2_, &digest_scratch_,
      NoProbePrefetch{},  // no table to warm: records route to buffers
      [&](std::string_view key, std::string_view value, uint64_t digest) {
    ++n;
    // Bucket 0 is D1 (in memory); 1..h map to disk buckets.
    const uint64_t bucket =
        num_disk_buckets_ == 0
            ? 0
            : FastRangeBucket(digest,
                              static_cast<uint64_t>(num_disk_buckets_) + 1);
    if (bucket == 0) {
      if (num_disk_buckets_ == 0) {
        // No disk buckets were provisioned; keep growing D1 (models an
        // under-estimated input; recursion handles oversized disk buckets
        // the same way).
        d1_.Append(key, value);
      } else if (!d1_demoted_ &&
                 d1_.bytes() + RecordBytes(key, value) <=
                     d1_capacity_bytes_) {
        d1_.Append(key, value);
      } else {
        // D1 under-provisioned: demote the whole bucket to disk so every
        // record of a bucket-0 key lives in one place (a key split between
        // memory and disk would be reduced twice).
        if (!d1_demoted_) {
          d1_demoted_ = true;
          KvBufferReader d1_reader(d1_);
          std::string_view dk, dv;
          while (d1_reader.Next(&dk, &dv)) buckets_->Add(0, dk, dv);
          d1_.Clear();
        }
        buckets_->Add(0, key, value);
      }
    } else {
      buckets_->Add(static_cast<int>(bucket - 1), key, value);
    }
  });
  ctx_.metrics->reduce_input_records += n;
  ctx_.trace->Cpu(costs.hash_record_s * static_cast<double>(n),
                  OpTag::kShuffle);
  return Status::OK();
}

Status MRHashEngine::SaveState(CheckpointWriter* w) const {
  w->PutU64("mr.demoted", d1_demoted_ ? 1 : 0);
  w->PutU64("mr.d1_n", d1_.count());
  w->PutBytes("mr.d1", d1_.data());
  w->PutU64("mr.disk_buckets", static_cast<uint64_t>(num_disk_buckets_));
  if (buckets_) buckets_->SaveTo(w);
  return Status::OK();
}

Status MRHashEngine::RestoreState(CheckpointReader* r) {
  uint64_t demoted = 0, d1_n = 0, disk_buckets = 0;
  std::string_view d1_bytes;
  RETURN_IF_ERROR(r->GetU64("mr.demoted", &demoted));
  RETURN_IF_ERROR(r->GetU64("mr.d1_n", &d1_n));
  RETURN_IF_ERROR(r->GetBytes("mr.d1", &d1_bytes));
  RETURN_IF_ERROR(r->GetU64("mr.disk_buckets", &disk_buckets));
  if (disk_buckets != static_cast<uint64_t>(num_disk_buckets_)) {
    return Status::Corruption(
        "checkpointed MR-hash bucket count does not match this config");
  }
  d1_demoted_ = demoted != 0;
  d1_ = KvBuffer::FromData(std::string(d1_bytes), d1_n);
  if (buckets_) RETURN_IF_ERROR(buckets_->RestoreFrom(r));
  return Status::OK();
}

void MRHashEngine::ProcessInMemory(const KvBuffer& data, uint64_t level) {
  // Group by key with the level's hash function, hashed once per tuple.
  // Values are not copied: each occurrence is a view into `data`, chained
  // per group through nodes_ in arrival order.
  const CostModel& costs = ctx_.config->costs;
  const UniversalHash h = ctx_.hashes.At(level);
  group_table_.Clear();
  group_table_.Reserve(static_cast<size_t>(data.count()));
  nodes_.clear();
  nodes_.reserve(static_cast<size_t>(data.count()));
  // Batched walk (§5.8): the level hash for a whole RecordBatch at a time,
  // group-table control words prefetched kProbePrefetchDistance ahead.
  ConsumeBatched(
      data, h, &digest_scratch_, group_table_,
      [&](std::string_view key, std::string_view value, uint64_t digest) {
    bool inserted = false;
    const uint32_t idx = group_table_.FindOrInsert(key, digest, &inserted);
    const uint32_t node = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back({value.data(), static_cast<uint32_t>(value.size()),
                      kNilNode});
    if (inserted) {
      group_table_.set_pod(idx, ChainRef{node, node});
    } else {
      ChainRef c = group_table_.pod_at<ChainRef>(idx);
      nodes_[c.tail].next = node;
      c.tail = node;
      group_table_.set_pod(idx, c);
    }
  });
  ctx_.trace->Cpu(costs.hash_record_s * static_cast<double>(data.count()),
                  OpTag::kReduceFn);
  uint64_t fn_bytes = 0;
  group_table_.ForEach([&](uint32_t idx) {
    const std::string_view k = group_table_.key_at(idx);
    chain_scratch_.clear();
    for (uint32_t node = group_table_.pod_at<ChainRef>(idx).head;
         node != kNilNode; node = nodes_[node].next) {
      chain_scratch_.emplace_back(nodes_[node].ptr, nodes_[node].len);
    }
    VectorValueIterator it(&chain_scratch_);
    ctx_.reducer->Reduce(k, &it, ctx_.out);
    fn_bytes += k.size();
    for (auto v : chain_scratch_) fn_bytes += v.size();
    ctx_.trace->Cpu(0.0, OpTag::kReduceFn, /*d_reduce_work=*/1);
  });
  ctx_.metrics->reduce_groups += group_table_.size();
  ctx_.trace->Cpu(costs.reduce_fn_byte_s * static_cast<double>(fn_bytes),
                  OpTag::kReduceFn);
  group_table_.Clear();
}

Status MRHashEngine::ProcessBucket(KvBuffer data, uint64_t level,
                                   int depth, uint64_t owner) {
  const JobConfig& cfg = *ctx_.config;
  if (data.bytes() <= static_cast<uint64_t>(0.8 * cfg.reduce_memory_bytes)) {
    ProcessInMemory(data, level);
    return Status::OK();
  }
  // Recursive partitioning cannot split a single key, and pathological
  // collisions could stall progress; in either case fall back to an
  // in-memory pass (the values-list API needs the key's values together
  // anyway — this models the reducer growing its working set, which is
  // what any real hybrid-hash implementation must do for oversized keys).
  bool single_key = true;
  {
    KvBufferReader probe(data);
    std::string_view first_key, k, v;
    if (probe.Next(&first_key, &v)) {
      while (probe.Next(&k, &v)) {
        if (k != first_key) {
          single_key = false;
          break;
        }
      }
    }
  }
  if (single_key || depth > kMaxRecursionDepth) {
    ProcessInMemory(data, level);
    return Status::OK();
  }
  // Recursive partitioning with the next independent hash function.
  const int sub = ChooseNumBuckets(data.bytes(), cfg.reduce_memory_bytes,
                                   cfg.bucket_page_bytes) +
                  1;
  BucketFileManager subs(sub, cfg.bucket_page_bytes, ctx_.trace,
                         ctx_.metrics, ctx_.faults, owner, &cfg.costs,
                         cfg.block_codec);
  const UniversalHash h = ctx_.hashes.At(level);
  KvBufferReader reader(data);
  std::string_view key, value;
  while (reader.Next(&key, &value)) {
    subs.Add(static_cast<int>(h.Bucket(key, sub)), key, value);
  }
  ctx_.trace->Cpu(
      cfg.costs.hash_record_s * static_cast<double>(data.count()),
      OpTag::kReduceFn);
  data.Clear();
  subs.FlushAll();
  for (int b = 0; b < sub; ++b) {
    ASSIGN_OR_RETURN(KvBuffer sb, subs.TakeBucket(b));
    if (sb.empty()) continue;
    RETURN_IF_ERROR(ProcessBucket(std::move(sb), level + 1, depth + 1,
                                  Mix64(owner ^ (level << 40) ^
                                        (static_cast<uint64_t>(b) + 1))));
  }
  return Status::OK();
}

Status MRHashEngine::Finish() {
  // Phase 1: the memory-resident bucket.
  ProcessInMemory(d1_, /*level=*/2);
  d1_.Clear();
  // Phase 2: disk buckets, one at a time, recursing as needed.
  if (buckets_ != nullptr) {
    buckets_->FlushAll();
    for (int b = 0; b < buckets_->num_buckets(); ++b) {
      ASSIGN_OR_RETURN(KvBuffer data, buckets_->TakeBucket(b));
      if (data.empty()) continue;
      RETURN_IF_ERROR(ProcessBucket(
          std::move(data), /*level=*/3, 0,
          Mix64(ctx_.integrity_owner ^ (3ULL << 40) ^
                (static_cast<uint64_t>(b) + 1))));
    }
  }
  group_table_.FlushStatsTo(ctx_.metrics);
  ctx_.out->Flush();
  return Status::OK();
}

}  // namespace onepass
