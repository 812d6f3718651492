#include "src/engine/hash_bucket_pass.h"

#include "src/common/logging.h"
#include "src/engine/batch_consume.h"
#include "src/engine/inc_hash_engine.h"
#include "src/storage/bucket_manager.h"

namespace onepass {

HashMemoryPlan PlanHashMemory(const JobConfig& cfg,
                              uint64_t state_bytes_hint) {
  HashMemoryPlan plan;
  plan.entry_cost = state_bytes_hint + 16 /*avg key*/ + kResidentEntryOverhead;
  // Pick h so each bucket's distinct keys fit in memory when read back
  // (the paper: "setting h as small as possible increases s").
  plan.num_buckets =
      cfg.expected_keys_per_reducer > 0
          ? IncHashEngine::ChooseNumBuckets(cfg.expected_keys_per_reducer,
                                            cfg.reduce_memory_bytes,
                                            plan.entry_cost,
                                            cfg.bucket_page_bytes)
          : kDefaultBuckets;
  plan.page_bytes = IncHashEngine::ClampedPageBytes(
      cfg.bucket_page_bytes, cfg.reduce_memory_bytes, plan.num_buckets);
  const uint64_t reserved =
      std::min<uint64_t>(cfg.reduce_memory_bytes,
                         static_cast<uint64_t>(plan.num_buckets) *
                             plan.page_bytes);
  plan.free_bytes = cfg.reduce_memory_bytes - reserved;
  return plan;
}

BucketPassProcessor::BucketPassProcessor(const EngineContext* ctx,
                                         uint64_t capacity_bytes)
    : ctx_(ctx), capacity_bytes_(capacity_bytes) {
  CHECK(ctx_->inc != nullptr);
}

Status BucketPassProcessor::Drain(BucketFileManager* buckets) {
  buckets->FlushAll();
  for (int b = 0; b < buckets->num_buckets(); ++b) {
    ASSIGN_OR_RETURN(KvBuffer data, buckets->TakeBucket(b));
    if (data.empty()) continue;
    RETURN_IF_ERROR(Process(std::move(data), /*level=*/2, 0,
                            Mix64(ctx_->integrity_owner ^ (2ULL << 40) ^
                                  (static_cast<uint64_t>(b) + 1))));
  }
  return Status::OK();
}

Status BucketPassProcessor::Process(KvBuffer data, uint64_t level, int depth,
                                    uint64_t owner) {
  // Beyond the recursion bound (pathological hash collisions), finish in
  // memory regardless of the budget rather than looping.
  if (ReduceInMemory(data, level, /*force=*/depth > kMaxRecursionDepth)) {
    return Status::OK();
  }
  // The bucket's keys exceed memory: repartition with the next hash level.
  return Repartition(std::move(data), level, depth, owner);
}

bool BucketPassProcessor::ReduceInMemory(const KvBuffer& data,
                                         uint64_t level, bool force) {
  const JobConfig& cfg = *ctx_->config;
  const CostModel& costs = cfg.costs;
  IncrementalReducer* inc = ctx_->inc;
  // One digest per tuple at this level, shared by every probe below.
  const UniversalHash h = ctx_->hashes.At(level);
  table_.Clear();
  uint64_t bytes_used = 0, combines = 0;
  bool overflow = false;
  // Batched walk (§5.8): one digest per tuple at this level, computed a
  // batch of kBatchRecords records at a time and shared by every probe
  // below. After an overflow the remaining records are skipped exactly as
  // the scalar walk's break skipped them (they are re-read by the
  // repartition pass).
  ConsumeBatched(
      data, h, &digest_scratch_, table_,
      [&](std::string_view key, std::string_view state, uint64_t digest) {
    if (overflow) return;
    const uint32_t found = table_.Find(key, digest);
    if (found != FlatTable::kNoEntry) {
      const std::string_view cur = table_.value_at(found);
      scratch_.assign(cur.data(), cur.size());
      inc->Combine(key, &scratch_, state);
      table_.set_value(found, scratch_);
      ++combines;
      return;
    }
    const uint64_t entry =
        key.size() + inc->StateBytesHint() + kResidentEntryOverhead;
    if (!force && bytes_used + entry > capacity_bytes_ && !table_.empty()) {
      overflow = true;
      return;
    }
    bool inserted = false;
    const uint32_t idx = table_.FindOrInsert(key, digest, &inserted);
    table_.set_value(idx, state);
    bytes_used += entry;
    ++combines;
  });
  // CPU for the attempt is spent either way.
  ctx_->trace->Cpu(costs.hash_record_s * static_cast<double>(data.count()) +
                       costs.combine_record_s *
                           static_cast<double>(combines),
                   OpTag::kReduceFn);
  if (overflow) {
    table_.Clear();
    return false;
  }
  ctx_->metrics->combine_invocations += combines;
  uint64_t fn_bytes = 0;
  table_.ForEach([&](uint32_t idx) {
    const std::string_view k = table_.key_at(idx);
    const std::string_view state = table_.value_at(idx);
    inc->Finalize(k, state, ctx_->out);
    fn_bytes += k.size() + state.size();
    ctx_->trace->Cpu(0.0, OpTag::kReduceFn, /*d_reduce_work=*/1);
  });
  ctx_->metrics->reduce_groups += table_.size();
  ctx_->trace->Cpu(costs.reduce_fn_byte_s * static_cast<double>(fn_bytes),
                   OpTag::kReduceFn);
  table_.Clear();
  return true;
}

Status BucketPassProcessor::Repartition(KvBuffer data, uint64_t level,
                                        int depth, uint64_t owner) {
  const JobConfig& cfg = *ctx_->config;
  const int sub = 4;
  BucketFileManager subs(sub, cfg.bucket_page_bytes, ctx_->trace,
                         ctx_->metrics, ctx_->faults, owner, &cfg.costs,
                         cfg.block_codec);
  const UniversalHash h = ctx_->hashes.At(level + 1);
  // Batched route: FastRangeBucket(digest, sub) == h.Bucket(key, sub) by
  // the hash.h identity, so sub-bucket assignment is unchanged.
  ConsumeBatched(
      data, h, &digest_scratch_, NoProbePrefetch{},
      [&](std::string_view key, std::string_view state, uint64_t digest) {
        subs.Add(static_cast<int>(FastRangeBucket(
                     digest, static_cast<uint64_t>(sub))),
                 key, state);
      });
  ctx_->trace->Cpu(
      cfg.costs.hash_record_s * static_cast<double>(data.count()),
      OpTag::kReduceFn);
  data.Clear();
  subs.FlushAll();
  for (int b = 0; b < sub; ++b) {
    ASSIGN_OR_RETURN(KvBuffer sb, subs.TakeBucket(b));
    if (sb.empty()) continue;
    RETURN_IF_ERROR(Process(std::move(sb), level + 1, depth + 1,
                            Mix64(owner ^ (level << 40) ^
                                  (static_cast<uint64_t>(b) + 1))));
  }
  return Status::OK();
}

}  // namespace onepass
