#include "src/engine/inc_hash_engine.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/engine/batch_consume.h"

namespace onepass {

uint64_t IncHashEngine::ClampedPageBytes(uint64_t page_bytes,
                                         uint64_t memory_bytes, int h) {
  // Write buffers never take more than half the memory; keep pages at
  // least 512 bytes so flushes stay page-sized.
  const uint64_t cap = memory_bytes / (2 * std::max(1, h));
  return std::max<uint64_t>(512, std::min(page_bytes, cap));
}

int IncHashEngine::ChooseNumBuckets(uint64_t expected_keys,
                                    uint64_t memory_bytes,
                                    uint64_t entry_cost,
                                    uint64_t page_bytes) {
  // Capacity in resident entries with h pages reserved for write buffers:
  // pick the smallest h with expected_keys/h <= capacity(h), so each bucket
  // file's distinct keys fit in memory when read back (§4.3's h = K/(B*n_p)
  // sizing). Pages are clamped so buffers never crowd out the state table.
  int last_feasible = 1;
  for (int h = 1; h < 1 << 20; ++h) {
    const uint64_t page = ClampedPageBytes(page_bytes, memory_bytes, h);
    const uint64_t reserved = static_cast<uint64_t>(h) * page;
    if (reserved >= memory_bytes) break;  // no room left for states
    const uint64_t capacity = (memory_bytes - reserved) / entry_cost;
    if (capacity == 0) break;
    last_feasible = h;
    if (expected_keys / static_cast<uint64_t>(h) <= capacity) return h;
  }
  // Memory is too small to make every bucket fit; use the most buckets the
  // memory allows (recursion handles oversized buckets).
  return last_feasible;
}

IncHashEngine::IncHashEngine(const EngineContext& ctx)
    : GroupByEngine(ctx),
      h3_(ctx.hashes.At(2)) {
  CHECK(ctx.inc != nullptr) << "INC-hash requires an IncrementalReducer";
  const JobConfig& cfg = *ctx.config;
  const HashMemoryPlan plan = PlanHashMemory(cfg, ctx.inc->StateBytesHint());
  num_buckets_ = plan.num_buckets;
  capacity_bytes_ = plan.free_bytes;
  buckets_ = std::make_unique<BucketFileManager>(
      num_buckets_, plan.page_bytes, ctx_.trace, ctx_.metrics, ctx_.faults,
      ctx_.integrity_owner, &cfg.costs, cfg.block_codec);
  bucket_pass_ = std::make_unique<BucketPassProcessor>(&ctx_,
                                                       capacity_bytes_);
}

Status IncHashEngine::Consume(const KvBuffer& segment, bool /*sorted*/) {
  const CostModel& costs = ctx_.config->costs;
  IncrementalReducer* inc = ctx_.inc;
  const uint64_t hint = inc->StateBytesHint();
  ctx_.out->set_streaming(true);
  uint64_t n = 0, combines = 0;
  // Tuples arrive as key-state pairs (init ran map-side). Batched walk: one
  // h3 digest per tuple, computed a batch of kBatchRecords records at a
  // time, probing the state table with the control word for tuple i+D
  // already prefetched; on overflow the digest routes the spill to the
  // same bucket h3_.Bucket would pick.
  ConsumeBatched(
      segment, h3_, &digest_scratch_, table_,
      [&](std::string_view key, std::string_view state, uint64_t digest) {
    ++n;
    const uint32_t found = table_.Find(key, digest);
    if (found != FlatTable::kNoEntry) {
      const std::string_view cur = table_.value_at(found);
      scratch_state_.assign(cur.data(), cur.size());
      const uint64_t before = scratch_state_.size();
      inc->Combine(key, &scratch_state_, state);
      inc->OnUpdate(key, &scratch_state_, ctx_.out);
      table_.set_value(found, scratch_state_);
      // States are budgeted at their hint size; growth beyond the hint is
      // still tracked so memory accounting cannot be gamed.
      if (scratch_state_.size() > hint && scratch_state_.size() > before) {
        resident_bytes_ +=
            scratch_state_.size() - std::max<uint64_t>(before, hint);
      }
      ++combines;
      ctx_.trace->Cpu(costs.combine_record_s, OpTag::kCombine,
                      /*d_reduce_work=*/1);
    } else {
      const uint64_t entry = key.size() + hint + kResidentEntryOverhead;
      if (resident_bytes_ + entry <= capacity_bytes_) {
        scratch_state_.assign(state.data(), state.size());
        inc->OnUpdate(key, &scratch_state_, ctx_.out);
        bool inserted = false;
        const uint32_t idx = table_.FindOrInsert(key, digest, &inserted);
        table_.set_value(idx, scratch_state_);
        resident_bytes_ += entry;
        ctx_.trace->Cpu(costs.combine_record_s, OpTag::kCombine,
                        /*d_reduce_work=*/1);
        ++combines;
      } else {
        // Overflow tuple: stage to the appropriate disk bucket.
        const int b = static_cast<int>(
            FastRangeBucket(digest, static_cast<uint64_t>(num_buckets_)));
        buckets_->Add(b, key, state);
      }
    }
  });
  ctx_.metrics->reduce_input_records += n;
  ctx_.metrics->combine_invocations += combines;
  ctx_.trace->Cpu(costs.hash_record_s * static_cast<double>(n),
                  OpTag::kShuffle);
  ctx_.out->set_streaming(false);
  return Status::OK();
}

Status IncHashEngine::SaveState(CheckpointWriter* w) const {
  w->PutU64("inc.resident_bytes", resident_bytes_);
  w->PutU64("inc.entries", table_.size());
  FieldName key_name("inc.k."), value_name("inc.v.");
  for (uint32_t i = 0; i < table_.size(); ++i) {
    w->PutBytes(key_name(i), table_.key_at(i));
    w->PutBytes(value_name(i), table_.value_at(i));
  }
  buckets_->SaveTo(w);
  return Status::OK();
}

Status IncHashEngine::RestoreState(CheckpointReader* r) {
  RETURN_IF_ERROR(r->GetU64("inc.resident_bytes", &resident_bytes_));
  uint64_t entries = 0;
  RETURN_IF_ERROR(r->GetU64("inc.entries", &entries));
  table_.Clear();
  table_.Reserve(entries);
  for (uint64_t i = 0; i < entries; ++i) {
    const std::string tag = std::to_string(i);
    std::string_view key, value;
    RETURN_IF_ERROR(r->GetBytes("inc.k." + tag, &key));
    RETURN_IF_ERROR(r->GetBytes("inc.v." + tag, &value));
    // Re-insertion in saved (== insertion) order with the recomputed h3
    // digest reproduces iteration order, which is what keeps Finish's
    // finalize sequence — and so the output bytes — identical.
    bool inserted = false;
    const uint32_t idx = table_.FindOrInsert(key, h3_(key), &inserted);
    if (!inserted) {
      return Status::Corruption("duplicate key in INC-hash checkpoint");
    }
    table_.set_value(idx, value);
  }
  return buckets_->RestoreFrom(r);
}

Status IncHashEngine::Finish() {
  const CostModel& costs = ctx_.config->costs;
  IncrementalReducer* inc = ctx_.inc;
  // Resident keys never spilled a tuple, so finalizing them from memory is
  // exact — and immediate, which is what lets INC-hash emit results the
  // moment the maps finish.
  uint64_t fn_bytes = 0;
  table_.ForEach([&](uint32_t idx) {
    const std::string_view key = table_.key_at(idx);
    const std::string_view state = table_.value_at(idx);
    inc->Finalize(key, state, ctx_.out);
    fn_bytes += key.size() + state.size();
    ctx_.trace->Cpu(0.0, OpTag::kReduceFn, /*d_reduce_work=*/1);
  });
  ctx_.metrics->reduce_groups += table_.size();
  table_.FlushStatsTo(ctx_.metrics);
  table_.Clear();
  ctx_.trace->Cpu(costs.reduce_fn_byte_s * static_cast<double>(fn_bytes),
                  OpTag::kReduceFn);
  resident_bytes_ = 0;

  RETURN_IF_ERROR(bucket_pass_->Drain(buckets_.get()));
  bucket_pass_->FlushStatsTo(ctx_.metrics);
  ctx_.out->Flush();
  return Status::OK();
}

}  // namespace onepass
