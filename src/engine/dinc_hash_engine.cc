#include "src/engine/dinc_hash_engine.h"

#include "src/common/logging.h"
#include "src/engine/batch_consume.h"

namespace onepass {

namespace {
// How many of the coldest monitored slots the proactive eviction hook
// examines per miss (amortized O(1) per tuple).
constexpr int kExpirySweep = 4;
}  // namespace

DincHashEngine::DincHashEngine(const EngineContext& ctx)
    : GroupByEngine(ctx),
      h3_(ctx.hashes.At(2)) {
  CHECK(ctx.inc != nullptr) << "DINC-hash requires an IncrementalReducer";
  const JobConfig& cfg = *ctx.config;
  const HashMemoryPlan plan = PlanHashMemory(cfg, ctx.inc->StateBytesHint());
  num_buckets_ = plan.num_buckets;
  capacity_entries_ = plan.slots();
  sketch_ = std::make_unique<FrequentSketch>(capacity_entries_);
  states_.resize(capacity_entries_);
  buckets_ = std::make_unique<BucketFileManager>(
      num_buckets_, plan.page_bytes, ctx_.trace, ctx_.metrics, ctx_.faults,
      ctx_.integrity_owner, &cfg.costs, cfg.block_codec);
  bucket_pass_ = std::make_unique<BucketPassProcessor>(
      &ctx_, capacity_entries_ * plan.entry_cost);
}

void DincHashEngine::SpillState(std::string_view key, uint64_t digest,
                                std::string* state) {
  if (ctx_.inc->TryDiscard(key, state, ctx_.out)) return;
  buckets_->Add(static_cast<int>(FastRangeBucket(
                    digest, static_cast<uint64_t>(num_buckets_))),
                key, *state);
}

Status DincHashEngine::Consume(const KvBuffer& segment, bool /*sorted*/) {
  const CostModel& costs = ctx_.config->costs;
  IncrementalReducer* inc = ctx_.inc;
  ctx_.out->set_streaming(true);
  uint64_t n = 0, combines = 0;
  // Tuples arrive as key-state pairs (init ran map-side). Batched walk
  // (§5.8): one h3 digest per tuple, computed a RecordBatch at a time and
  // shared between the monitor-index probe and the spill-bucket route,
  // with the sketch index's control word prefetched kProbePrefetchDistance
  // tuples ahead.
  ConsumeBatched(
      segment, h3_, &digest_scratch_, *sketch_,
      [&](std::string_view key, std::string_view state, uint64_t digest) {
    ++n;
    const int found = sketch_->Find(key, digest);
    if (found >= 0) {
      // Monitored: combine in memory.
      sketch_->Hit(found);
      inc->Combine(key, &states_[found], state);
      inc->OnUpdate(key, &states_[found], ctx_.out);
      ++combines;
      ctx_.trace->Cpu(costs.combine_record_s, OpTag::kCombine,
                      /*d_reduce_work=*/1);
      return;
    }
    if (!sketch_->HasFreeSlot()) {
      // Proactive eviction hook (§6.2): scan a few of the coldest slots
      // and let the workload discard finished states (e.g. all-expired
      // sessions are emitted, not spilled), freeing a slot for the new
      // key before the FREQUENT policy has to spill anything.
      int cold[kExpirySweep];
      const int num_cold = sketch_->ColdestSlots(kExpirySweep, cold);
      for (int i = 0; i < num_cold; ++i) {
        const int c = cold[i];
        if (sketch_->Count(c) <= 1 &&
            inc->TryDiscard(sketch_->Key(c), &states_[c], ctx_.out)) {
          states_[c].clear();
          sketch_->Release(c);
          break;
        }
      }
    }
    if (sketch_->HasFreeSlot()) {
      const int slot = sketch_->InsertIntoFree(key, digest);
      states_[slot].assign(state.data(), state.size());
      inc->OnUpdate(key, &states_[slot], ctx_.out);
      ++combines;
      ctx_.trace->Cpu(costs.combine_record_s, OpTag::kCombine,
                      /*d_reduce_work=*/1);
      return;
    }
    if (sketch_->MinCount() == 0) {
      // Classic FREQUENT eviction: the zero-count slot's state is
      // discarded or spilled in place, straight from the slot's key and
      // state (routed by the digest retained in the slot — no rehash or
      // copy of the evicted key), then the slot takes the new key.
      // ReplaceSlot emits nothing, so spilling first keeps the output
      // order.
      const int slot = sketch_->MinSlot();
      SpillState(sketch_->Key(slot), sketch_->SlotHash(slot), &states_[slot]);
      sketch_->ReplaceSlot(slot, key, digest);
      states_[slot].assign(state.data(), state.size());
      inc->OnUpdate(key, &states_[slot], ctx_.out);
      ++combines;
      ctx_.trace->Cpu(costs.combine_record_s, OpTag::kCombine,
                      /*d_reduce_work=*/1);
      return;
    }
    // All counters > 0: decrement everyone, spill the tuple.
    sketch_->DecrementAll();
    buckets_->Add(static_cast<int>(FastRangeBucket(
                      digest, static_cast<uint64_t>(num_buckets_))),
                  key, state);
  });
  ctx_.metrics->reduce_input_records += n;
  ctx_.metrics->combine_invocations += combines;
  ctx_.trace->Cpu(costs.hash_record_s * static_cast<double>(n),
                  OpTag::kShuffle);
  ctx_.out->set_streaming(false);
  return Status::OK();
}

Status DincHashEngine::SaveState(CheckpointWriter* w) const {
  w->PutU64("dinc.covered", covered_keys_);
  sketch_->SaveTo(w);
  FieldName state_name("dinc.s.");
  for (size_t slot = 0; slot < capacity_entries_; ++slot) {
    if (!sketch_->SlotOccupied(static_cast<int>(slot))) continue;
    w->PutBytes(state_name(slot), states_[slot]);
  }
  buckets_->SaveTo(w);
  return Status::OK();
}

Status DincHashEngine::RestoreState(CheckpointReader* r) {
  RETURN_IF_ERROR(r->GetU64("dinc.covered", &covered_keys_));
  RETURN_IF_ERROR(sketch_->RestoreFrom(r));
  for (size_t slot = 0; slot < capacity_entries_; ++slot) {
    if (!sketch_->SlotOccupied(static_cast<int>(slot))) {
      states_[slot].clear();
      continue;
    }
    std::string_view state;
    RETURN_IF_ERROR(r->GetBytes("dinc.s." + std::to_string(slot), &state));
    states_[slot].assign(state);
  }
  return buckets_->RestoreFrom(r);
}

Status DincHashEngine::Finish() {
  const CostModel& costs = ctx_.config->costs;
  const JobConfig& cfg = *ctx_.config;
  IncrementalReducer* inc = ctx_.inc;

  if (cfg.dinc_coverage_threshold > 0) {
    // Approximate early termination: return the partial computation for
    // keys whose coverage lower bound reaches phi; skip the disk-resident
    // buckets entirely.
    uint64_t fn_bytes = 0;
    for (size_t slot = 0; slot < capacity_entries_; ++slot) {
      const int s = static_cast<int>(slot);
      if (!sketch_->SlotOccupied(s)) continue;
      if (sketch_->CoverageLowerBound(s) >= cfg.dinc_coverage_threshold) {
        const std::string_view key = sketch_->Key(s);
        inc->Finalize(key, states_[slot], ctx_.out);
        fn_bytes += key.size() + states_[slot].size();
        ++covered_keys_;
        ctx_.trace->Cpu(0.0, OpTag::kReduceFn, /*d_reduce_work=*/1);
      }
    }
    ctx_.metrics->reduce_groups += covered_keys_;
    ctx_.trace->Cpu(costs.reduce_fn_byte_s * static_cast<double>(fn_bytes),
                    OpTag::kReduceFn);
    sketch_->FlushIndexStatsTo(ctx_.metrics);
    ctx_.out->Flush();
    return Status::OK();
  }

  if (inc->FlushResidentStatesAtEnd()) {
    // Exact mode for algebraic aggregates: a monitored key may also have
    // tuples in the buckets (from periods it was unmonitored), so its
    // resident state must merge with them there.
    for (size_t slot = 0; slot < capacity_entries_; ++slot) {
      const int s = static_cast<int>(slot);
      if (!sketch_->SlotOccupied(s)) continue;
      SpillState(sketch_->Key(s), sketch_->SlotHash(s), &states_[slot]);
      states_[slot].clear();
    }
  } else {
    // The workload's Finalize is locally correct (e.g. sessionization):
    // finalize resident states straight from memory.
    uint64_t fn_bytes = 0, groups = 0;
    for (size_t slot = 0; slot < capacity_entries_; ++slot) {
      const int s = static_cast<int>(slot);
      if (!sketch_->SlotOccupied(s)) continue;
      const std::string_view key = sketch_->Key(s);
      inc->Finalize(key, states_[slot], ctx_.out);
      fn_bytes += key.size() + states_[slot].size();
      ++groups;
      ctx_.trace->Cpu(0.0, OpTag::kReduceFn, /*d_reduce_work=*/1);
    }
    ctx_.metrics->reduce_groups += groups;
    ctx_.trace->Cpu(costs.reduce_fn_byte_s * static_cast<double>(fn_bytes),
                    OpTag::kReduceFn);
  }

  RETURN_IF_ERROR(bucket_pass_->Drain(buckets_.get()));
  sketch_->FlushIndexStatsTo(ctx_.metrics);
  bucket_pass_->FlushStatsTo(ctx_.metrics);
  ctx_.out->Flush();
  return Status::OK();
}

}  // namespace onepass
