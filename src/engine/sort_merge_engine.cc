#include "src/engine/sort_merge_engine.h"

#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/engine/sorted_merge.h"

namespace onepass {

SortMergeEngine::SortMergeEngine(const EngineContext& ctx)
    : GroupByEngine(ctx),
      codec_(ctx.config->block_codec, BlockEncoding::kPrefix,
             &ctx.config->costs, RunCodec::Family::kReduceSpill),
      scheduler_(ctx.config->merge_factor),
      use_combiner_(ctx.inc != nullptr && ctx.values_are_states) {}

Status SortMergeEngine::Consume(const KvBuffer& segment, bool sorted) {
  if (!sorted) {
    return Status::InvalidArgument(
        "sort-merge engine requires key-sorted map output");
  }
  if (segment.empty()) return Status::OK();
  buffered_bytes_ += segment.bytes();
  buffered_.push_back(segment);
  if (buffered_bytes_ > ctx_.config->reduce_memory_bytes) {
    return SpillBuffered();
  }
  return Status::OK();
}

StoredRun SortMergeEngine::MergeToRun(std::vector<const KvBuffer*> inputs,
                                      OpTag tag) {
  const CostModel& costs = ctx_.config->costs;
  SortedKvMerger merger(std::move(inputs));
  KvBuffer merged;
  const uint64_t combines =
      merger.MergeInto(&merged, use_combiner_ ? ctx_.inc : nullptr);
  ctx_.metrics->combine_invocations += combines;
  ctx_.trace->Cpu(costs.MergeCost(merger.records_merged()) +
                      costs.combine_record_s * static_cast<double>(combines),
                  OpTag::kReduceMerge);
  if (combines > 0) {
    // Combine work is user-visible progress even though it happens inside
    // a spill (Definition 1 counts "% of combine function ... completed").
    ctx_.trace->Cpu(0.0, OpTag::kCombine, /*d_reduce_work=*/combines);
  }
  StoredRun run(codec_);
  CodecStats stats;
  const uint64_t disk_bytes = run.Append(merged, &stats);
  codec_.ChargeEncode(stats, tag, ctx_.trace, ctx_.metrics);
  ctx_.trace->DiskWrite(disk_bytes, tag);
  ctx_.metrics->reduce_spill_write_bytes += disk_bytes;
  return run;
}

Status SortMergeEngine::ReadRuns(const std::vector<int>& ids, OpTag tag,
                                 bool keep, std::vector<KvBuffer>* loaded,
                                 std::vector<const KvBuffer*>* inputs) {
  loaded->reserve(ids.size());
  for (int id : ids) {
    StoredRun& run = runs_[id];
    if (run.disk_bytes() == 0) continue;
    ctx_.trace->DiskRead(run.disk_bytes(), tag);
    ctx_.metrics->reduce_spill_read_bytes += run.disk_bytes();
    CodecStats stats;
    Result<KvBuffer> records = keep ? run.Load(&stats) : run.Take(&stats);
    if (!records.ok()) return records.status();
    codec_.ChargeDecode(stats, tag, ctx_.trace, ctx_.metrics);
    loaded->push_back(std::move(records).value());
    inputs->push_back(&loaded->back());
  }
  return Status::OK();
}

Status SortMergeEngine::SpillBuffered() {
  if (buffered_.empty()) return Status::OK();
  std::vector<const KvBuffer*> inputs;
  for (const auto& b : buffered_) inputs.push_back(&b);
  // Hadoop applies the combine function to each key group while writing
  // the spill; this is the reduce-side combine of Fig. 7(b)'s
  // step-function progress.
  StoredRun run = MergeToRun(std::move(inputs), OpTag::kReduceSpill);
  buffered_.clear();
  buffered_bytes_ = 0;
  const uint64_t policy_bytes = run.raw_bytes();
  // runs_ indices stay aligned with MergeScheduler file ids: one run is
  // pushed before each AddRun, and the merged output (if any) is pushed
  // right after with id == runs_.size().
  runs_.push_back(std::move(run));

  // Background multi-pass merge per the 2F-1 policy. The scheduler is fed
  // raw payload bytes, not bytes-on-disk, so the merge tree — and with it
  // the combine order and the final output — is identical whether or not
  // a codec is active. Reading an input consumes it.
  MergeScheduler::MergeEvent ev =
      scheduler_.AddRun(static_cast<double>(policy_bytes));
  if (!ev.merged) return Status::OK();
  std::vector<KvBuffer> loaded;
  std::vector<const KvBuffer*> merge_inputs;
  RETURN_IF_ERROR(ReadRuns(ev.inputs, OpTag::kReduceMerge, /*keep=*/false,
                           &loaded, &merge_inputs));
  StoredRun merged = MergeToRun(std::move(merge_inputs), OpTag::kReduceMerge);
  CHECK_EQ(ev.output_id, static_cast<int>(runs_.size()));
  runs_.push_back(std::move(merged));
  return Status::OK();
}

Status SortMergeEngine::SaveState(CheckpointWriter* w) const {
  w->PutU64("sm.buffered_bytes", buffered_bytes_);
  w->PutU64("sm.buffered", buffered_.size());
  FieldName seg_n("sm.seg_n."), seg("sm.seg.");
  for (size_t i = 0; i < buffered_.size(); ++i) {
    w->PutU64(seg_n(i), buffered_[i].count());
    w->PutBytes(seg(i), buffered_[i].data());
  }
  w->PutU64("sm.runs", runs_.size());
  for (size_t i = 0; i < runs_.size(); ++i) {
    runs_[i].SaveTo(w, "sm.run", std::to_string(i));
  }
  const std::vector<double>& sizes = scheduler_.file_sizes();
  const std::vector<int>& live = scheduler_.live_ids();
  w->PutU64("sm.sched_files", sizes.size());
  FieldName size_name("sm.sched_size.");
  for (size_t i = 0; i < sizes.size(); ++i) {
    w->PutF64(size_name(i), sizes[i]);
  }
  w->PutU64("sm.sched_live", live.size());
  FieldName live_name("sm.sched_live.");
  for (size_t i = 0; i < live.size(); ++i) {
    w->PutU64(live_name(i), static_cast<uint64_t>(live[i]));
  }
  return Status::OK();
}

Status SortMergeEngine::RestoreState(CheckpointReader* r) {
  RETURN_IF_ERROR(r->GetU64("sm.buffered_bytes", &buffered_bytes_));
  uint64_t buffered = 0;
  RETURN_IF_ERROR(r->GetU64("sm.buffered", &buffered));
  buffered_.clear();
  for (uint64_t i = 0; i < buffered; ++i) {
    const std::string tag = std::to_string(i);
    uint64_t n = 0;
    std::string_view bytes;
    RETURN_IF_ERROR(r->GetU64("sm.seg_n." + tag, &n));
    RETURN_IF_ERROR(r->GetBytes("sm.seg." + tag, &bytes));
    buffered_.push_back(KvBuffer::FromData(std::string(bytes), n));
  }
  uint64_t num_runs = 0;
  RETURN_IF_ERROR(r->GetU64("sm.runs", &num_runs));
  runs_.clear();
  for (uint64_t i = 0; i < num_runs; ++i) {
    StoredRun run(codec_);
    RETURN_IF_ERROR(run.RestoreFrom(r, "sm.run", std::to_string(i)));
    runs_.push_back(std::move(run));
  }
  uint64_t sched_files = 0;
  RETURN_IF_ERROR(r->GetU64("sm.sched_files", &sched_files));
  std::vector<double> sizes(sched_files, 0.0);
  for (uint64_t i = 0; i < sched_files; ++i) {
    RETURN_IF_ERROR(
        r->GetF64("sm.sched_size." + std::to_string(i), &sizes[i]));
  }
  uint64_t sched_live = 0;
  RETURN_IF_ERROR(r->GetU64("sm.sched_live", &sched_live));
  std::vector<int> live(sched_live, 0);
  for (uint64_t i = 0; i < sched_live; ++i) {
    uint64_t id = 0;
    RETURN_IF_ERROR(r->GetU64("sm.sched_live." + std::to_string(i), &id));
    live[i] = static_cast<int>(id);
  }
  if (sched_files != num_runs) {
    return Status::Corruption(
        "sort-merge checkpoint scheduler/run manifest out of sync");
  }
  scheduler_.RestoreState(std::move(sizes), std::move(live));
  return Status::OK();
}

Status SortMergeEngine::Snapshot() {
  // Re-read and re-merge everything received so far, apply the reduce
  // function, and write the snapshot answer. Nothing is kept: the next
  // snapshot (and the final answer) re-reads, and so re-decodes, the runs
  // and repeats the work — the §3.3(4) overhead.
  std::vector<KvBuffer> loaded;
  std::vector<const KvBuffer*> inputs;
  RETURN_IF_ERROR(ReadRuns(scheduler_.FinalInputs(), OpTag::kReduceMerge,
                           /*keep=*/true, &loaded, &inputs));
  for (const auto& b : buffered_) inputs.push_back(&b);
  SortedKvMerger merger(std::move(inputs));
  const CostModel& costs = ctx_.config->costs;

  uint64_t out_bytes = 0;
  std::string_view key;
  std::vector<std::string_view> values;
  uint64_t combines = 0;
  while (merger.NextGroup(&key, &values)) {
    if (use_combiner_) {
      const std::string state =
          CombineValues(ctx_.inc, key, values, &combines);
      out_bytes += key.size() + state.size();
    } else {
      out_bytes += key.size();
      for (auto v : values) out_bytes += v.size();
    }
  }
  ctx_.trace->Cpu(costs.MergeCost(merger.records_merged()) +
                      costs.combine_record_s *
                          static_cast<double>(combines) +
                      costs.reduce_fn_byte_s *
                          static_cast<double>(out_bytes),
                  OpTag::kReduceMerge);
  ctx_.trace->DiskWrite(out_bytes, OpTag::kOutput);
  ctx_.metrics->snapshot_bytes += out_bytes;
  ++ctx_.metrics->snapshot_count;
  return Status::OK();
}

Status SortMergeEngine::Finish() {
  // Final merge: remaining on-disk runs (at most 2F-1 by the policy
  // invariant) plus whatever is still in the shuffle buffer stream into
  // the reduce function in key order. Reading the runs back is part of
  // "reduce (including the final merge)" in the paper's Fig. 2(a)
  // taxonomy.
  std::vector<KvBuffer> loaded;
  std::vector<const KvBuffer*> inputs;
  RETURN_IF_ERROR(ReadRuns(scheduler_.FinalInputs(), OpTag::kReduceFn,
                           /*keep=*/false, &loaded, &inputs));
  for (const auto& b : buffered_) inputs.push_back(&b);

  SortedKvMerger merger(std::move(inputs));
  std::string_view key;
  std::vector<std::string_view> values;
  const CostModel& costs = ctx_.config->costs;
  uint64_t groups = 0;
  while (merger.NextGroup(&key, &values)) {
    ++groups;
    uint64_t group_bytes = key.size();
    for (auto v : values) group_bytes += v.size();
    if (use_combiner_) {
      uint64_t combines = 0;
      const std::string state =
          CombineValues(ctx_.inc, key, values, &combines);
      ctx_.metrics->combine_invocations += combines;
      ctx_.inc->Finalize(key, state, ctx_.out);
      ctx_.trace->Cpu(costs.MergeCost(values.size()) +
                          costs.combine_record_s *
                              static_cast<double>(combines) +
                          costs.reduce_fn_byte_s *
                              static_cast<double>(group_bytes),
                      OpTag::kReduceFn, /*d_reduce_work=*/combines + 1);
    } else {
      VectorValueIterator it(&values);
      ctx_.reducer->Reduce(key, &it, ctx_.out);
      ctx_.trace->Cpu(costs.MergeCost(values.size()) +
                          costs.reduce_fn_byte_s *
                              static_cast<double>(group_bytes),
                      OpTag::kReduceFn, /*d_reduce_work=*/1);
    }
  }
  ctx_.metrics->reduce_groups += groups;
  ctx_.out->Flush();
  buffered_.clear();
  runs_.clear();
  return Status::OK();
}

}  // namespace onepass
