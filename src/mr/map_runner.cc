#include "src/mr/map_runner.h"

#include <algorithm>
#include <string>

#include "src/common/logging.h"
#include "src/engine/sorted_merge.h"
#include "src/model/merge_tree.h"
#include "src/storage/block_format.h"
#include "src/storage/stored_run.h"
#include "src/util/arena.h"
#include "src/util/crc32c.h"
#include "src/util/flat_table.h"

namespace onepass {

namespace {

// Routes emitted pairs straight into per-partition buffers (hash paths),
// optionally applying initialize() per record.
class PartitionEmitter : public Emitter {
 public:
  PartitionEmitter(const UniversalHash* partitioner,
                   std::vector<KvBuffer>* partitions,
                   IncrementalReducer* init_per_record)
      : partitioner_(partitioner),
        partitions_(partitions),
        init_(init_per_record) {}

  void Emit(std::string_view key, std::string_view value) override {
    Route(key, value,
          FastRangeBucket((*partitioner_)(key), partitions_->size()));
  }

  // Batch emit: partitioner digests for the whole run at once (§5.8).
  // FastRangeBucket(digest, n) == partitioner.Bucket(key, n) exactly, and
  // records route in batch order, so output is identical to per-emit.
  void EmitBatch(const RecordBatch& batch) override {
    if (digests_.size() < batch.size) digests_.resize(batch.size);
    partitioner_->HashBatch(batch.keys, batch.size, digests_.data());
    for (size_t i = 0; i < batch.size; ++i) {
      Route(batch.keys[i], batch.values[i],
            FastRangeBucket(digests_[i], partitions_->size()));
    }
  }

  uint64_t bytes() const { return bytes_; }
  uint64_t records() const { return records_; }

 private:
  void Route(std::string_view key, std::string_view value, uint64_t part) {
    if (init_ != nullptr) {
      const std::string state = init_->Init(key, value);
      (*partitions_)[part].Append(key, state);
      bytes_ += RecordBytes(key, state);
    } else {
      (*partitions_)[part].Append(key, value);
      bytes_ += RecordBytes(key, value);
    }
    ++records_;
  }

  const UniversalHash* partitioner_;
  std::vector<KvBuffer>* partitions_;
  IncrementalReducer* init_;
  std::vector<uint64_t> digests_;
  uint64_t bytes_ = 0;
  uint64_t records_ = 0;
};

// The map side's init/cb fold (§4.2), which MapBuffer applies in both
// combining modes. Emits fold into a FlatTable of key -> state, keyed by
// the partitioner's digest, in the order they arrive: a key's first emit
// stores init(key, value), each later one folds init(key, value) into that
// state with cb().
class EmitFold {
 public:
  explicit EmitFold(IncrementalReducer* inc) : inc_(inc) {}

  // Folds one emit into `table`. Returns the key's entry; *inserted tells
  // whether this was the key's first emit. A new key probes twice (Find,
  // then FindOrInsert): the hash path serializes its table's probe count,
  // and the metric goldens pin it.
  uint32_t Fold(FlatTable* table, std::string_view key,
                std::string_view value, uint64_t digest, bool* inserted) {
    const uint32_t found = table->Find(key, digest);
    const std::string state = inc_->Init(key, value);
    if (found == FlatTable::kNoEntry) {
      const uint32_t idx = table->FindOrInsert(key, digest, inserted);
      table->set_value(idx, state);
      return idx;
    }
    const std::string_view cur = table->value_at(found);
    scratch_.assign(cur.data(), cur.size());
    inc_->Combine(key, &scratch_, state);
    table->set_value(found, scratch_);
    *inserted = false;
    return found;
  }

 private:
  IncrementalReducer* inc_;
  std::string scratch_;
};

// The map buffer of the three buffered output modes. It holds a task's
// emits until its owner cuts it:
//  * kSortRaw keeps every emit and stable-sorts them by (partition, key);
//  * kSortCombine folds each emit into a FlatTable as it arrives
//    (EmitFold) and sorts only the distinct keys (§2.2);
//  * kHashCombine folds the same way and hands the distinct keys over in
//    table insertion order, unsorted (§5's hash-based map output).
// Either way equal keys leave in emit order, so a map output is a function
// of the emit sequence alone. bytes() is what the owner cuts on: the
// emitted bytes on the sort path, Hadoop's spill rule, which the simulated
// sort charge follows whatever the host sorted (DESIGN.md §5); the table's
// footprint on the hash path, key + state + 32 bytes per distinct key.
class MapBuffer : public Emitter {
 public:
  // `combiner` may be null under kSortRaw, which never folds.
  MapBuffer(MapOutputMode mode, const UniversalHash* partitioner,
            int total_partitions, IncrementalReducer* combiner)
      : partitioner_(partitioner),
        total_partitions_(total_partitions),
        fold_(combiner),
        combine_(mode != MapOutputMode::kSortRaw),
        sort_(mode != MapOutputMode::kHashCombine) {
    CHECK(mode == MapOutputMode::kSortRaw ||
          mode == MapOutputMode::kSortCombine ||
          mode == MapOutputMode::kHashCombine);
  }

  void Emit(std::string_view key, std::string_view value) override {
    const uint64_t digest = (*partitioner_)(key);
    ++records_;
    if (!combine_) {
      entries_.push_back({PartitionOf(digest), arena_.Copy(key),
                          arena_.Copy(value)});
      bytes_ += RecordBytes(key, value);
      return;
    }
    bool inserted = false;
    const uint32_t idx = fold_.Fold(&table_, key, value, digest, &inserted);
    if (sort_) {
      bytes_ += RecordBytes(key, value);
    } else if (inserted) {
      bytes_ += key.size() + table_.value_at(idx).size() + 32;
    }
  }

  // The fill the owner cuts on, and the emits, since the last cut.
  uint64_t bytes() const { return bytes_; }
  uint64_t records() const { return records_; }

  // Appends the buffer's records to `parts`, in (partition, key) order on
  // the sort path, adds their bytes and count to *bytes and *records, and
  // empties the buffer.
  void CutInto(std::vector<KvBuffer>* parts, uint64_t* bytes,
               uint64_t* records) {
    if (combine_) {
      table_.ForEach([&](uint32_t idx) {
        entries_.push_back({PartitionOf(table_.hash_at(idx)),
                            table_.key_at(idx), table_.value_at(idx)});
      });
    }
    if (sort_ && combine_) {
      // The table's keys are distinct, so this order is total.
      std::sort(entries_.begin(), entries_.end(), EntryLess);
    } else if (sort_) {
      std::stable_sort(entries_.begin(), entries_.end(), EntryLess);
    }
    for (const Entry& e : entries_) {
      (*parts)[e.part].Append(e.key, e.value);
      *bytes += RecordBytes(e.key, e.value);
      ++*records;
    }
    entries_.clear();
    arena_.Reset();
    table_.Clear();
    bytes_ = 0;
    records_ = 0;
  }

  // Adds the table's counters to `m`; they survive every cut. Only the
  // hash path calls it: the serialized hash_table_* figures count the
  // hash paths' tables alone.
  void FlushStatsTo(JobMetrics* m) const { table_.FlushStatsTo(m); }

 private:
  struct Entry {
    uint32_t part;
    std::string_view key;
    std::string_view value;
  };

  static bool EntryLess(const Entry& a, const Entry& b) {
    if (a.part != b.part) return a.part < b.part;
    return a.key < b.key;
  }

  uint32_t PartitionOf(uint64_t digest) const {
    return static_cast<uint32_t>(FastRangeBucket(digest, total_partitions_));
  }

  const UniversalHash* partitioner_;
  int total_partitions_;
  EmitFold fold_;
  bool combine_;
  bool sort_;
  Arena arena_;      // kSortRaw: the emitted bytes
  FlatTable table_;  // combining modes: key -> state
  std::vector<Entry> entries_;
  uint64_t bytes_ = 0;
  uint64_t records_ = 0;
};

uint32_t WriteRequests(uint64_t bytes) {
  return std::max<uint32_t>(1, static_cast<uint32_t>(bytes >> 20));
}

// Under an active block codec, encodes push->partitions into
// per-partition block streams (prefix-coded when `sorted`, run-length
// key-grouped otherwise), charges the codec CPU to `trace` at `tag`,
// updates the codec shuffle counters, releases the raw partitions, and
// rewrites push->bytes to the encoded total; no-op under kNone.
void EncodePushSegment(const JobConfig& config, PushSegment* push,
                       bool sorted, OpTag tag, TraceRecorder* trace,
                       JobMetrics* metrics) {
  if (config.block_codec == BlockCodecKind::kNone) return;
  const uint64_t raw_bytes = push->bytes;
  const BlockEncoding encoding =
      sorted ? BlockEncoding::kPrefix : BlockEncoding::kGrouped;
  CodecStats stats;
  push->encoded.reserve(push->partitions.size());
  for (KvBuffer& part : push->partitions) {
    push->encoded.push_back(
        part.empty() ? std::string()
                     : EncodeKvStream(part, encoding, config.block_codec,
                                      kCodecBlockBytes, &stats));
    part = KvBuffer();  // the encoded image supersedes the raw partition
  }
  trace->Cpu(config.costs.compress_byte_s * static_cast<double>(raw_bytes),
             tag);
  metrics->codec_shuffle_raw_bytes += raw_bytes;
  metrics->codec_shuffle_encoded_bytes += stats.encoded_bytes;
  metrics->compress_ns += stats.compress_ns;
  push->bytes = stats.encoded_bytes;
}

}  // namespace

PushSegment PublishPushSegment(const JobConfig& config,
                               std::vector<KvBuffer> parts, uint64_t bytes,
                               uint64_t records, bool sorted, OpTag tag,
                               TraceRecorder* trace, JobMetrics* metrics) {
  PushSegment push;
  push.partitions = std::move(parts);
  push.bytes = bytes;
  EncodePushSegment(config, &push, sorted, tag, trace, metrics);
  trace->DiskWrite(push.bytes, tag, WriteRequests(push.bytes));
  metrics->map_output_bytes += push.bytes;
  metrics->map_output_records += records;
  push.gate_op = static_cast<uint32_t>(trace->trace()->ops.size() - 1);
  // The CRCs cover the bytes the push carries: the encoded streams under a
  // codec (DESIGN.md §5.5), the raw partitions otherwise.
  push.crcs.reserve(push.partitions.size());
  for (size_t p = 0; p < push.partitions.size(); ++p) {
    push.crcs.push_back(push.encoded.empty()
                            ? Crc32c(push.partitions[p].data())
                            : Crc32c(push.encoded[p]));
  }
  return push;
}

MapOutputMode SelectMapOutputMode(const JobConfig& config, bool has_inc) {
  const bool combine = config.map_side_combine && has_inc;
  switch (config.engine) {
    case EngineKind::kSortMerge:
      return combine ? MapOutputMode::kSortCombine : MapOutputMode::kSortRaw;
    case EngineKind::kMRHash:
      return combine ? MapOutputMode::kHashCombine : MapOutputMode::kHashRaw;
    case EngineKind::kIncHash:
    case EngineKind::kDincHash:
      return combine ? MapOutputMode::kHashCombine : MapOutputMode::kHashInit;
  }
  return MapOutputMode::kSortRaw;
}

MapRunner::MapRunner(const JobConfig& config, MapOutputMode mode,
                     UniversalHash partitioner, int total_partitions,
                     Mapper* mapper, IncrementalReducer* inc,
                     const sim::FaultPlan* faults, int task_index)
    : config_(config),
      mode_(mode),
      partitioner_(partitioner),
      total_partitions_(total_partitions),
      mapper_(mapper),
      inc_(inc),
      faults_(faults),
      task_index_(task_index) {
  CHECK(mapper != nullptr);
  if (ModeProducesStates(mode)) CHECK(inc != nullptr);
}

void MapRunner::PublishOrFeed(std::vector<KvBuffer> parts, uint64_t bytes,
                              uint64_t records, bool sorted,
                              TraceRecorder* trace, MapTaskOutput* out) const {
  if (config_.combine_scope == CombineScope::kNode) {
    trace->Cpu(
        config_.costs.node_combine_byte_s * static_cast<double>(bytes),
        OpTag::kNodeCombine);
    out->node_feed = std::move(parts);
    out->node_feed_bytes = bytes;
    out->node_feed_records = records;
    out->metrics.node_combine_input_records += records;
    out->metrics.node_combine_input_bytes += bytes;
    return;
  }
  out->pushes.push_back(PublishPushSegment(config_, std::move(parts), bytes,
                                           records, sorted,
                                           OpTag::kMapOutput, trace,
                                           &out->metrics));
}

Result<MapTaskOutput> MapRunner::Run(const KvBuffer& chunk,
                                     const ChunkReadStats* read_stats) const {
  MapTaskOutput out;
  TraceRecorder trace(&out.trace);
  const CostModel& costs = config_.costs;

  // Task startup + input chunk read. A verified DFS read that fell over
  // quarantined replicas paid for each failed full read, and the
  // re-replication write runs on this task's node (it holds the fresh
  // copy's source).
  trace.Cpu(costs.task_start_s, OpTag::kStartup);
  const int chunk_reads =
      read_stats != nullptr && read_stats->replica_reads > 1
          ? read_stats->replica_reads
          : 1;
  for (int i = 0; i < chunk_reads; ++i) {
    trace.DiskRead(chunk.bytes(), OpTag::kMapInput);
  }
  out.metrics.map_input_bytes += chunk.bytes();
  out.metrics.map_input_records += chunk.count();
  if (read_stats != nullptr) {
    out.metrics.verify_bytes += read_stats->verify_bytes;
    out.metrics.checksum_overhead_bytes += read_stats->overhead_bytes;
    out.metrics.corruptions_detected +=
        static_cast<uint64_t>(read_stats->quarantined);
    out.metrics.corruptions_recovered +=
        static_cast<uint64_t>(read_stats->quarantined);
    out.metrics.torn_writes_detected += read_stats->torn;
    out.metrics.quarantined_replicas +=
        static_cast<uint64_t>(read_stats->quarantined);
    out.metrics.rereplicated_bytes += read_stats->rereplicated_bytes;
    out.metrics.corruption_recovery_bytes +=
        static_cast<uint64_t>(chunk_reads - 1) * chunk.bytes() +
        read_stats->rereplicated_bytes;
    if (read_stats->rereplicated_bytes > 0) {
      trace.DiskWrite(read_stats->rereplicated_bytes, OpTag::kMapInput);
    }
  }

  const double map_fn_cost =
      costs.map_fn_byte_s * static_cast<double>(chunk.bytes());

  switch (mode_) {
    case MapOutputMode::kSortRaw:
    case MapOutputMode::kSortCombine:
      RETURN_IF_ERROR(RunSortPath(chunk, map_fn_cost, &trace, &out));
      break;
    case MapOutputMode::kHashRaw:
    case MapOutputMode::kHashInit: {
      std::vector<KvBuffer> parts(total_partitions_);
      PartitionEmitter emitter(
          &partitioner_, &parts,
          mode_ == MapOutputMode::kHashInit ? inc_ : nullptr);
      // Batch plane (§5.8): hand the mapper whole RecordBatches. These
      // paths have no mid-stream thresholds, so batches yield the same
      // emit sequence as a per-record walk — MapBatch overrides included
      // (they must preserve per-record order, and the default loops Map).
      KvBatchReader reader(chunk, kBatchRecords);
      for (;;) {
        const size_t bn = reader.Fill();
        if (bn == 0) break;
        const RecordBatch rb{reader.keys(), reader.values(), bn};
        mapper_->MapBatch(rb, &emitter);
      }
      trace.Cpu(map_fn_cost, OpTag::kMapFn);
      const double per_record =
          mode_ == MapOutputMode::kHashInit
              ? costs.hash_record_s + costs.combine_record_s
              : costs.hash_record_s;
      trace.Cpu(per_record * static_cast<double>(emitter.records()),
                OpTag::kMapFn);
      PublishOrFeed(std::move(parts), emitter.bytes(), emitter.records(),
                    /*sorted=*/false, &trace, &out);
      out.sorted = false;
      break;
    }
    case MapOutputMode::kHashCombine: {
      // Every flush appends to the same partitions: the task publishes
      // once, and the map-fn charge covers every emit of every flush.
      std::vector<KvBuffer> parts(total_partitions_);
      MapBuffer buffer(mode_, &partitioner_, total_partitions_, inc_);
      uint64_t emits = 0, out_bytes = 0, out_records = 0;
      auto flush = [&] {
        emits += buffer.records();
        buffer.CutInto(&parts, &out_bytes, &out_records);
      };
      // The flush threshold is checked after every input record (a batched
      // check would move flush boundaries and change output), so records
      // still Map one at a time; batching buys the decoded view staging.
      KvBatchReader reader(chunk, kBatchRecords);
      for (;;) {
        const size_t bn = reader.Fill();
        if (bn == 0) break;
        for (size_t i = 0; i < bn; ++i) {
          mapper_->Map(reader.keys()[i], reader.values()[i], &buffer);
          if (buffer.bytes() >= config_.map_buffer_bytes) flush();
        }
      }
      flush();
      buffer.FlushStatsTo(&out.metrics);
      trace.Cpu(map_fn_cost, OpTag::kMapFn);
      trace.Cpu((costs.hash_record_s + costs.combine_record_s) *
                    static_cast<double>(emits),
                OpTag::kMapFn);
      PublishOrFeed(std::move(parts), out_bytes, out_records,
                    /*sorted=*/false, &trace, &out);
      out.sorted = false;
      break;
    }
  }

  return out;
}

Status MapRunner::RunSortPath(const KvBuffer& chunk, double map_fn_cost,
                              TraceRecorder* trace, MapTaskOutput* out) const {
  const CostModel& costs = config_.costs;
  const bool combine = mode_ == MapOutputMode::kSortCombine;
  MapBuffer buffer(mode_, &partitioner_, total_partitions_, inc_);
  // Spilled runs, one StoredRun per partition: prefix-coded block streams
  // under a codec, so both the byte charges and the resident memory track
  // the encoded size.
  const RunCodec codec(config_.block_codec, BlockEncoding::kPrefix, &costs,
                       RunCodec::Family::kMapSpill);
  std::vector<std::vector<StoredRun>> runs;
  uint64_t total_run_bytes = 0;  // bytes on disk over all runs

  // Cuts the buffer in (partition, key) order and emits it either as an
  // on-disk run, a pipelined push, or the final output. The time plane
  // charges Hadoop's sort of every buffered record (and a combine of each),
  // however few distinct keys the host sorted.
  enum class CutKind { kSpill, kFinalOutput };
  auto sort_and_cut = [&](CutKind kind) {
    const uint64_t buffered = buffer.records();
    std::vector<KvBuffer> parts(total_partitions_);
    uint64_t bytes = 0, records = 0;
    buffer.CutInto(&parts, &bytes, &records);
    trace->Cpu(costs.SortCost(buffered), OpTag::kSort);
    if (combine) {
      trace->Cpu(2.0 * costs.combine_record_s * static_cast<double>(buffered),
                 OpTag::kMapFn);
    }

    const bool publish =
        config_.pipelining || kind == CutKind::kFinalOutput;
    if (publish) {
      PublishOrFeed(std::move(parts), bytes, records, /*sorted=*/true, trace,
                    out);
      return;
    }
    // One encode charge and one write per spilled run.
    CodecStats stats;
    std::vector<StoredRun> run(total_partitions_, StoredRun(codec));
    uint64_t disk_bytes = 0;
    for (int p = 0; p < total_partitions_; ++p) {
      disk_bytes += run[p].Append(parts[p], &stats);
    }
    codec.ChargeEncode(stats, OpTag::kMapSpill, trace, &out->metrics);
    trace->DiskWrite(disk_bytes, OpTag::kMapSpill, WriteRequests(disk_bytes));
    out->metrics.map_spill_write_bytes += disk_bytes;
    total_run_bytes += disk_bytes;
    runs.push_back(std::move(run));
  };

  const double fn_per_record =
      chunk.count() > 0 ? map_fn_cost / static_cast<double>(chunk.count())
                        : 0.0;
  uint64_t cut_bytes = config_.map_buffer_bytes;
  if (config_.pipelining && config_.pipeline_push_bytes > 0) {
    cut_bytes = std::min(cut_bytes, config_.pipeline_push_bytes);
  }
  // The spill cut is checked after every input record, so the sort path
  // keeps per-record Map calls; batching covers the decode (§5.8).
  KvBatchReader reader(chunk, kBatchRecords);
  for (;;) {
    const size_t bn = reader.Fill();
    if (bn == 0) break;
    for (size_t i = 0; i < bn; ++i) {
      mapper_->Map(reader.keys()[i], reader.values()[i], &buffer);
      trace->Cpu(fn_per_record, OpTag::kMapFn);
      if (buffer.bytes() >= cut_bytes) {
        sort_and_cut(CutKind::kSpill);
      }
    }
  }
  out->sorted = true;

  if (config_.pipelining || runs.empty()) {
    // Pipelining: every cut (including the remainder) was already pushed.
    // Nothing spilled: the whole chunk's output fit in the map buffer, so
    // the sorted buffer is the map output (the paper's recommended
    // operating point for C).
    sort_and_cut(CutKind::kFinalOutput);
    return Status::OK();
  }

  // External sort: cut the remainder as one more run, then merge all runs
  // into the final map output. Physically a single k-way merge; extra
  // passes beyond the merge factor are accounted via the exact merge tree.
  sort_and_cut(CutKind::kSpill);
  const int n_runs = static_cast<int>(runs.size());

  // Verified read of each run's on-disk image (its partitions' images,
  // concatenated): each corrupt generation the fault plan draws is
  // rebuilt — re-sorted from the resident input and rewritten, charged as
  // an extra write + read of the run.
  for (int r = 0; r < n_runs; ++r) {
    std::string image;
    for (const StoredRun& part : runs[r]) image.append(part.image());
    VerifiedRead(image,
                 {sim::StreamKind::kMapSpillRun,
                  static_cast<uint64_t>(task_index_),
                  static_cast<uint64_t>(r), OpTag::kMapSpill},
                 faults_, trace, &out->metrics);
  }

  // Merge partition by partition, reading each run's partition back (and
  // decoding it under a codec) just before its merge.
  std::vector<KvBuffer> final_parts(total_partitions_);
  CodecStats decode_stats;
  uint64_t out_bytes = 0, out_records = 0, total_records = 0, combines = 0;
  for (int p = 0; p < total_partitions_; ++p) {
    std::vector<KvBuffer> loaded;
    loaded.reserve(n_runs);
    std::vector<const KvBuffer*> inputs;
    uint64_t in_bytes = 0;
    for (std::vector<StoredRun>& run : runs) {
      ASSIGN_OR_RETURN(KvBuffer records, run[p].Take(&decode_stats));
      if (records.empty()) continue;
      in_bytes += records.bytes();
      loaded.push_back(std::move(records));
      inputs.push_back(&loaded.back());
    }
    if (inputs.empty()) continue;
    // The merged partition is at most the sum of its runs (combining can
    // only shrink it); one reservation avoids growth reallocations.
    final_parts[p].Reserve(in_bytes);
    SortedKvMerger merger(std::move(inputs));
    combines += merger.MergeInto(&final_parts[p], combine ? inc_ : nullptr);
    total_records += merger.records_merged();
    out_records += final_parts[p].count();
    out_bytes += final_parts[p].bytes();
    // The reservation above sized for the pre-combine sum; release the
    // slack so resident map output tracks what will actually ship.
    final_parts[p].ShrinkToFit();
  }
  codec.ChargeDecode(decode_stats, OpTag::kMapMerge, trace, &out->metrics);

  trace->DiskRead(total_run_bytes, OpTag::kMapMerge,
                  std::max<uint32_t>(1, n_runs));
  out->metrics.map_spill_read_bytes += total_run_bytes;
  trace->Cpu(costs.MergeCost(total_records) +
                 costs.combine_record_s * static_cast<double>(combines),
             OpTag::kMapMerge);
  if (n_runs > config_.merge_factor) {
    const double avg_run = static_cast<double>(total_run_bytes) / n_runs;
    const MergeTreeStats stats =
        SimulateMergeTree(n_runs, avg_run, config_.merge_factor);
    const uint64_t extra =
        static_cast<uint64_t>(stats.background_merge_bytes);
    if (extra > 0) {
      trace->DiskWrite(extra, OpTag::kMapMerge);
      trace->DiskRead(extra, OpTag::kMapMerge);
      out->metrics.map_spill_write_bytes += extra;
      out->metrics.map_spill_read_bytes += extra;
      const double rec_bytes =
          total_records > 0
              ? static_cast<double>(total_run_bytes) / total_records
              : 64.0;
      trace->Cpu(
          costs.MergeCost(static_cast<uint64_t>(extra / rec_bytes)),
          OpTag::kMapMerge);
    }
  }
  PublishOrFeed(std::move(final_parts), out_bytes, out_records,
                /*sorted=*/true, trace, out);
  return Status::OK();
}

}  // namespace onepass
