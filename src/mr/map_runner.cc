#include "src/mr/map_runner.h"

#include <algorithm>
#include <string>

#include "src/common/logging.h"
#include "src/engine/sorted_merge.h"
#include "src/model/merge_tree.h"
#include "src/storage/block_format.h"
#include "src/storage/stored_run.h"
#include "src/util/arena.h"
#include "src/util/batch_hash.h"
#include "src/util/crc32c.h"
#include "src/util/flat_table.h"

namespace onepass {

namespace {

// Collects the mapper's emitted pairs with partition tags. Bytes live in an
// arena so entries are cheap to sort.
class CollectingEmitter : public Emitter {
 public:
  struct Entry {
    uint32_t part;
    std::string_view key;
    std::string_view value;
  };

  CollectingEmitter(const UniversalHash* partitioner, int total_partitions)
      : partitioner_(partitioner), total_partitions_(total_partitions) {}

  void Emit(std::string_view key, std::string_view value) override {
    Entry e;
    e.part = static_cast<uint32_t>(
        partitioner_->Bucket(key, total_partitions_));
    e.key = arena_.Copy(key);
    e.value = arena_.Copy(value);
    entries_.push_back(e);
    bytes_ += RecordBytes(key, value);
    ++records_;
  }

  std::vector<Entry>& entries() { return entries_; }
  uint64_t bytes() const { return bytes_; }
  uint64_t records() const { return records_; }

  void Reset() {
    entries_.clear();
    arena_.Reset();
    bytes_ = 0;
  }

 private:
  const UniversalHash* partitioner_;
  int total_partitions_;
  Arena arena_;
  std::vector<Entry> entries_;
  uint64_t bytes_ = 0;
  uint64_t records_ = 0;
};

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

// Map-side combiner: in-memory hash table of key -> state (§5's Hash-based
// Map Output component). The table is a FlatTable keyed by the
// partitioner's digest — computed once per emitted record and reused by
// FlushTo for the partition assignment (FastRangeBucket over the cached
// digest equals partitioner.Bucket exactly).
class CombiningEmitter : public Emitter {
 public:
  CombiningEmitter(IncrementalReducer* inc, const UniversalHash* partitioner)
      : inc_(inc), partitioner_(partitioner) {}

  // Emits run through a small pending ring (§5.8): Emit hashes the record
  // and prefetches its control word immediately, but the table update
  // happens when the record leaves the ring — up to kRing emits later, by
  // which time the prefetched line has arrived. Drain() empties the ring;
  // MapRunner drains before every flush check, so the update sequence the
  // table sees (and thus every flush boundary, byte count, and combine
  // total) is exactly the per-emit order.
  void Emit(std::string_view key, std::string_view value) override {
    ++records_;
    if (pending_ == kRing) ProcessOldest();
    Pending& p = ring_[(head_ + pending_) % kRing];
    p.key.assign(key.data(), key.size());
    p.value.assign(value.data(), value.size());
    p.digest = (*partitioner_)(key);
    flat_.PrefetchProbe(p.digest);
    ++pending_;
  }

  // Applies every ring-buffered emit to the table, in emit order.
  void Drain() {
    while (pending_ > 0) ProcessOldest();
  }

  // Moves the table's contents into per-partition buffers and clears it.
  // Callers must Drain() first (MapRunner's flush checks already do).
  void FlushTo(std::vector<KvBuffer>* partitions, uint64_t* out_bytes,
               uint64_t* out_records) {
    CHECK_EQ(pending_, 0u) << "FlushTo with undrained pending emits";
    flat_.ForEach([&](uint32_t idx) {
      const std::string_view key = flat_.key_at(idx);
      const std::string_view state = flat_.value_at(idx);
      const auto part =
          FastRangeBucket(flat_.hash_at(idx), partitions->size());
      (*partitions)[part].Append(key, state);
      *out_bytes += RecordBytes(key, state);
      ++*out_records;
    });
    flat_.Clear();
    bytes_ = 0;
  }

  // Adds the table's counters to `m`. Stats survive FlushTo's Clear, so
  // call once after the final flush.
  void FlushStatsTo(JobMetrics* m) const { flat_.FlushStatsTo(m); }

  uint64_t table_bytes() const { return bytes_; }
  uint64_t records() const { return records_; }
  uint64_t combines() const { return combines_; }

 private:
  // Ring depth: the probe prefetch distance — deep enough to hide a miss,
  // shallow enough that the copied key/value stay L1-resident.
  static constexpr size_t kRing = kProbePrefetchDistance;

  struct Pending {
    std::string key;
    std::string value;
    uint64_t digest = 0;
  };

  // Pops the oldest pending emit and applies the original per-emit table
  // update with its precomputed digest.
  void ProcessOldest() {
    Pending& p = ring_[head_];
    head_ = (head_ + 1) % kRing;
    --pending_;
    const uint32_t found = flat_.Find(p.key, p.digest);
    if (found == FlatTable::kNoEntry) {
      const std::string state = inc_->Init(p.key, p.value);
      bytes_ += p.key.size() + state.size() + 32;
      bool inserted = false;
      const uint32_t idx = flat_.FindOrInsert(p.key, p.digest, &inserted);
      flat_.set_value(idx, state);
    } else {
      const std::string state = inc_->Init(p.key, p.value);
      const std::string_view cur = flat_.value_at(found);
      scratch_.assign(cur.data(), cur.size());
      inc_->Combine(p.key, &scratch_, state);
      flat_.set_value(found, scratch_);
      ++combines_;
    }
  }

  IncrementalReducer* inc_;
  const UniversalHash* partitioner_;
  FlatTable flat_;
  std::string scratch_;
  Pending ring_[kRing];
  size_t head_ = 0;
  size_t pending_ = 0;
  uint64_t bytes_ = 0;
  uint64_t records_ = 0;
  uint64_t combines_ = 0;
};

bool EntryLess(const CollectingEmitter::Entry& a,
               const CollectingEmitter::Entry& b) {
  if (a.part != b.part) return a.part < b.part;
  return a.key < b.key;
}

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
  if (config.integrity.checksums) {
    // The CRCs cover the bytes the push carries: the encoded streams under
    // a codec (DESIGN.md §5.5), the raw partitions otherwise.
    push.crcs.reserve(push.partitions.size());
    for (size_t p = 0; p < push.partitions.size(); ++p) {
      push.crcs.push_back(push.encoded.empty()
                              ? Crc32c(push.partitions[p].data())
                              : Crc32c(push.encoded[p]));
    }
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
      std::vector<KvBuffer> parts(total_partitions_);
      CombiningEmitter emitter(inc_, &partitioner_);
      uint64_t out_bytes = 0, out_records = 0;
      // The combiner's flush threshold is checked after every input record
      // (a batched check would move flush boundaries and change output),
      // so records still Map one at a time; batching buys the decoded
      // view staging, and the emitter's pending ring buys probe prefetch
      // within each record's emits. Drain before each check so
      // table_bytes() reflects every emit so far, exactly as per-record.
      KvBatchReader reader(chunk, kBatchRecords);
      for (;;) {
        const size_t bn = reader.Fill();
        if (bn == 0) break;
        for (size_t i = 0; i < bn; ++i) {
          mapper_->Map(reader.keys()[i], reader.values()[i], &emitter);
          emitter.Drain();
          if (emitter.table_bytes() >= config_.map_buffer_bytes) {
            emitter.FlushTo(&parts, &out_bytes, &out_records);
          }
        }
      }
      emitter.FlushTo(&parts, &out_bytes, &out_records);
      emitter.FlushStatsTo(&out.metrics);
      trace.Cpu(map_fn_cost, OpTag::kMapFn);
      trace.Cpu((costs.hash_record_s + costs.combine_record_s) *
                    static_cast<double>(emitter.records()),
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
  CollectingEmitter emitter(&partitioner_, total_partitions_);
  // Spilled runs, one StoredRun per partition: prefix-coded block streams
  // under a codec, so both the byte charges and the resident memory track
  // the encoded size.
  const RunCodec codec(config_.block_codec, BlockEncoding::kPrefix, &costs,
                       RunCodec::Family::kMapSpill);
  std::vector<std::vector<StoredRun>> runs;
  uint64_t total_run_bytes = 0;  // bytes on disk over all runs

  // Sorts the buffered entries (combining key groups if enabled) and emits
  // them either as an on-disk run, a pipelined push, or the final output.
  enum class CutKind { kSpill, kFinalOutput };
  auto sort_and_cut = [&](CutKind kind) {
    auto& entries = emitter.entries();
    std::sort(entries.begin(), entries.end(), EntryLess);
    trace->Cpu(costs.SortCost(entries.size()), OpTag::kSort);
    std::vector<KvBuffer> parts(total_partitions_);
    uint64_t bytes = 0, records = 0, combines = 0;
    size_t i = 0;
    while (i < entries.size()) {
      size_t j = i + 1;
      while (combine && j < entries.size() &&
             entries[j].part == entries[i].part &&
             entries[j].key == entries[i].key) {
        ++j;
      }
      if (combine) {
        std::string state = inc_->Init(entries[i].key, entries[i].value);
        for (size_t k = i + 1; k < j; ++k) {
          const std::string s2 = inc_->Init(entries[k].key,
                                            entries[k].value);
          inc_->Combine(entries[i].key, &state, s2);
          ++combines;
        }
        parts[entries[i].part].Append(entries[i].key, state);
        bytes += RecordBytes(entries[i].key, state);
      } else {
        parts[entries[i].part].Append(entries[i].key, entries[i].value);
        bytes += RecordBytes(entries[i].key, entries[i].value);
      }
      ++records;
      i = j;
    }
    if (combine) {
      trace->Cpu(2.0 * costs.combine_record_s *
                     static_cast<double>(entries.size()),
                 OpTag::kMapFn);
    }
    emitter.Reset();

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
      mapper_->Map(reader.keys()[i], reader.values()[i], &emitter);
      trace->Cpu(fn_per_record, OpTag::kMapFn);
      if (emitter.bytes() >= cut_bytes) {
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
  if (config_.integrity.checksums) {
    for (int r = 0; r < n_runs; ++r) {
      std::string image;
      for (const StoredRun& part : runs[r]) image.append(part.image());
      VerifiedRead(image,
                   {sim::StreamKind::kMapSpillRun,
                    static_cast<uint64_t>(task_index_),
                    static_cast<uint64_t>(r), OpTag::kMapSpill},
                   &config_.integrity, faults_, trace, &out->metrics);
    }
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
