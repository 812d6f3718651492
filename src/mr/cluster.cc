#include "src/mr/cluster.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/dfs/chunk_reader.h"
#include "src/engine/group_by_engine.h"
#include "src/mr/cost_trace.h"
#include "src/mr/map_runner.h"
#include "src/mr/node_combine.h"
#include "src/mr/output.h"
#include "src/mr/slot_pool.h"
#include "src/sim/event_queue.h"
#include "src/storage/block_format.h"
#include "src/storage/checkpoint.h"
#include "src/storage/framed_io.h"
#include "src/util/crc32c.h"
#include "src/util/hash.h"
#include "src/util/thread_pool.h"

namespace onepass {
namespace {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Map task m's push p, one per shuffle delivery, in the order every
// reducer consumes them.
using DeliveryOrder = std::vector<std::pair<int, uint32_t>>;

// What one reduce task's engine run leaves for packaging.
struct ReduceTaskOut {
  CostTrace trace;
  JobMetrics metrics;
  std::vector<DeliveryRef> deliveries;
  std::vector<CheckpointMark> checkpoints;
  std::vector<Record> outputs;  // drained into the answer in task order
  KvBuffer saved_state;         // pre-Finish engine image, when saving
  uint64_t saved_raw_bytes = 0;
};

// What the stages share: the job, its hash family and map output mode,
// the host thread pool, and the task outputs later stages read. Every
// stage writes its share of the replay inputs into `pj`.
struct DataPlane {
  const JobSpec& spec;
  const JobConfig& config;
  const ChunkStore& input;
  ThreadPool* pool;
  PreparedJob& pj;
  int reducers;
  UniversalHashFamily hashes;
  UniversalHash h1;
  MapOutputMode mode;
  std::vector<MapTaskOutput> map_outs;
  std::vector<ReduceTaskOut> reduce_outs;
};

// Step 1, the map plane: every map task reads its chunk through the
// verified DFS path and runs for real. Each replica's framed bytes are
// checked at the read boundary, bad copies are quarantined and
// re-replicated, and the surviving replica view feeds placement.
// Concurrent tasks share the reader, but task m only touches chunk m's
// replica view, and every fault/corruption draw is a pure function of
// (task id, stream id). `pins` (may be null) is a resident chain's map
// placement: pins[m] produced task m's output in the previous stage over
// this same store (DESIGN.md §5.9).
Status MapPlane(DataPlane& dp, const std::vector<int>* pins) {
  PreparedJob& pj = dp.pj;
  const size_t num_maps = dp.input.chunks().size();
  ChunkReader chunk_reader(&dp.input, dp.config.integrity, &pj.plan);
  dp.map_outs.resize(num_maps);
  const double start = WallSeconds();
  RETURN_IF_ERROR(RunDataPlaneTasks(dp.pool, num_maps, [&](size_t m) {
    ChunkReadStats read_stats;
    ASSIGN_OR_RETURN(const KvBuffer records,
                     chunk_reader.Read(static_cast<int>(m), &read_stats));
    std::unique_ptr<Mapper> mapper = dp.spec.mapper();
    std::unique_ptr<IncrementalReducer> inc =
        dp.spec.inc ? dp.spec.inc() : nullptr;
    const MapRunner runner(dp.config, dp.mode, dp.h1, dp.reducers,
                           mapper.get(), inc.get(), &pj.plan,
                           static_cast<int>(m));
    ASSIGN_OR_RETURN(dp.map_outs[m], runner.Run(records, &read_stats));
    return Status::OK();
  }));
  pj.result.map_plane_wall_s = WallSeconds() - start;
  for (const MapTaskOutput& mo : dp.map_outs) {
    pj.result.metrics.Merge(mo.metrics);
  }

  // The traces move into the PreparedJob (later stages need only the
  // partition payloads left in map_outs).
  pj.map_traces.resize(num_maps);
  pj.map_ins.resize(num_maps);
  for (size_t m = 0; m < num_maps; ++m) {
    pj.map_traces[m] = std::move(dp.map_outs[m].trace);
    Replayer::MapTaskIn& in = pj.map_ins[m];
    const std::vector<int>& reps = chunk_reader.replicas(static_cast<int>(m));
    in.node = dp.input.chunks()[m].node;
    in.replicas = reps;
    // A quarantined primary cannot host the data-local first attempt;
    // fall over to the first surviving holder.
    if (!reps.empty() &&
        std::find(reps.begin(), reps.end(), in.node) == reps.end()) {
      in.node = reps.front();
    }
    // Chain locality: PickMapNode breaks load ties by replica order, so
    // moving the prior winner to the front pins the map there whenever
    // it holds a copy and is not overloaded.
    if (pins != nullptr) {
      const auto prior =
          std::find(in.replicas.begin(), in.replicas.end(), (*pins)[m]);
      if (prior != in.replicas.end()) {
        std::rotate(in.replicas.begin(), prior, prior + 1);
        in.node = in.replicas.front();
      }
    }
    in.trace = &pj.map_traces[m];
    in.num_pushes = static_cast<uint32_t>(dp.map_outs[m].pushes.size());
    for (uint32_t p = 0; p < in.num_pushes; ++p) {
      in.gates[dp.map_outs[m].pushes[p].gate_op] = p;
    }
  }
  return Status::OK();
}

// Node combine tier (DESIGN.md §5.10). Map tasks under combine_scope ==
// kNode produced node feeds instead of pushes, so group them by their
// placement node and run one NodeCombiner per occupied node, merging
// feeds in task-id order (the node-level determinism barrier). Each
// combiner's result is appended as a *virtual map task*: its trace
// replays like any map task's, its single combined push carries the
// node's whole output, and its `deps` list makes the push lineage of
// every contributing task for fault recovery.
Status NodeCombine(DataPlane& dp) {
  PreparedJob& pj = dp.pj;
  const int nodes = dp.config.cluster.nodes;
  std::vector<std::vector<int>> node_tasks(static_cast<size_t>(nodes));
  for (size_t m = 0; m < dp.map_outs.size(); ++m) {
    node_tasks[static_cast<size_t>(pj.map_ins[m].node)].push_back(
        static_cast<int>(m));
  }
  std::vector<int> combine_nodes;
  for (int n = 0; n < nodes; ++n) {
    if (!node_tasks[static_cast<size_t>(n)].empty()) combine_nodes.push_back(n);
  }
  const bool sorted_feeds = dp.mode == MapOutputMode::kSortCombine;
  std::vector<NodeCombineOutput> combine_outs(combine_nodes.size());
  const double start = WallSeconds();
  RETURN_IF_ERROR(RunDataPlaneTasks(
      dp.pool, combine_nodes.size(), [&](size_t i) {
        std::unique_ptr<IncrementalReducer> inc = dp.spec.inc();
        const NodeCombiner combiner(dp.config, dp.h1, dp.reducers,
                                    inc.get());
        std::vector<const MapTaskOutput*> feeds;
        for (int m : node_tasks[static_cast<size_t>(combine_nodes[i])]) {
          feeds.push_back(&dp.map_outs[static_cast<size_t>(m)]);
        }
        combine_outs[i] = combiner.Run(feeds, sorted_feeds);
        return Status::OK();
      }));
  pj.result.map_plane_wall_s += WallSeconds() - start;

  for (size_t i = 0; i < combine_nodes.size(); ++i) {
    const int n = combine_nodes[i];
    const std::vector<int>& deps = node_tasks[static_cast<size_t>(n)];
    NodeCombineOutput& co = combine_outs[i];
    pj.result.metrics.Merge(co.metrics);
    MapTaskOutput& virt = dp.map_outs.emplace_back();
    virt.sorted = sorted_feeds;
    virt.pushes.push_back(std::move(co.push));
    pj.map_traces.push_back(std::move(co.trace));
    Replayer::MapTaskIn& in = pj.map_ins.emplace_back();
    // Home node first, then every other node: the combine is not bound
    // to an input chunk, so after a crash it can re-run anywhere once its
    // deps' contributions are re-materialized.
    in.node = n;
    in.replicas.push_back(n);
    for (int o = 0; o < nodes; ++o) {
      if (o != n) in.replicas.push_back(o);
    }
    in.num_pushes = 1;
    in.gates[virt.pushes[0].gate_op] = 0;
    in.deps = deps;
    // The feeds are folded into the combined push; drop the buffers.
    for (int m : deps) dp.map_outs[static_cast<size_t>(m)].node_feed.clear();
  }
  // The appends may have moved the traces: re-point every replay input.
  for (size_t m = 0; m < pj.map_ins.size(); ++m) {
    pj.map_ins[m].trace = &pj.map_traces[m];
  }
  return Status::OK();
}

// Step 2, the delivery order: a provisional map-only replay under the
// job's own FaultPlan (so crash-forced map re-executions shift publish
// times the way the cluster would see them) fixes when each push
// publishes. Publish order is only a consumption-order contract for the
// reduce plane; the full replay is authoritative for timing, and for
// failure: the provisional replay's status is ignored, so a job whose
// fault plan exhausts it fails in the full replay, with its simulated
// work charged, like any other. Pushes it never published go last, in
// (map task, push) order.
DeliveryOrder OrderDeliveries(const PreparedJob& pj) {
  sim::Engine engine;
  SlotPool slots(&engine, pj.config.cluster);
  Replayer provisional(&engine, &slots, pj.config, pj.plan, pj.map_ins, {},
                       {});
  (void)provisional.Run();
  std::vector<std::pair<double, std::pair<int, uint32_t>>> timed;
  for (size_t m = 0; m < pj.map_ins.size(); ++m) {
    for (uint32_t p = 0; p < pj.map_ins[m].num_pushes; ++p) {
      const double t = provisional.push_ready_time(static_cast<int>(m), p);
      timed.push_back({t < 0 ? std::numeric_limits<double>::infinity() : t,
                       {static_cast<int>(m), p}});
    }
  }
  std::sort(timed.begin(), timed.end());
  DeliveryOrder order;
  order.reserve(timed.size());
  for (const auto& [t, mp] : timed) order.push_back(mp);
  return order;
}

// One reduce task's engine run: start from `adopt`'s state when given,
// consume every delivery in `order`, save the pre-Finish state when
// `save_state`, finish. Section i of the trace is delivery i's work; the
// last section is the Finish phase.
Status RunReduceTask(const DataPlane& dp, const DeliveryOrder& order, int r,
                     const ResidentStateHandle* adopt, bool save_state,
                     ReduceTaskOut* out) {
  const JobConfig& config = dp.config;
  TraceRecorder trace(&out->trace);
  std::unique_ptr<Reducer> reducer =
      dp.spec.reducer ? dp.spec.reducer() : nullptr;
  std::unique_ptr<IncrementalReducer> inc =
      dp.spec.inc ? dp.spec.inc() : nullptr;
  OutputCollector collector(&trace, &out->metrics,
                            config.collect_outputs ? &out->outputs : nullptr);
  EngineContext ctx;
  ctx.trace = &trace;
  ctx.metrics = &out->metrics;
  ctx.out = &collector;
  ctx.config = &config;
  ctx.hashes = dp.hashes;
  ctx.reducer = reducer.get();
  ctx.inc = inc.get();
  ctx.values_are_states = ModeProducesStates(dp.mode);
  ctx.faults = &dp.pj.plan;
  ctx.integrity_owner = static_cast<uint64_t>(r) + 1;
  ASSIGN_OR_RETURN(const std::unique_ptr<GroupByEngine> engine,
                   CreateGroupByEngine(config.engine, ctx));

  // State adoption (DESIGN.md §5.9): seed the fresh engine with the prior
  // iteration's table before any delivery, so unchanged keys are never
  // re-aggregated. The adopt cost is charged inside the first replayed
  // section below (ops before the first section mark never replay).
  double adopt_cpu_s = 0;
  if (adopt != nullptr) {
    CheckpointReader prior_reader(adopt->states[r]);
    RETURN_IF_ERROR(engine->RestoreCheckpoint(&prior_reader));
    out->metrics.resident_state_restores += 1;
    out->metrics.resident_state_restored_bytes += adopt->raw_bytes[r];
    adopt_cpu_s = config.costs.resident_publish_byte_s *
                  static_cast<double>(adopt->raw_bytes[r]);
  }

  // Snapshot thresholds (§3.3(4)): after each 1/(N+1) of deliveries.
  std::vector<size_t> snapshot_at;
  if (config.snapshots > 0 && !order.empty()) {
    for (int k = 1; k <= config.snapshots; ++k) {
      snapshot_at.push_back(order.size() * k / (config.snapshots + 1));
    }
  }
  const uint64_t ckpt_interval = config.checkpoint_interval_segments;
  size_t delivery_index = 0;
  for (const auto& [m, p] : order) {
    const PushSegment& push = dp.map_outs[m].pushes[p];
    // Under a block codec the fetched image is the encoded block stream:
    // the CRC check and the wire/disk byte charges cover the *encoded*
    // bytes, and the segment is decoded here before the engine consumes
    // it (DESIGN.md §5.5).
    const bool coded = !push.encoded.empty();
    const std::string* enc = coded ? &push.encoded[r] : nullptr;
    const KvBuffer* segment = coded ? nullptr : &push.partitions[r];
    const uint64_t wire_bytes = coded ? enc->size() : segment->bytes();
    // Every fetched segment re-verifies against the CRC its producer
    // stamped at publish time; the time-plane replay decides which
    // fetches the plan corrupts and replays the recovery.
    const uint32_t crc = coded ? Crc32c(*enc) : Crc32c(segment->data());
    if (crc != push.crcs[r]) {
      return Status::Corruption(
          "map task " + std::to_string(m) + " push " + std::to_string(p) +
          ": segment for reducer " + std::to_string(r) +
          " failed checksum verification");
    }
    out->metrics.verify_bytes += wire_bytes;
    out->metrics.checksum_overhead_bytes +=
        FramedOverheadBytes(wire_bytes, IntegrityConfig::block_bytes);
    KvBuffer decoded;
    if (coded) {
      CodecStats dstats;
      ASSIGN_OR_RETURN(decoded, DecodeKvStream(*enc, &dstats));
      out->metrics.decompress_ns += dstats.decompress_ns;
      segment = &decoded;
    }
    out->deliveries.push_back({m, p, wire_bytes});
    trace.BeginSection();
    trace.Net(wire_bytes, OpTag::kShuffle, /*d_shuffle_bytes=*/wire_bytes);
    if (adopt_cpu_s > 0) {
      // First delivery section, right after its net op (the replayer
      // requires a section's first op to be the fetch).
      trace.Cpu(adopt_cpu_s, OpTag::kCheckpoint);
      adopt_cpu_s = 0;
    }
    if (coded) {
      trace.Cpu(config.costs.decompress_byte_s *
                    static_cast<double>(segment->bytes()),
                OpTag::kShuffle);
    }
    out->metrics.shuffle_bytes += wire_bytes;
    RETURN_IF_ERROR(engine->Consume(*segment, dp.map_outs[m].sorted));
    ++delivery_index;
    if (std::find(snapshot_at.begin(), snapshot_at.end(), delivery_index) !=
        snapshot_at.end()) {
      RETURN_IF_ERROR(engine->Snapshot());
    }
    // Reduce-state checkpoint (DESIGN.md §5.6) every ckpt_interval
    // deliveries: the engine writes the next image of its checkpoint
    // chain — a delta against its previous image unless the chain starts
    // or compacts — and the image runs through the codec + CRC-framing
    // path, charging the compress CPU, the durable write, and the
    // replication transfer of that image alone. The data plane discards
    // the bytes — restore correctness is proven by the checkpoint unit
    // tests; the time plane replays durability, placement, and recovery
    // (reading every link of the chain) from the recorded marks. A
    // checkpoint after the final delivery is useless (Finish follows at
    // once) and skipped.
    if (ckpt_interval > 0 && delivery_index % ckpt_interval == 0 &&
        delivery_index < order.size()) {
      CheckpointWriter w;
      RETURN_IF_ERROR(engine->SaveCheckpoint(&w));
      const EncodedCheckpoint image =
          EncodeCheckpoint(w.fields(), config.block_codec, kCodecBlockBytes,
                           IntegrityConfig::block_bytes);
      if (image.coded) {
        trace.Cpu(config.costs.compress_byte_s *
                      static_cast<double>(image.raw_bytes),
                  OpTag::kCheckpoint);
      }
      trace.DiskWrite(image.framed.size(), OpTag::kCheckpoint);
      const uint64_t extra_replicas =
          static_cast<uint64_t>(config.checkpoint_replication - 1);
      if (extra_replicas > 0) {
        trace.Net(image.framed.size() * extra_replicas, OpTag::kCheckpoint);
      }
      out->metrics.checkpoints_written += 1;
      out->metrics.checkpoint_bytes += image.framed.size();
      out->metrics.checkpoint_replica_bytes +=
          image.framed.size() * extra_replicas;
      CheckpointMark mark;
      mark.watermark = static_cast<uint32_t>(delivery_index);
      mark.bytes = image.framed.size();
      mark.raw_bytes = image.raw_bytes;
      mark.gate_op = static_cast<uint32_t>(out->trace.ops.size()) - 1;
      mark.links = engine->checkpoint_links();
      out->checkpoints.push_back(mark);
    }
  }
  trace.BeginSection();
  if (adopt_cpu_s > 0) {
    // No deliveries reached this reducer; charge the adopt in the final
    // section instead (fully replayed, no first-op rule).
    trace.Cpu(adopt_cpu_s, OpTag::kCheckpoint);
  }
  // State carry-over capture: serialize the pre-Finish engine state for
  // the next iteration (Finish drains the spill buckets, so it must run
  // after the save; SaveState is non-destructive). The carry is always
  // the full stream, never a checkpoint chain's delta.
  if (save_state) {
    CheckpointWriter w;
    RETURN_IF_ERROR(engine->SaveState(&w));
    out->saved_raw_bytes = w.fields().bytes();
    out->saved_state = w.Take();
    trace.Cpu(config.costs.resident_publish_byte_s *
                  static_cast<double>(out->saved_raw_bytes),
              OpTag::kCheckpoint);
    out->metrics.resident_state_saved_bytes += out->saved_raw_bytes;
  }
  RETURN_IF_ERROR(engine->Finish());
  collector.Flush();
  return Status::OK();
}

// Step 3, the reduce plane: with the delivery order fixed, every reduce
// task's engine run is independent — it reads the (now immutable) map
// output segments for its own partition and writes only task-local state
// — so the tasks run concurrently on the pool. Meanwhile the calling
// thread drains finished tasks in task-id order: it merges each task's
// metrics and copies its records into the answer, then frees the task's
// copy. `adopt` (may be null) is a resident chain's prior reduce state to
// start from; `save` (may be null) receives each task's pre-Finish state
// for the next stage to adopt.
Status ReducePlane(DataPlane& dp, const DeliveryOrder& order,
                   const ResidentStateHandle* adopt,
                   ResidentStateHandle* save) {
  PreparedJob& pj = dp.pj;
  std::vector<Record>& answer = pj.result.outputs;
  dp.reduce_outs.resize(static_cast<size_t>(dp.reducers));
  // The reducers consume map_output_records records in all; a job that
  // emits one record per consumed record fits exactly, and one that emits
  // more grows the vector as usual. The records are copied, not moved, so
  // the answer is allocated by the thread that owns the JobResult rather
  // than left in the workers' malloc arenas (DESIGN.md §5.3).
  if (dp.config.collect_outputs) {
    answer.reserve(pj.result.metrics.map_output_records);
  }
  const double start = WallSeconds();
  RETURN_IF_ERROR(RunDataPlaneTasks(
      dp.pool, dp.reduce_outs.size(),
      [&](size_t r) {
        return RunReduceTask(dp, order, static_cast<int>(r), adopt,
                             save != nullptr, &dp.reduce_outs[r]);
      },
      [&](size_t r) {
        ReduceTaskOut& out = dp.reduce_outs[r];
        pj.result.metrics.Merge(out.metrics);
        answer.insert(answer.end(), out.outputs.begin(), out.outputs.end());
        std::vector<Record>().swap(out.outputs);
      }));
  pj.result.reduce_plane_wall_s = WallSeconds() - start;
  if (save != nullptr) {
    save->states.clear();
    save->raw_bytes.clear();
    for (ReduceTaskOut& out : dp.reduce_outs) {
      save->states.push_back(std::move(out.saved_state));
      save->raw_bytes.push_back(out.saved_raw_bytes);
    }
    save->engine = dp.config.engine;
    save->seed = dp.config.seed;
  }
  return Status::OK();
}

// Resident shuffle tier (DESIGN.md §5.9), run on every chain stage:
// rewrites time-plane charges only. The delivery order came from the
// disk traces and the reduce plane already consumed it, so a chain stage
// consumes the deliveries a solo job would, in the same order, and
// outputs are byte-identical by construction. Filling each map's
// push_bytes is what marks the job resident to the Replayer.
// `cached_input`: this stage re-reads the store the previous stage
// scanned, which the M3R input cache serves from memory.
void ResidentTransform(DataPlane& dp, bool cached_input) {
  PreparedJob& pj = dp.pj;
  const JobConfig& config = dp.config;
  JobMetrics& metrics = pj.result.metrics;
  // Every push's publish write becomes a memory-speed CPU op in place
  // (same op index, so the replayer's gate bookkeeping and the progress
  // deltas riding on the op are untouched).
  for (size_t m = 0; m < pj.map_ins.size(); ++m) {
    Replayer::MapTaskIn& in = pj.map_ins[m];
    in.push_bytes.assign(in.num_pushes, 0);
    for (uint32_t p = 0; p < in.num_pushes; ++p) {
      in.push_bytes[p] = dp.map_outs[m].pushes[p].bytes;
    }
    for (const auto& [gate, p] : in.gates) {
      TraceOp& op = pj.map_traces[m].ops[gate];
      op.resource = OpResource::kCpu;
      op.cpu_s =
          config.costs.resident_publish_byte_s * static_cast<double>(op.bytes);
      op.bytes = 0;
      op.requests = 0;
      op.is_read = false;
      metrics.resident_publish_segments += 1;
      metrics.resident_publish_bytes += in.push_bytes[p];
    }
  }
  if (!cached_input) return;
  // The input cache is modeled per input store, not per replica: a map
  // rescheduled off its prior node still gets the memory rate — placement
  // makes that the rare case, not the model.
  for (CostTrace& t : pj.map_traces) {
    for (TraceOp& op : t.ops) {
      if (op.tag == OpTag::kMapInput && op.resource == OpResource::kDisk &&
          op.is_read) {
        metrics.resident_cached_input_bytes += op.bytes;
        op.resource = OpResource::kCpu;
        op.cpu_s =
            config.costs.cached_input_byte_s * static_cast<double>(op.bytes);
        op.bytes = 0;
        op.requests = 0;
        op.is_read = false;
      }
    }
  }
}

// Last step: fills the reduce replay inputs, placing task r on its
// round-robin node or on pins[r] (may be null) — in a resident chain, the
// node that finished partition r last stage, so adopted state and
// resident segments are local to the task that reuses them — then sums
// the progress totals and the CPU attribution in one pass over the final
// traces. The intermediate payloads die with the DataPlane.
void Package(DataPlane& dp, const std::vector<int>* pins) {
  PreparedJob& pj = dp.pj;
  const size_t reducers = dp.reduce_outs.size();
  pj.reduce_traces.resize(reducers);
  pj.reduce_ins.resize(reducers);
  for (size_t r = 0; r < reducers; ++r) {
    Replayer::ReduceTaskIn& in = pj.reduce_ins[r];
    in.node = static_cast<int>(r) / dp.config.reducers_per_node;
    if (pins != nullptr && (*pins)[r] >= 0 &&
        (*pins)[r] < dp.config.cluster.nodes) {
      in.node = (*pins)[r];
    }
    pj.reduce_traces[r] = std::move(dp.reduce_outs[r].trace);
    in.trace = &pj.reduce_traces[r];
    in.deliveries = std::move(dp.reduce_outs[r].deliveries);
    in.checkpoints = std::move(dp.reduce_outs[r].checkpoints);
  }
  auto scan = [&pj](const std::vector<CostTrace>& traces, double* cpu_s) {
    for (const CostTrace& t : traces) {
      for (const TraceOp& op : t.ops) {
        pj.totals.shuffle_bytes += op.d_shuffle_bytes;
        pj.totals.reduce_work += op.d_reduce_work;
        pj.totals.output_bytes += op.d_output_bytes;
        if (op.resource == OpResource::kCpu) *cpu_s += op.cpu_s;
      }
    }
  };
  scan(pj.map_traces, &pj.result.map_cpu_s);
  scan(pj.reduce_traces, &pj.result.reduce_cpu_s);
}

// A resident chain stage's inputs (DESIGN.md §5.9), resolved once so that
// no stage re-derives tier presence; each is null or false when off.
struct ChainInputs {
  const ResidentStateHandle* adopt = nullptr;  // prior reduce state
  ResidentStateHandle* save = nullptr;         // this stage's state, out
  const std::vector<int>* map_pins = nullptr;
  const std::vector<int>* reduce_pins = nullptr;
  bool cached_input = false;  // re-reads the previous stage's store
};

// State carry applies to the engines whose reduce state *is* the answer
// so far (INC/DINC key->state tables); SM/MR-hash chains still get the
// resident shuffle and stable placement but start cold. Map pins apply
// only when the stage re-reads the previous stage's store.
Result<ChainInputs> ResolveChain(const JobConfig& config,
                                 const ChunkStore& input,
                                 const ResidentContext* resident) {
  ChainInputs in;
  if (resident == nullptr) return in;
  const int reducers = config.cluster.nodes * config.reducers_per_node;
  if (config.engine == EngineKind::kIncHash ||
      config.engine == EngineKind::kDincHash) {
    if (resident->prior_state != nullptr && !resident->prior_state->empty()) {
      in.adopt = resident->prior_state;
    }
    in.save = resident->save_state;
  }
  in.cached_input = resident->prior_input == &input;
  if (const PartitionPlacement* placement = resident->placement) {
    if (in.cached_input &&
        placement->map_node.size() == input.chunks().size()) {
      in.map_pins = &placement->map_node;
    }
    if (placement->reduce_node.size() == static_cast<size_t>(reducers)) {
      in.reduce_pins = &placement->reduce_node;
    }
  }
  if (in.adopt != nullptr && in.adopt->reducers() != reducers) {
    return Status::InvalidArgument(
        "resident state carries " + std::to_string(in.adopt->reducers()) +
        " reducers but the job runs " + std::to_string(reducers));
  }
  if (in.adopt != nullptr && (in.adopt->engine != config.engine ||
                              in.adopt->seed != config.seed)) {
    return Status::InvalidArgument(
        "resident state engine/seed does not match the adopting job (the "
        "hash family, and so the table layout, derives from both)");
  }
  return in;
}

}  // namespace

Status ValidateJob(const JobSpec& spec, const JobConfig& config) {
  RETURN_IF_ERROR(config.Validate());
  if (!spec.mapper) {
    return Status::InvalidArgument("job needs a mapper factory");
  }
  const bool has_inc = static_cast<bool>(spec.inc);
  RETURN_IF_ERROR(CheckReduceContract(
      config.engine, static_cast<bool>(spec.reducer), has_inc,
      ModeProducesStates(SelectMapOutputMode(config, has_inc))));
  if (config.combine_scope == CombineScope::kNode && !has_inc) {
    return Status::InvalidArgument(
        "combine_scope=kNode needs an IncrementalReducer factory (the node "
        "tier folds co-located map outputs with its combine function)");
  }
  return Status::OK();
}

Result<PreparedJob> LocalCluster::PrepareJob(const JobSpec& spec,
                                             const JobConfig& config,
                                             const ChunkStore& input,
                                             const ResidentContext* resident) {
  RETURN_IF_ERROR(ValidateJob(spec, config));
  ASSIGN_OR_RETURN(const ChainInputs chain,
                   ResolveChain(config, input, resident));
  const int reducers = config.cluster.nodes * config.reducers_per_node;
  const size_t num_maps = input.chunks().size();

  // The data plane may run on a work-stealing pool (DESIGN.md §5.3): all
  // map tasks execute concurrently, and each reduce task's engine runs
  // concurrently once the provisional replay has fixed its delivery
  // order. Every task writes only to its own slot, and results merge in
  // task-id order — map metrics after the map plane's join, reduce
  // metrics and outputs in the reduce plane's drain as each task
  // finishes — so threads=1 and threads=N produce byte-identical
  // JobResults. The time plane (the Replayer) stays single-threaded and
  // authoritative.
  const int threads = std::min<int>(
      ThreadPool::ResolveThreads(config.data_plane_threads),
      static_cast<int>(std::max<size_t>(
          {num_maps, static_cast<size_t>(reducers), size_t{1}})));
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);

  PreparedJob pj(config);
  pj.result.map_tasks = static_cast<int>(num_maps);
  pj.result.reduce_tasks = reducers;
  const UniversalHashFamily hashes(config.seed);
  DataPlane dp{spec, config, input, pool ? &*pool : nullptr, pj, reducers,
               hashes, hashes.At(0),
               SelectMapOutputMode(config, static_cast<bool>(spec.inc)),
               /*map_outs=*/{}, /*reduce_outs=*/{}};

  // The stage list (cluster.h). An optional tier is one call, run or not.
  RETURN_IF_ERROR(MapPlane(dp, chain.map_pins));
  if (config.combine_scope == CombineScope::kNode) {
    RETURN_IF_ERROR(NodeCombine(dp));
  }
  const DeliveryOrder order = OrderDeliveries(pj);
  RETURN_IF_ERROR(ReducePlane(dp, order, chain.adopt, chain.save));
  if (resident != nullptr) ResidentTransform(dp, chain.cached_input);
  Package(dp, chain.reduce_pins);
  return pj;
}

Result<JobResult> LocalCluster::Replay(PreparedJob pj,
                                       PartitionPlacement* placement) {
  sim::Engine engine;
  SlotPool slots(&engine, pj.config.cluster);
  Replayer replay(&engine, &slots, pj.config, pj.plan, pj.map_ins,
                  pj.reduce_ins, pj.totals);
  RETURN_IF_ERROR(replay.Run());

  JobResult result = std::move(pj.result);
  replay.ExportResult(&result);
  RETURN_IF_ERROR(slots.ExportUtilization(
      pj.config.timeline_bin_s,
      std::max(result.running_time, pj.config.timeline_bin_s),
      &result.cpu_util, &result.iowait));
  if (placement != nullptr) {
    // Only the input's own map tasks: node combine tasks are regrouped by
    // the next stage's map placement, not pinned.
    placement->map_node.resize(static_cast<size_t>(result.map_tasks));
    for (int m = 0; m < result.map_tasks; ++m) {
      placement->map_node[static_cast<size_t>(m)] = replay.map_winner_node(m);
    }
    placement->reduce_node.resize(static_cast<size_t>(result.reduce_tasks));
    for (int r = 0; r < result.reduce_tasks; ++r) {
      placement->reduce_node[static_cast<size_t>(r)] =
          replay.reduce_winner_node(r);
    }
  }
  return result;
}

Result<JobResult> LocalCluster::RunJob(const JobSpec& spec,
                                       const JobConfig& config,
                                       const ChunkStore& input) {
  ASSIGN_OR_RETURN(PreparedJob pj, PrepareJob(spec, config, input));
  return Replay(std::move(pj));
}

}  // namespace onepass
