// perfbench: the platform benchmark, on both clocks.
//
//   perfbench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//             [--scale=F] [--spans_out=PATH]
//   perfbench --repro=sm_lz_trigrams [--scale=F]
//
// One process runs one workload as a closed loop: one LocalCluster::RunJob
// at a time, after one untimed warm-up rep, each timed rep followed by a
// timed regeneration of the input, until --seconds have passed (and at
// least kMinReps timed reps). Every rep's answer is
// checked against the reference oracle after its timer stops, and every
// simulated figure and counter it reports must equal the first rep's.
//
// --trace=0 prints the end-to-end metrics. --trace=1 prints the per-layer
// metrics: the same reps, then one traced run that drives the same job on
// one thread through each layer's public calls, with a span per call. The
// last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// README.md explains the workloads, the metrics and the noise design.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/dfs/chunk_reader.h"
#include "src/engine/group_by_engine.h"
#include "src/mr/cluster.h"
#include "src/mr/map_runner.h"
#include "src/mr/output.h"
#include "src/mr/slot_pool.h"
#include "src/sim/event_queue.h"
#include "src/storage/block_format.h"
#include "src/storage/checkpoint.h"
#include "src/storage/framed_io.h"
#include "src/util/crc32c.h"
#include "src/workloads/jobs.h"
#include "src/workloads/reference.h"
#include "src/workloads/sessionization.h"

namespace onepass::perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
// Fewest timed reps a run takes, however long they last: the median needs
// a middle, and the determinism guard needs a second rep to compare.
constexpr int kMinReps = 3;
// A faulted workload runs this many fault plans per run, round-robin, and
// reports its simulated figures as the mean over them. One plan's
// corruption and fetch-failure draws move the simulated running time by
// ~10% from seed to seed; the mean of 8 plans keeps the run-to-run spread
// of those figures well inside their bounds.
constexpr int kFaultPlans = 8;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mb(uint64_t bytes) { return static_cast<double>(bytes) / kMiB; }

// ---- order-insensitive answer fingerprints ----

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashBytes(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return Mix(h);
}

uint64_t HashTuple(std::string_view key, uint64_t a, uint64_t b) {
  return Mix(HashBytes(key) ^ Mix(a ^ Mix(b)));
}

// A multiset fingerprint: two record multisets with equal fingerprints are
// equal up to a 64-bit hash collision in both the sum and the xor.
struct Fingerprint {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t xr = 0;
  void Add(uint64_t h) {
    ++count;
    sum += h;
    xr ^= h;
  }
  bool operator==(const Fingerprint&) const = default;
};

uint64_t ParseU64(std::string_view s, bool* ok) {
  uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  *ok = ec == std::errc() && end == s.data() + s.size();
  return v;
}

// ---- workloads ----

// One benchmark workload: the job, its configuration, the input generator
// and the reference oracle. `expected` fingerprints the correct answer
// from the input; `hash_output` maps one output record into the same
// fingerprint space.
struct Workload {
  JobSpec spec;
  JobConfig config;
  int replication = 1;
  std::function<void(ChunkStore*)> generate;
  std::function<Fingerprint(const ChunkStore&)> expected;
  std::function<uint64_t(const Record&)> hash_output;
};

// The repository's own seeds, used when --seed is not given.
constexpr uint64_t kDefaultClickSeed = 20110613;
constexpr uint64_t kDefaultDocSeed = 20110614;
constexpr uint64_t kDefaultJobSeed = 42;

bool MakeWorkload(const std::string& name, std::optional<uint64_t> seed,
                  double scale, Workload* w) {
  const uint64_t click_seed = seed.value_or(kDefaultClickSeed);
  const uint64_t doc_seed = seed.value_or(kDefaultDocSeed);
  if (name == "sessionize_inc") {
    // Table 3's headline job on its own engine: uncombined 512 B-state
    // sessionization, no codec, faults or checkpoints.
    JobConfig& cfg = w->config;
    cfg = bench::ScaledJobConfig(EngineKind::kIncHash);
    cfg.merge_factor = 32;
    cfg.expected_keys_per_reducer = 1200;
    cfg.expected_bytes_per_reducer = 5 << 20;
    cfg.map_side_combine = false;
    cfg.block_codec = BlockCodecKind::kNone;
    cfg.data_plane_threads = 4;
    w->spec = SessionizationJob(512);
    ClickStreamConfig clicks = bench::ScaledClicks(scale);
    clicks.seed = click_seed;
    w->generate = [clicks](ChunkStore* out) {
      GenerateClickStream(clicks, out);
    };
    // INC with a bounded buffer may split sessions, so the oracle is the
    // one the DINC sessionization test uses: every input click appears in
    // the output exactly once, as (user, ts, url).
    w->expected = [](const ChunkStore& input) {
      Fingerprint f;
      for (const Chunk& chunk : input.chunks()) {
        KvBufferReader reader(chunk.records);
        std::string_view k, v;
        while (reader.Next(&k, &v)) {
          Click c;
          if (!DecodeClick(v, &c)) continue;
          f.Add(HashTuple(UserKey(c.user), c.ts, c.url));
        }
      }
      return f;
    };
    w->hash_output = [](const Record& r) {
      uint64_t session = 0, ts = 0;
      uint32_t url = 0;
      if (!DecodeSessionOutput(r.value, &session, &ts, &url)) return Mix(0);
      return HashTuple(r.key, ts, url);
    };
  } else if (name == "trigrams_dinc") {
    // §6.2's large key-state regime (Fig. 7(f)'s threshold) on one thread:
    // map-side combine, the FREQUENT sketch, DINC bucket spill, LZ streams.
    // Half of Fig. 7(f)'s ScaledDocs(0.5), so a run holds several reps; it
    // still spills ~11 MiB of DINC buckets and LZ is still most of its time.
    JobConfig& cfg = w->config;
    cfg = bench::ScaledJobConfig(EngineKind::kDincHash);
    cfg.merge_factor = 32;
    cfg.expected_keys_per_reducer = 60'000;
    cfg.expected_bytes_per_reducer = 5 << 20;
    cfg.map_side_combine = true;
    cfg.block_codec = BlockCodecKind::kLz;
    cfg.data_plane_threads = 1;
    w->spec = TrigramCountJob(50);
    DocumentCorpusConfig docs = bench::ScaledDocs(0.25 * scale);
    docs.seed = doc_seed;
    w->generate = [docs](ChunkStore* out) { GenerateDocuments(docs, out); };
    // A threshold query emits a key when it crosses the threshold, so only
    // key membership is comparable (the engine tests' oracle).
    w->expected = [](const ChunkStore& input) {
      Fingerprint f;
      for (const auto& [key, count] : ReferenceTrigramCounts(input)) {
        if (count >= 50) f.Add(HashBytes(key));
      }
      return f;
    };
    w->hash_output = [](const Record& r) { return HashBytes(r.key); };
  } else if (name == "clicks_faulted_sm") {
    // The recovery path and the sort path: sort-merge with a combiner and
    // LZ, two crashes, a straggler with speculation, corruption, fetch
    // failures, and reduce-state checkpoints every 4 segments.
    JobConfig& cfg = w->config;
    cfg = bench::ScaledJobConfig(EngineKind::kSortMerge);
    cfg.merge_factor = 32;
    cfg.expected_keys_per_reducer = 1200;
    cfg.expected_bytes_per_reducer = 2 << 20;
    cfg.map_side_combine = true;
    cfg.block_codec = BlockCodecKind::kLz;
    cfg.replication = 2;
    cfg.data_plane_threads = 4;
    sim::CrashEvent map_crash;
    map_crash.node = 3;
    map_crash.at_map_fraction = 0.5;
    sim::CrashEvent shuffle_crash;
    shuffle_crash.node = 6;
    shuffle_crash.at_reduce_fraction = 0.6;
    cfg.faults.crashes = {map_crash, shuffle_crash};
    sim::StragglerSpec slow;
    slow.node = 1;
    slow.cpu_factor = 4.0;
    slow.disk_factor = 4.0;
    cfg.faults.stragglers = {slow};
    cfg.faults.speculative_execution = true;
    cfg.faults.corruption_rate = 0.01;
    cfg.faults.fetch_failure_rate = 0.02;
    cfg.checkpoint_interval_segments = 4;
    cfg.checkpoint_replication = 2;
    w->replication = 2;
    w->spec = ClickCountJob();
    ClickStreamConfig clicks = bench::ScaledClicks(scale);
    clicks.seed = click_seed;
    w->generate = [clicks](ChunkStore* out) {
      GenerateClickStream(clicks, out);
    };
    w->expected = [](const ChunkStore& input) {
      Fingerprint f;
      for (const auto& [key, count] :
           ReferenceClickCounts(input, ClickKeyField::kUser)) {
        f.Add(HashTuple(key, count, 0));
      }
      return f;
    };
    w->hash_output = [](const Record& r) {
      bool ok = false;
      const uint64_t count = ParseU64(r.value, &ok);
      return ok ? HashTuple(r.key, count, 0) : Mix(1);
    };
  } else {
    return false;
  }
  w->config.seed = seed.value_or(kDefaultJobSeed);
  w->config.collect_outputs = true;
  return true;
}

// A plan that corrupts every replica of some input chunk fails the job by
// design (the DFS has no good copy left to read), which is not the regime
// a faulted workload measures. Returns the first job seed at or after
// `seed` whose plan leaves every chunk a clean replica; the draw is a pure
// function of the plan, so every commit measured picks the same seed.
uint64_t FirstReadableFaultSeed(const JobConfig& cfg, const ChunkStore& input,
                                uint64_t seed) {
  for (;; ++seed) {
    const sim::FaultPlan plan(cfg.faults, seed);
    bool readable = true;
    for (size_t m = 0; m < input.chunks().size() && readable; ++m) {
      bool any_clean = false;
      for (int node : input.chunks()[m].replicas) {
        if (plan.CorruptionChain(sim::StreamKind::kDfsChunk, m,
                                 static_cast<uint64_t>(node)) == 0) {
          any_clean = true;
        }
      }
      readable = any_clean;
    }
    if (readable) return seed;
  }
}

// ---- simulated-clock figures of one rep ----

struct SimFigures {
  double running_s = 0;
  double first_output_s = 0;
  double progress_at_map_finish_pct = 0;
  double cpu_s = 0;
  double intermediate_mb = 0;
};

SimFigures SimFiguresOf(const JobResult& r) {
  SimFigures f;
  f.running_s = r.running_time;
  const sim::StepSeries& out = r.output_progress;
  for (size_t i = 0; i < out.values.size(); ++i) {
    if (out.values[i] > 0) {
      f.first_output_s = out.times[i];
      break;
    }
  }
  f.progress_at_map_finish_pct = r.reduce_progress.ValueAt(r.map_finish_time);
  f.cpu_s = r.map_cpu_s + r.reduce_cpu_s;
  const JobMetrics& m = r.metrics;
  f.intermediate_mb =
      Mb(m.map_spill_write_bytes + m.map_spill_read_bytes +
         m.map_output_bytes + m.reduce_spill_write_bytes +
         m.reduce_spill_read_bytes + m.checkpoint_bytes);
  return f;
}

// Everything in a rep that must repeat exactly: the serialized counters
// plus the simulated figures, at full precision.
std::string Signature(const JobResult& r) {
  const SimFigures f = SimFiguresOf(r);
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%.17g %.17g %.17g %.17g %.17g %.17g\n",
                f.running_s, f.first_output_s, f.progress_at_map_finish_pct,
                f.cpu_s, f.intermediate_mb, r.map_finish_time);
  return r.metrics.Serialize() + buf;
}

Fingerprint AnswerOf(const Workload& w, const std::vector<Record>& outputs) {
  Fingerprint f;
  for (const Record& r : outputs) f.Add(w.hash_output(r));
  return f;
}

// ---- the traced run ----

// In-memory span log: one span per layer call, with the span that caused
// it. Written out once the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int task;
    int parent;
    double start;
    double end;
  };

  int Open(const char* name, int task, int parent) {
    spans_.push_back({name, task, parent, Now(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) { spans_[static_cast<size_t>(id)].end = Now(); }

  double Total(std::string_view name) const {
    double t = 0;
    for (const Span& s : spans_) {
      if (name == s.name) t += s.end - s.start;
    }
    return t;
  }
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\tname\ttask\tstart_s\tend_s\n");
    const double t0 = spans_.empty() ? 0 : spans_.front().start;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%d\t%s\t%d\t%.9f\t%.9f\n", i, s.parent, s.name,
                   s.task, s.start - t0, s.end - t0);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

// The layer calls the traced run times, in pipeline order. Grouping spans
// ("job", "map_plane", "reduce_plane") are not layers; the traced wall
// minus the sum of these is the unattributed remainder.
constexpr const char* kLayerSpans[] = {
    "dfs.read",       "mr.map_task",    "mr.provisional_replay",
    "util.crc_verify", "storage.decode", "engine.consume",
    "storage.checkpoint", "engine.finish", "mr.replay",
};

struct TraceReport {
  SpanLog spans;
  JobMetrics map_metrics;     // merged over the traced map tasks
  JobMetrics reduce_metrics;  // merged over the traced reduce tasks
  // Records handed to GroupByEngine::Consume, counted at the call (not
  // every engine counts its own input).
  uint64_t consumed_records = 0;
  Fingerprint answer;
  std::vector<std::string> self_check_failures;
};

// Drives `spec` on one thread through each layer's public calls, the way
// LocalCluster::PrepareJob + RunJob do, with a span around every call.
// Deliveries are consumed in the order `job` (the untraced PreparedJob of
// the same job) recorded, and checkpoints are taken at its watermarks; the
// self-check compares the traced run's work against `job`'s.
Status TracedRun(const Workload& w, const ChunkStore& input,
                 const PreparedJob& job, TraceReport* rep) {
  const JobSpec& spec = w.spec;
  const JobConfig& config = job.config;
  const sim::FaultPlan& plan = job.plan;
  const ClusterConfig& cl = config.cluster;
  const int reducers = cl.nodes * config.reducers_per_node;
  const bool has_inc = static_cast<bool>(spec.inc);
  const UniversalHashFamily hashes(config.seed);
  const MapOutputMode mode = SelectMapOutputMode(config, has_inc);
  const bool values_are_states = ModeProducesStates(mode);
  auto fail = [rep](std::string what) {
    rep->self_check_failures.push_back(std::move(what));
  };
  SpanLog& log = rep->spans;
  const int root = log.Open("job", -1, -1);

  // Map plane: verified DFS read, then the map task.
  const size_t num_maps = input.chunks().size();
  ChunkReader reader(&input, config.integrity, &plan);
  std::vector<MapTaskOutput> map_outs(num_maps);
  const int map_plane = log.Open("map_plane", -1, root);
  for (size_t m = 0; m < num_maps; ++m) {
    const int task = static_cast<int>(m);
    ChunkReadStats read_stats;
    int span = log.Open("dfs.read", task, map_plane);
    Result<KvBuffer> records = reader.Read(task, &read_stats);
    log.Close(span);
    if (!records.ok()) return records.status();
    std::unique_ptr<Mapper> mapper = spec.mapper();
    std::unique_ptr<IncrementalReducer> inc = has_inc ? spec.inc() : nullptr;
    const MapRunner runner(config, mode, hashes.At(0), reducers, mapper.get(),
                           inc.get(), &plan, task);
    span = log.Open("mr.map_task", task, map_plane);
    Result<MapTaskOutput> out = runner.Run(records.value(), &read_stats);
    log.Close(span);
    if (!out.ok()) return out.status();
    map_outs[m] = std::move(out).value();
    rep->map_metrics.Merge(map_outs[m].metrics);
  }
  log.Close(map_plane);

  std::vector<CostTrace> map_traces(num_maps);
  std::vector<Replayer::MapTaskIn> map_ins(num_maps);
  for (size_t m = 0; m < num_maps; ++m) {
    map_traces[m] = std::move(map_outs[m].trace);
    Replayer::MapTaskIn& in = map_ins[m];
    const std::vector<int>& reps = reader.replicas(static_cast<int>(m));
    in.node = input.chunks()[m].node;
    in.replicas = reps;
    if (!reps.empty() &&
        std::find(reps.begin(), reps.end(), in.node) == reps.end()) {
      in.node = reps.front();
    }
    in.trace = &map_traces[m];
    in.num_pushes = static_cast<uint32_t>(map_outs[m].pushes.size());
    for (uint32_t p = 0; p < in.num_pushes; ++p) {
      in.gates[map_outs[m].pushes[p].gate_op] = p;
    }
  }

  // Provisional replay: its push-ready times fix the delivery order, which
  // must be the order the untraced job recorded.
  std::vector<std::pair<int, uint32_t>> order;
  {
    sim::Engine engine;
    SlotPool slots(&engine, cl);
    Replayer provisional(&engine, &slots, config, plan, map_ins, {}, {});
    const int span = log.Open("mr.provisional_replay", -1, root);
    const Status replayed = provisional.Run();
    log.Close(span);
    RETURN_IF_ERROR(replayed);
    std::vector<std::pair<double, std::pair<int, uint32_t>>> ready;
    for (size_t m = 0; m < num_maps; ++m) {
      for (uint32_t p = 0; p < map_ins[m].num_pushes; ++p) {
        ready.push_back({provisional.push_ready_time(static_cast<int>(m), p),
                         {static_cast<int>(m), p}});
      }
    }
    std::sort(ready.begin(), ready.end());
    for (const auto& [t, mp] : ready) order.push_back(mp);
  }

  // Reduce plane: CRC verify, decode, consume each delivery; checkpoint at
  // the job's watermarks; finish.
  std::vector<CostTrace> reduce_traces(static_cast<size_t>(reducers));
  std::vector<Replayer::ReduceTaskIn> reduce_ins(static_cast<size_t>(reducers));
  const int reduce_plane = log.Open("reduce_plane", -1, root);
  for (int r = 0; r < reducers; ++r) {
    const Replayer::ReduceTaskIn& want = job.reduce_ins[static_cast<size_t>(r)];
    bool order_ok = want.deliveries.size() == order.size();
    for (size_t i = 0; order_ok && i < order.size(); ++i) {
      order_ok = want.deliveries[i].map_task == order[i].first &&
                 want.deliveries[i].push == order[i].second;
    }
    if (!order_ok) {
      fail("reducer " + std::to_string(r) +
           ": traced delivery order differs from the job's");
    }
    TraceRecorder trace(&reduce_traces[static_cast<size_t>(r)]);
    JobMetrics metrics;
    std::vector<Record> outputs;
    std::unique_ptr<Reducer> reducer = spec.reducer ? spec.reducer() : nullptr;
    std::unique_ptr<IncrementalReducer> inc = has_inc ? spec.inc() : nullptr;
    OutputCollector out(&trace, &metrics, &outputs);
    EngineContext ctx;
    ctx.trace = &trace;
    ctx.metrics = &metrics;
    ctx.out = &out;
    ctx.config = &config;
    ctx.hashes = hashes;
    ctx.reducer = reducer.get();
    ctx.inc = inc.get();
    ctx.values_are_states = values_are_states;
    ctx.faults = &plan;
    ctx.integrity_owner = static_cast<uint64_t>(r) + 1;
    Result<std::unique_ptr<GroupByEngine>> created =
        CreateGroupByEngine(config.engine, ctx);
    if (!created.ok()) return created.status();
    GroupByEngine& engine = *created.value();

    std::vector<CheckpointMark> marks;
    for (size_t i = 0; i < want.deliveries.size(); ++i) {
      const DeliveryRef& d = want.deliveries[i];
      const PushSegment& push =
          map_outs[static_cast<size_t>(d.map_task)].pushes[d.push];
      const bool coded = !push.encoded.empty();
      const std::string* enc = coded ? &push.encoded[r] : nullptr;
      const KvBuffer* segment = coded ? nullptr : &push.partitions[r];
      const uint64_t wire = coded ? enc->size() : segment->bytes();
      if (wire != d.bytes) {
        fail("reducer " + std::to_string(r) + " delivery " +
             std::to_string(i) + ": traced segment bytes differ");
      }
      if (config.integrity.checksums && !push.crcs.empty()) {
        const int span = log.Open("util.crc_verify", r, reduce_plane);
        const uint32_t crc = coded ? Crc32c(*enc) : Crc32c(segment->data());
        log.Close(span);
        if (crc != push.crcs[r]) {
          return Status::Corruption("traced segment failed verification");
        }
        metrics.verify_bytes += wire;
        metrics.checksum_overhead_bytes +=
            FramedOverheadBytes(wire, config.integrity.block_bytes);
      }
      KvBuffer decoded;
      if (coded) {
        CodecStats dstats;
        const int span = log.Open("storage.decode", r, reduce_plane);
        Result<KvBuffer> dec = DecodeKvStream(*enc, &dstats);
        log.Close(span);
        if (!dec.ok()) return dec.status();
        decoded = std::move(dec).value();
        metrics.decompress_ns += dstats.decompress_ns;
        segment = &decoded;
      }
      trace.BeginSection();
      trace.Net(wire, OpTag::kShuffle, /*d_shuffle_bytes=*/wire);
      if (coded) {
        trace.Cpu(config.costs.decompress_byte_s *
                      static_cast<double>(segment->bytes()),
                  OpTag::kShuffle);
      }
      metrics.shuffle_bytes += wire;
      rep->consumed_records += segment->count();
      int span = log.Open("engine.consume", r, reduce_plane);
      const Status consumed = engine.Consume(
          *segment, map_outs[static_cast<size_t>(d.map_task)].sorted);
      log.Close(span);
      RETURN_IF_ERROR(consumed);

      if (marks.size() < want.checkpoints.size() &&
          want.checkpoints[marks.size()].watermark == i + 1) {
        CheckpointWriter writer;
        EncodedCheckpoint image;
        span = log.Open("storage.checkpoint", r, reduce_plane);
        const Status saved = engine.SaveCheckpoint(&writer);
        if (saved.ok()) {
          image = EncodeCheckpoint(writer.fields(), config.block_codec,
                                   config.codec_block_bytes,
                                   config.integrity.block_bytes);
        }
        log.Close(span);
        RETURN_IF_ERROR(saved);
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
        metrics.checkpoints_written += 1;
        metrics.checkpoint_bytes += image.framed.size();
        metrics.checkpoint_replica_bytes +=
            image.framed.size() * extra_replicas;
        CheckpointMark mark;
        mark.watermark = static_cast<uint32_t>(i + 1);
        mark.bytes = image.framed.size();
        mark.raw_bytes = image.raw_bytes;
        mark.gate_op = static_cast<uint32_t>(
                           reduce_traces[static_cast<size_t>(r)].ops.size()) -
                       1;
        if (mark.bytes != want.checkpoints[marks.size()].bytes) {
          fail("reducer " + std::to_string(r) + " checkpoint " +
               std::to_string(marks.size()) + ": traced image bytes differ");
        }
        marks.push_back(mark);
      }
    }
    if (marks.size() != want.checkpoints.size()) {
      fail("reducer " + std::to_string(r) +
           ": traced checkpoint count differs");
    }
    trace.BeginSection();
    const int span = log.Open("engine.finish", r, reduce_plane);
    const Status finished = engine.Finish();
    out.Flush();
    log.Close(span);
    RETURN_IF_ERROR(finished);

    for (const Record& rec : outputs) rep->answer.Add(w.hash_output(rec));
    rep->reduce_metrics.Merge(metrics);
    Replayer::ReduceTaskIn& in = reduce_ins[static_cast<size_t>(r)];
    in.node = r / config.reducers_per_node;
    in.trace = &reduce_traces[static_cast<size_t>(r)];
    in.deliveries = want.deliveries;
    in.checkpoints = std::move(marks);
  }
  log.Close(reduce_plane);

  // Full replay of the traced job's own traces.
  Replayer::Totals totals;
  for (const auto* traces : {&map_traces, &reduce_traces}) {
    for (const CostTrace& t : *traces) {
      for (const TraceOp& op : t.ops) {
        totals.shuffle_bytes += op.d_shuffle_bytes;
        totals.reduce_work += op.d_reduce_work;
        totals.output_bytes += op.d_output_bytes;
      }
    }
  }
  {
    sim::Engine engine;
    SlotPool slots(&engine, cl);
    Replayer replay(&engine, &slots, config, plan, map_ins, reduce_ins,
                    totals);
    const int span = log.Open("mr.replay", -1, root);
    const Status replayed = replay.Run();
    log.Close(span);
    RETURN_IF_ERROR(replayed);
  }
  log.Close(root);

  // Self-check: the traced run did the untraced job's own work.
  const JobMetrics& want = job.result.metrics;
  auto same = [&fail](const char* what, uint64_t got, uint64_t expect) {
    if (got != expect) {
      fail(std::string(what) + ": traced " + std::to_string(got) +
           " vs job " + std::to_string(expect));
    }
  };
  same("map output bytes", rep->map_metrics.map_output_bytes,
       want.map_output_bytes);
  same("reduce spill bytes", rep->reduce_metrics.reduce_spill_write_bytes,
       want.reduce_spill_write_bytes);
  same("output records", rep->reduce_metrics.output_records,
       want.output_records);
  return Status::OK();
}

// ---- metrics output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int attempted, int failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Resets the process's resident-memory high-water mark to its current
// resident size (Linux: "5" to /proc/self/clear_refs), so PeakRssMb()
// covers only what runs after the call.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

// The process's resident-memory high-water mark in MiB: VmHWM, which
// ResetPeakRss() resets, or ru_maxrss where /proc is missing.
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof(line), f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    }
    std::fclose(f);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The simulated-time ledger from the job's own traces: CPU seconds, disk
// and network bytes by operation tag.
void AddLedger(const PreparedJob& job, std::vector<Metric>* out) {
  std::map<OpTag, double> cpu;
  std::map<OpTag, uint64_t> disk;
  uint64_t net_shuffle = 0;
  for (const auto* traces : {&job.map_traces, &job.reduce_traces}) {
    for (const CostTrace& t : *traces) {
      for (const TraceOp& op : t.ops) {
        if (op.resource == OpResource::kCpu) cpu[op.tag] += op.cpu_s;
        if (op.resource == OpResource::kDisk) disk[op.tag] += op.bytes;
        if (op.resource == OpResource::kNet && op.tag == OpTag::kShuffle) {
          net_shuffle += op.bytes;
        }
      }
    }
  }
  const std::pair<const char*, OpTag> cpu_tags[] = {
      {"map_fn", OpTag::kMapFn},           {"sort", OpTag::kSort},
      {"map_merge", OpTag::kMapMerge},     {"combine", OpTag::kCombine},
      {"reduce_merge", OpTag::kReduceMerge}, {"reduce_fn", OpTag::kReduceFn},
      {"shuffle", OpTag::kShuffle},        {"checkpoint", OpTag::kCheckpoint}};
  for (const auto& [name, tag] : cpu_tags) {
    out->push_back({std::string("sim.cpu_s.") + name, cpu[tag], "sim_s"});
  }
  const std::pair<const char*, OpTag> disk_tags[] = {
      {"map_spill", OpTag::kMapSpill},
      {"map_output", OpTag::kMapOutput},
      {"reduce_spill", OpTag::kReduceSpill},
      {"checkpoint", OpTag::kCheckpoint}};
  for (const auto& [name, tag] : disk_tags) {
    out->push_back({std::string("sim.disk_mb.") + name, Mb(disk[tag]), "MiB"});
  }
  out->push_back({"sim.net_mb.shuffle", Mb(net_shuffle), "MiB"});
}

// Cluster-average percentage of a binned series over the job's running
// time (the last bin usually extends past the job's end).
double JobAveragePct(const sim::BinnedSeries& s, double running_s) {
  if (running_s <= 0) return 0;
  double sum = 0;
  for (double v : s.values) sum += v;
  return 100.0 * sum * s.bin_seconds / running_s;
}

// ---- options ----

struct Options {
  std::string workload;
  std::optional<uint64_t> seed;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string spans_out;
  std::string repro;
};

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      o->workload = val;
    } else if (key == "seed") {
      o->seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "seconds") {
      o->seconds = std::strtod(val.c_str(), &end);
    } else if (key == "trace") {
      o->trace = std::strtol(val.c_str(), &end, 10) != 0;
    } else if (key == "scale") {
      o->scale = std::strtod(val.c_str(), &end);
    } else if (key == "spans_out") {
      o->spans_out = val;
    } else if (key == "repro") {
      o->repro = val;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == val.c_str())) return false;
  }
  return o->seconds > 0 && o->scale > 0;
}

// ---- sort-merge + LZ output loss repro ----

// Sort-merge with the LZ codec and a map-side combiner drops trigram output
// once maps spill (ScaledDocs(0.5) spills at the 512 KB map buffer). The
// codec-free run of the same job is the control. Prints the reference key
// count and each run's missing keys; exits 0 either way.
int ReproSortMergeLz(double scale) {
  ChunkStore input(256 << 10, bench::PaperCluster().nodes);
  GenerateDocuments(bench::ScaledDocs(0.5 * scale), &input);
  std::set<std::string> expected;
  for (const auto& [key, count] : ReferenceTrigramCounts(input)) {
    if (count >= 50) expected.insert(key);
  }
  std::printf("reference trigrams with count >= 50: %zu\n", expected.size());
  for (BlockCodecKind codec : {BlockCodecKind::kNone, BlockCodecKind::kLz}) {
    JobConfig cfg = bench::ScaledJobConfig(EngineKind::kSortMerge);
    cfg.merge_factor = 32;
    cfg.expected_keys_per_reducer = 60'000;
    cfg.expected_bytes_per_reducer = 5 << 20;
    cfg.map_side_combine = true;
    cfg.block_codec = codec;
    cfg.collect_outputs = true;
    Result<JobResult> r = LocalCluster::RunJob(TrigramCountJob(50), cfg, input);
    if (!r.ok()) {
      std::printf("%s: job failed: %s\n",
                  codec == BlockCodecKind::kLz ? "lz" : "none",
                  r.status().ToString().c_str());
      continue;
    }
    std::set<std::string> got;
    for (const Record& rec : r->outputs) got.insert(rec.key);
    size_t missing = 0;
    for (const std::string& k : expected) missing += got.count(k) == 0;
    std::printf("codec=%-4s map spill MB=%.1f output keys=%zu missing=%zu\n",
                codec == BlockCodecKind::kLz ? "lz" : "none",
                Mb(r->metrics.map_spill_write_bytes), got.size(), missing);
  }
  return 0;
}

// ---- host-speed normalization ----

// A shared host's speed can swing by a quarter or more over minutes with
// the memory bandwidth other tenants leave it, far beyond any bound a gate
// could use (README.md, "Noise"). So every timed interval is bracketed by
// a bandwidth probe and rescaled to the probe's reference time:
//   seconds = raw seconds * kProbeReferenceS / probe seconds.
// The probe streams over a private buffer and runs no platform code, so a
// change to the platform still moves the rescaled time by its own factor.
// The reference is the probe's time on a quiet 4-vCPU Xeon VM.
constexpr double kProbeReferenceS = 0.020;

class HostProbe {
 public:
  // Two passes over 64 MiB: ~20 ms on the reference host.
  double Seconds() {
    const double t0 = Now();
    uint64_t sum = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (uint64_t v : buf_) sum += v;
    }
    sink_ = sum;
    return Now() - t0;
  }

  // The probe buffer, resident for the whole run.
  double Mib() const { return Mb(buf_.size() * sizeof(uint64_t)); }

  // Runs `fn`, returning its raw wall seconds in *raw, the mean of the
  // probes taken just before and after it in *probe, and the rescaled
  // seconds.
  template <typename F>
  double Time(F&& fn, double* raw, double* probe) {
    const double before = Seconds();
    const double t0 = Now();
    fn();
    *raw = Now() - t0;
    *probe = 0.5 * (before + Seconds());
    return *raw * kProbeReferenceS / *probe;
  }

 private:
  std::vector<uint64_t> buf_ = std::vector<uint64_t>((64u << 20) / 8, 1);
  volatile uint64_t sink_ = 0;
};

// ---- the benchmark ----

int Run(const Options& opt) {
  Workload w;
  if (!MakeWorkload(opt.workload, opt.seed, opt.scale, &w)) {
    std::fprintf(stderr, "unknown --workload=%s\n", opt.workload.c_str());
    return 2;
  }
  const int nodes = w.config.cluster.nodes;
  HostProbe host;

  // Set-up: generate the input into its ChunkStore. The first generation
  // is untimed; the input is generated again after every timed rep, so
  // setup_s (their median) samples the host over the whole run, as
  // job_wall_s does. The generators are deterministic, so each generation
  // is the same input; the answer check and the determinism guard of the
  // next rep would see one that is not.
  std::vector<double> setups, raw_setups, setup_probes;
  std::unique_ptr<ChunkStore> input;
  auto set_up = [&](bool timed) {
    input.reset();
    auto store = std::make_unique<ChunkStore>(w.config.chunk_bytes, nodes,
                                              w.replication);
    double raw = 0, probe = 0;
    const double s =
        host.Time([&] { w.generate(store.get()); }, &raw, &probe);
    input = std::move(store);
    if (timed) {
      setups.push_back(s);
      raw_setups.push_back(raw);
      setup_probes.push_back(probe);
    }
  };
  set_up(/*timed=*/false);
  const Fingerprint expected = w.expected(*input);
  // Plan k's job seed is the run's seed plus k golden-ratio steps, so plan
  // 0 keeps the run's own seed and runs with different seeds share none.
  std::vector<JobConfig> configs;
  const int plans = w.config.faults.any() ? kFaultPlans : 1;
  for (int k = 0; k < plans; ++k) {
    JobConfig cfg = w.config;
    if (cfg.faults.any()) {
      const uint64_t start =
          cfg.seed + static_cast<uint64_t>(k) * 0x9e3779b97f4a7c15ULL;
      cfg.seed = FirstReadableFaultSeed(cfg, *input, start);
    }
    configs.push_back(cfg);
  }
  std::fprintf(stderr, "workload %s: %zu maps, %.1f MiB input, job seed %llu",
               opt.workload.c_str(), input->chunks().size(),
               Mb(input->total_bytes()),
               static_cast<unsigned long long>(configs[0].seed));
  std::fprintf(stderr, plans > 1 ? " (+%d more fault plans)\n" : "\n",
               plans - 1);

  // peak_rss_mb covers the input store, its regenerations and the jobs
  // only: return the oracle's freed heap to the system, then restart the
  // high-water mark (the probe buffer is subtracted at the end).
  malloc_trim(0);
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "cannot reset the peak RSS; peak_rss_mb includes "
                         "the oracle\n");
  }

  // Closed loop: one warm-up rep, then timed reps until --seconds passed.
  int attempted = 0;
  int failed = 0;
  bool warm_up_ok = false;
  std::vector<std::string> signatures(static_cast<size_t>(plans));
  std::vector<SimFigures> plan_sims(static_cast<size_t>(plans));
  std::optional<JobResult> first;  // plan 0's first good rep, no outputs
  std::vector<double> walls, raw_walls, probes, map_planes, reduce_planes;
  auto rep = [&](bool timed, int k) {
    std::optional<Result<JobResult>> r;
    double raw = 0, probe = 0;
    const JobConfig& cfg = configs[static_cast<size_t>(k)];
    const double wall = host.Time(
        [&] { r.emplace(LocalCluster::RunJob(w.spec, cfg, *input)); }, &raw,
        &probe);
    bool ok = false;
    if (!r->ok()) {
      std::fprintf(stderr, "job failed: %s\n", r->status().ToString().c_str());
    } else if (!(AnswerOf(w, (*r)->outputs) == expected)) {
      std::fprintf(stderr, "wrong answer\n");
    } else {
      const std::string sig = Signature(**r);
      std::string& signature = signatures[static_cast<size_t>(k)];
      if (signature.empty()) {
        signature = sig;
        plan_sims[static_cast<size_t>(k)] = SimFiguresOf(**r);
      }
      ok = sig == signature;
      if (!ok) {
        std::fprintf(stderr, "determinism guard: rep differs from the first\n");
      }
    }
    if (!timed) {
      warm_up_ok = ok;
    } else {
      ++attempted;
      if (!ok) ++failed;
    }
    if (!ok) return;
    if (timed) {
      walls.push_back(wall);
      raw_walls.push_back(raw);
      probes.push_back(probe);
      map_planes.push_back((*r)->map_plane_wall_s);
      reduce_planes.push_back((*r)->reduce_plane_wall_s);
    }
    if (k == 0 && !first) {
      first = std::move(*r).value();
      first->outputs.clear();
      first->outputs.shrink_to_fit();
    }
  };
  rep(/*timed=*/false, 0);
  const double deadline = Now() + opt.seconds;
  do {
    rep(/*timed=*/true, attempted % plans);
    set_up(/*timed=*/true);
  } while (Now() < deadline || attempted < std::max(kMinReps, 2 * plans));
  bool correct = failed == 0 && warm_up_ok && first.has_value();
  std::fprintf(stderr, "%zu reps, raw s / probe s:", walls.size());
  for (size_t i = 0; i < walls.size(); ++i) {
    std::fprintf(stderr, " %.4f/%.4f", raw_walls[i], probes[i]);
  }
  std::fprintf(stderr, "\n%zu setups, raw s / probe s:", setups.size());
  for (size_t i = 0; i < setups.size(); ++i) {
    std::fprintf(stderr, " %.4f/%.4f", raw_setups[i], setup_probes[i]);
  }
  std::fprintf(stderr, "\n");

  std::vector<Metric> metrics;
  if (!opt.trace) {
    SimFigures sim;
    for (const SimFigures& f : plan_sims) {
      sim.running_s += f.running_s / plans;
      sim.first_output_s += f.first_output_s / plans;
      sim.progress_at_map_finish_pct += f.progress_at_map_finish_pct / plans;
      sim.cpu_s += f.cpu_s / plans;
      sim.intermediate_mb += f.intermediate_mb / plans;
    }
    metrics = {
        {"job_wall_s", Median(walls), "s"},
        {"setup_s", Median(setups), "s"},
        {"peak_rss_mb", PeakRssMb() - host.Mib(), "MiB"},
        {"sim_running_s", sim.running_s, "sim_s"},
        {"sim_first_output_s", sim.first_output_s, "sim_s"},
        {"sim_progress_at_map_finish_pct", sim.progress_at_map_finish_pct,
         "%"},
        {"sim_cpu_s", sim.cpu_s, "sim_s"},
        {"intermediate_mb", sim.intermediate_mb, "MiB"},
    };
    PrintResult(correct, attempted, failed, metrics);
    return 0;
  }

  // Traced run: the untraced PreparedJob supplies the job's delivery order
  // and watermarks, then the same job runs again under spans.
  TraceReport trace;
  Result<PreparedJob> job =
      LocalCluster::PrepareJob(w.spec, configs[0], *input);
  Status traced = job.ok() ? TracedRun(w, *input, job.value(), &trace)
                           : job.status();
  if (!traced.ok()) {
    std::fprintf(stderr, "traced run failed: %s\n",
                 traced.ToString().c_str());
    correct = false;
  } else if (!(trace.answer == expected)) {
    std::fprintf(stderr, "traced run: wrong answer\n");
    correct = false;
  }
  for (const std::string& f : trace.self_check_failures) {
    std::fprintf(stderr, "self-check: %s\n", f.c_str());
    correct = false;
  }
  if (!opt.spans_out.empty() && !trace.spans.Write(opt.spans_out)) {
    std::fprintf(stderr, "cannot write %s\n", opt.spans_out.c_str());
  }

  const SpanLog& spans = trace.spans;
  const double traced_wall = spans.Total("job");
  double attributed = 0;
  std::printf("traced run (1 thread), %.4f s wall:\n", traced_wall);
  for (const char* name : kLayerSpans) {
    const double t = spans.Total(name);
    attributed += t;
    std::printf("  %-24s %10.4f s %6.1f%%\n", name, t,
                traced_wall > 0 ? 100.0 * t / traced_wall : 0.0);
  }
  const double unattributed = traced_wall - attributed;
  std::printf("  %-24s %10.4f s %6.1f%%\n", "(unattributed)", unattributed,
              traced_wall > 0 ? 100.0 * unattributed / traced_wall : 0.0);
  std::printf("self-check: %s\n",
              trace.self_check_failures.empty() && traced.ok() ? "pass"
                                                               : "FAIL");

  const JobResult empty_result;
  const JobResult& res = first ? *first : empty_result;
  const JobMetrics& jm = res.metrics;
  const JobMetrics& tm = trace.map_metrics;
  const JobMetrics& tr = trace.reduce_metrics;
  const int threads = w.config.data_plane_threads;
  std::vector<double> serial;
  for (size_t i = 0; i < raw_walls.size(); ++i) {
    serial.push_back(raw_walls[i] - map_planes[i] - reduce_planes[i]);
  }
  auto efficiency = [threads](double traced_s, double plane_wall_s) {
    return plane_wall_s > 0 ? traced_s / (threads * plane_wall_s) : 0.0;
  };
  const uint64_t tasks =
      static_cast<uint64_t>(res.map_tasks + res.reduce_tasks);
  const uint64_t codec_raw =
      jm.codec_map_spill_raw_bytes + jm.codec_shuffle_raw_bytes +
      jm.codec_reduce_spill_raw_bytes + jm.codec_bucket_raw_bytes;
  const uint64_t codec_encoded =
      jm.codec_map_spill_encoded_bytes + jm.codec_shuffle_encoded_bytes +
      jm.codec_reduce_spill_encoded_bytes + jm.codec_bucket_encoded_bytes;
  metrics = {
      {"dfs.read_s", spans.Total("dfs.read"), "s"},
      {"dfs.quarantined_replicas",
       static_cast<double>(jm.quarantined_replicas), "count"},
      {"mr.map_task_s", spans.Total("mr.map_task"), "s"},
      {"mr.map_output_records", static_cast<double>(jm.map_output_records),
       "count"},
      {"mr.map_spill_mb", Mb(jm.map_spill_write_bytes), "MiB"},
      {"mr.provisional_replay_s", spans.Total("mr.provisional_replay"), "s"},
      {"mr.replay_s", spans.Total("mr.replay"), "s"},
      {"mr.serial_s", Median(serial), "s"},
      {"mr.map_plane_efficiency",
       efficiency(spans.Total("map_plane"), Median(map_planes)), "ratio"},
      {"mr.reduce_plane_efficiency",
       efficiency(spans.Total("reduce_plane"), Median(reduce_planes)),
       "ratio"},
      {"mr.attempts_per_task",
       tasks > 0 ? static_cast<double>(jm.map_task_attempts +
                                       jm.reduce_task_attempts) /
                       static_cast<double>(tasks)
                 : 0.0,
       "ratio"},
      {"mr.killed_attempts", static_cast<double>(jm.killed_attempts), "count"},
      {"mr.speculative_wins", static_cast<double>(jm.speculative_wins),
       "count"},
      {"mr.fetch_retries", static_cast<double>(jm.shuffle_fetch_retries),
       "count"},
      {"mr.checkpoints_restored", static_cast<double>(jm.checkpoints_restored),
       "count"},
      {"mr.wasted_cpu_s", jm.wasted_cpu_s, "sim_s"},
      {"mr.recovery_mb", Mb(jm.recovery_bytes), "MiB"},
      {"mr.shuffle_refetched_mb", Mb(jm.shuffle_refetched_bytes), "MiB"},
      {"util.crc_verify_s", spans.Total("util.crc_verify"), "s"},
      {"util.crc_verified_mb", Mb(jm.verify_bytes), "MiB"},
      {"storage.decode_s", spans.Total("storage.decode"), "s"},
      {"storage.checkpoint_s", spans.Total("storage.checkpoint"), "s"},
      {"storage.compress_s", (tm.compress_ns + tr.compress_ns) * 1e-9, "s"},
      {"storage.decompress_s", (tm.decompress_ns + tr.decompress_ns) * 1e-9,
       "s"},
      {"storage.codec_ratio",
       codec_encoded > 0 ? static_cast<double>(codec_raw) /
                               static_cast<double>(codec_encoded)
                         : 1.0,
       "ratio"},
      {"storage.checkpoint_mb", Mb(jm.checkpoint_bytes), "MiB"},
      {"engine.consume_s", spans.Total("engine.consume"), "s"},
      {"engine.finish_s", spans.Total("engine.finish"), "s"},
      {"engine.reduce_input_records",
       static_cast<double>(trace.consumed_records), "count"},
      {"engine.output_records", static_cast<double>(tr.output_records),
       "count"},
      {"engine.spill_mb", Mb(tr.reduce_spill_write_bytes), "MiB"},
      {"engine.hash_probes_per_record",
       trace.consumed_records > 0
           ? static_cast<double>(tr.hash_table_probes) /
                 static_cast<double>(trace.consumed_records)
           : 0.0,
       "ratio"},
  };
  if (job.ok()) AddLedger(job.value(), &metrics);
  metrics.push_back({"sim.cpu_util_pct",
                     JobAveragePct(res.cpu_util, res.running_time), "%"});
  metrics.push_back({"sim.iowait_pct",
                     JobAveragePct(res.iowait, res.running_time), "%"});
  metrics.push_back({"host.job_wall_raw_s", Median(raw_walls), "s"});
  metrics.push_back({"host.probe_s", Median(probes), "s"});
  metrics.push_back({"trace.wall_s", traced_wall, "s"});
  metrics.push_back({"trace.unattributed_s", unattributed, "s"});
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace onepass::perfbench

int main(int argc, char** argv) {
  using namespace onepass::perfbench;
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=NAME [--seed=N] [--seconds=S]"
                 " [--trace=0|1] [--scale=F] [--spans_out=PATH]\n"
                 "       perfbench --repro=sm_lz_trigrams [--scale=F]\n");
    return 2;
  }
  if (!opt.repro.empty()) {
    if (opt.repro != "sm_lz_trigrams") {
      std::fprintf(stderr, "unknown --repro=%s\n", opt.repro.c_str());
      return 2;
    }
    return ReproSortMergeLz(opt.scale);
  }
  return Run(opt);
}
