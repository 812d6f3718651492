// Shared configuration and formatting for the table/figure reproduction
// harnesses.
//
// The paper's testbed is a 10-node cluster (4 cores, 8 GB, HDD+SSD per
// node) processing 97-508 GB. We reproduce every experiment at ~1/1000
// scale on the simulated cluster: same node count, same slot counts, same
// *ratios* of data to memory (which is what determines spills, merge
// passes, and progress shapes). EXPERIMENTS.md records the paper-vs-
// measured comparison for each table and figure.

#ifndef ONEPASS_BENCH_BENCH_COMMON_H_
#define ONEPASS_BENCH_BENCH_COMMON_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/mr/cluster.h"
#include "src/mr/config.h"
#include "src/util/simd_dispatch.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/documents.h"

namespace onepass::bench {

// Reentrancy note (DESIGN.md §5.3): everything in this header is either a
// pure function or returns a fresh value object — no static buffers, no
// shared mutable state — so the helpers are safe to call from jobs whose
// data plane runs multi-threaded. Keep it that way: per-task state
// belongs in per-task instances, never in file-scope variables here.

// ---- command-line helpers ----

struct Flags {
  double scale = 1.0;  // multiplies workload size
  std::string plot;  // for bench_fig7: which subplot
  bool ssd = false;
  bool hop = false;
  bool util = false;
  // Data-plane threads (JobConfig::data_plane_threads): 0 = one per
  // hardware thread, 1 = sequential. Results are byte-identical either
  // way; only wall-clock changes.
  int threads = 0;
  // Block codec for spill/shuffle/bucket streams: "none" (default) or
  // "lz" (JobConfig::block_codec = kLz).
  std::string codec = "none";
  // Batch data plane (DESIGN.md §5.8). --simd=scalar pins the
  // process-wide SIMD tier to kScalar (SetSimdTier), so the hash and
  // CRC32C kernels skip the hardware paths; --simd=auto (default) uses
  // the detected tier.
  std::string simd = "auto";
  // Resident shuffle engine (DESIGN.md §5.9). --iterations=N is
  // bench_iterative's chain length (stages per RunJobChain; not a
  // JobConfig field), at least 2 so the chain has a warm iteration;
  // --shuffle_mode=disk|resident sets JobConfig::shuffle_mode.
  int iterations = 5;
  std::string shuffle_mode = "disk";
  // Node combine tier (DESIGN.md §5.10). --combine_scope=task|node sets
  // JobConfig::combine_scope; --node_combine_budget=N bytes bounds one
  // node's combine tier (0 = unbounded; shards over their share degrade
  // to the FREQUENT sketch).
  std::string combine_scope = "task";
  uint64_t node_combine_budget = 0;
};

namespace detail {
// Data-plane defaults recorded by ParseFlags (write-once in main) so
// every bench's ScaledJobConfig picks up --threads/--codec and the other
// data-plane flags without each helper threading a Flags parameter through.
inline Flags& DataPlaneDefaults() {
  static Flags defaults;
  return defaults;
}

// Parses all of `text` as a T: false when it is empty, has trailing
// bytes, carries a sign an unsigned T cannot take, or overflows.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

inline bool OneOf(const std::string& value,
                  std::initializer_list<const char*> names) {
  for (const char* n : names) {
    if (value == n) return true;
  }
  return false;
}
}  // namespace detail

inline constexpr const char* kFlagsUsage =
    "[--scale=F] [--threads=N] [--codec=none|lz] [--simd=auto|scalar] "
    "[--iterations=N] [--shuffle_mode=disk|resident] "
    "[--combine_scope=task|node] [--node_combine_budget=N] [--ssd] [--hop] "
    "[--util] [--plot NAME]";

// Parses the shared bench flags into `flags`, which keeps its defaults
// for flags not given. Rejects an unknown flag, a number that does not
// parse completely, --scale <= 0 (or not finite), a negative --threads,
// --iterations < 2, and an unknown --codec, --simd, --shuffle_mode or
// --combine_scope value.
inline Status ParseFlagsInto(int argc, const char* const* argv,
                             Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    bool number_ok = true;
    if (arg == "--ssd") {
      flags->ssd = true;
    } else if (arg == "--hop") {
      flags->hop = true;
    } else if (arg == "--util") {
      flags->util = true;
    } else if (arg == "--plot") {
      if (i + 1 >= argc) return Status::InvalidArgument("--plot needs a name");
      flags->plot = argv[++i];
    } else if (eq == std::string::npos) {
      return Status::InvalidArgument("unknown flag " + arg);
    } else if (name == "--plot") {
      flags->plot = value;
    } else if (name == "--scale") {
      number_ok = detail::ParseNumber(value, &flags->scale);
    } else if (name == "--threads") {
      number_ok = detail::ParseNumber(value, &flags->threads);
    } else if (name == "--iterations") {
      number_ok = detail::ParseNumber(value, &flags->iterations);
    } else if (name == "--node_combine_budget") {
      number_ok = detail::ParseNumber(value, &flags->node_combine_budget);
    } else if (name == "--codec") {
      flags->codec = value;
    } else if (name == "--simd") {
      flags->simd = value;
    } else if (name == "--shuffle_mode") {
      flags->shuffle_mode = value;
    } else if (name == "--combine_scope") {
      flags->combine_scope = value;
    } else {
      return Status::InvalidArgument("unknown flag " + arg);
    }
    if (!number_ok) return Status::InvalidArgument("not a number: " + arg);
  }
  if (!std::isfinite(flags->scale) || flags->scale <= 0) {
    return Status::InvalidArgument("--scale must be > 0");
  }
  if (flags->threads < 0) {
    return Status::InvalidArgument("--threads must be >= 0");
  }
  if (flags->iterations < 2) {
    return Status::InvalidArgument("--iterations must be >= 2");
  }
  if (!detail::OneOf(flags->codec, {"none", "lz"})) {
    return Status::InvalidArgument("unknown --codec=" + flags->codec);
  }
  if (!detail::OneOf(flags->simd, {"auto", "scalar"})) {
    return Status::InvalidArgument("unknown --simd=" + flags->simd);
  }
  if (!detail::OneOf(flags->shuffle_mode, {"disk", "resident"})) {
    return Status::InvalidArgument("unknown --shuffle_mode=" +
                                   flags->shuffle_mode);
  }
  if (!detail::OneOf(flags->combine_scope, {"task", "node"})) {
    return Status::InvalidArgument("unknown --combine_scope=" +
                                   flags->combine_scope);
  }
  return Status::OK();
}

// Parses the flags for a bench's main: on a bad command line prints the
// error and a usage line to stderr and exits 2. Applies --simd and
// records the data-plane defaults.
inline Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  const Status s = ParseFlagsInto(argc, argv, &flags);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\nusage: %s %s\n", s.ToString().c_str(),
                 argv[0], kFlagsUsage);
    std::exit(2);
  }
  if (flags.simd == "scalar") SetSimdTier(SimdTier::kScalar);
  detail::DataPlaneDefaults() = flags;
  return flags;
}

// Resolve the validated --codec/--combine_scope/--shuffle_mode names to
// their config enums.
inline BlockCodecKind CodecFromFlag(const std::string& name) {
  return name == "lz" ? BlockCodecKind::kLz : BlockCodecKind::kNone;
}

inline CombineScope CombineScopeFromFlag(const std::string& name) {
  return name == "node" ? CombineScope::kNode : CombineScope::kTask;
}

inline ShuffleMode ShuffleModeFromFlag(const std::string& name) {
  return name == "resident" ? ShuffleMode::kResident : ShuffleMode::kDisk;
}

// Applies the data-plane flags (--threads/--codec/--shuffle_mode/
// --combine_scope/--node_combine_budget) to a job config.
// Every bench routes its config through here so the whole suite exposes
// the same knobs.
inline void ApplyDataPlaneFlags(const Flags& flags, JobConfig* cfg) {
  cfg->data_plane_threads = flags.threads;
  cfg->block_codec = CodecFromFlag(flags.codec);
  cfg->shuffle_mode = ShuffleModeFromFlag(flags.shuffle_mode);
  cfg->combine_scope = CombineScopeFromFlag(flags.combine_scope);
  cfg->node_combine_budget_bytes = flags.node_combine_budget;
}

// Headline throughput metric for the vectorized data plane: input tuples
// per second per core of simulated work (map input records over the
// simulated busy CPU time would need per-phase attribution, so we report
// records / wall seconds / cores as the comparable cross-run figure).
inline double TuplesPerSecPerCore(uint64_t records, double wall_s,
                                  int cores) {
  if (wall_s <= 0 || cores <= 0) return 0.0;
  return static_cast<double>(records) / wall_s / cores;
}

inline std::string Tpsc(uint64_t records, double wall_s, int cores) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.0f tuples/s/core",
                TuplesPerSecPerCore(records, wall_s, cores));
  return buf;
}

// ---- the scaled paper cluster ----

inline ClusterConfig PaperCluster() {
  ClusterConfig cl;
  cl.nodes = 10;
  cl.cores_per_node = 4;
  cl.map_slots = 4;
  cl.reduce_slots = 4;
  return cl;
}

// Baseline job configuration at 1/1000 of the paper's memory sizes:
// B_m ~ 140 MB -> 512 KB padded a bit, B_r ~ 260-500 MB -> 384 KB, chunk
// 64 MB -> 256 KB. The ratios data/buffer match the paper's regime.
inline JobConfig ScaledJobConfig(EngineKind engine) {
  JobConfig cfg;
  cfg.cluster = PaperCluster();
  cfg.engine = engine;
  cfg.chunk_bytes = 256 << 10;
  cfg.map_buffer_bytes = 512 << 10;
  cfg.reduce_memory_bytes = 512 << 10;
  cfg.merge_factor = 10;
  cfg.reducers_per_node = 4;
  cfg.bucket_page_bytes = 32 << 10;  // engines clamp to memory/(2h)
  cfg.timeline_bin_s = 2.0;
  // CPU constants are calibrated so the map phase is CPU-bound with the
  // sort roughly doubling map CPU (the paper's Fig. 2(b) regime: CPUs
  // saturated during the map phase, and Table 3's 936 s -> 566 s map-CPU
  // drop when the sort is eliminated). They model Hadoop-era per-record
  // overheads, not a tuned C++ inner loop.
  cfg.costs.map_fn_byte_s = 50e-9;
  cfg.costs.reduce_fn_byte_s = 20e-9;
  cfg.costs.sort_cmp_s = 400e-9;
  cfg.costs.hash_record_s = 50e-9;
  cfg.costs.combine_record_s = 30e-9;
  cfg.costs.merge_record_s = 100e-9;
  // Per-event overheads must shrink with the 1/1000 data scale or they
  // would dominate: task startup 100 ms -> 10 ms, seek 4 ms -> 0.4 ms.
  // This keeps startup ~5-10% of map time at the recommended chunk size
  // and seeks ~25% of spill I/O time — the paper's regime.
  cfg.costs.task_start_s = 0.010;
  cfg.costs.disk_seek_s = 0.4e-3;
  cfg.costs.map_output_retention_s = 0.1;
  ApplyDataPlaneFlags(detail::DataPlaneDefaults(), &cfg);
  return cfg;
}

// Scaled config with the data-plane flags applied — the form every bench
// should prefer so --threads/--codec and the rest reach every run.
inline JobConfig ScaledJobConfig(EngineKind engine, const Flags& flags) {
  JobConfig cfg = ScaledJobConfig(engine);
  ApplyDataPlaneFlags(flags, &cfg);
  return cfg;
}

// The click stream at ~1/1000 of 236 GB: ~96 MB, ~1.3M clicks, with skew
// and session dynamics that put INC-hash's memory in the paper's regime.
inline ClickStreamConfig ScaledClicks(double scale = 1.0) {
  ClickStreamConfig c;
  c.num_clicks = static_cast<uint64_t>(1'300'000 * scale);
  c.num_users = static_cast<uint64_t>(48'000 * scale);
  c.num_urls = 5'000;
  // Mild user skew, like a real web log: the hottest user gets ~0.2% of
  // all clicks (so a single user's data fits a reducer's memory, as in
  // the paper), while the distinct key-state space slightly exceeds the
  // reduce memory — §6.1's "small key-state space" regime.
  c.user_skew = 0.5;
  c.url_skew = 1.1;
  // ~36 simulated hours of stream: sessions expire constantly.
  c.clicks_per_second = static_cast<double>(c.num_clicks) / 130'000.0;
  c.record_bytes = 64;
  c.seed = 20110613;
  return c;
}

// The document corpus at ~1/1000 of GOV2's 156 GB: ~48 MB.
inline DocumentCorpusConfig ScaledDocs(double scale = 1.0) {
  DocumentCorpusConfig d;
  d.num_records = static_cast<uint64_t>(220'000 * scale);
  d.words_per_record = 20;
  // Word skew tuned so a 256 KB chunk repeats trigrams roughly the way a
  // 64 MB GOV2 block does: the combiner bites but substantial
  // intermediate data remains (trigram spaces are only mildly skewed).
  d.vocabulary = 40'000;
  d.word_skew = 1.0;
  d.seed = 20110614;
  return d;
}

// ---- formatting ----

inline std::string Mb(uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", bytes / (1024.0 * 1024.0));
  return buf;
}

inline std::string Secs(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", s);
  return buf;
}

inline void PrintRow(const char* label, const std::string& a,
                     const std::string& b, const std::string& c) {
  std::printf("%-28s %14s %14s %14s\n", label, a.c_str(), b.c_str(),
              c.c_str());
}

// Renders a set of progress curves sampled at `rows` uniform times.
inline void PrintProgress(const std::vector<std::string>& names,
                          const std::vector<sim::StepSeries>& series,
                          int rows = 25) {
  std::printf("%s",
              sim::RenderSeriesTable(names, series, rows).c_str());
}

inline Result<JobResult> MustRun(const JobSpec& spec, const JobConfig& cfg,
                                 const ChunkStore& input) {
  auto r = LocalCluster::RunJob(spec, cfg, input);
  if (!r.ok()) {
    std::fprintf(stderr, "job failed: %s\n", r.status().ToString().c_str());
  }
  return r;
}

// ---- answer checks ----

// True when a click-count job's output sums, per key, to the reference
// counts (ReferenceClickCounts).
inline bool MatchesReference(const JobResult& result,
                             const std::map<std::string, uint64_t>& expected) {
  std::map<std::string, uint64_t> got;
  for (const Record& rec : result.outputs) {
    got[rec.key] += std::stoull(rec.value);
  }
  return got == expected;
}

// A row's yes/NO reference cell. A NO also clears `*all_ok`, which the
// bench turns into exit status 1.
inline const char* YesNo(bool ok, bool* all_ok) {
  if (!ok) *all_ok = false;
  return ok ? "yes" : "NO";
}

}  // namespace onepass::bench

#endif  // ONEPASS_BENCH_BENCH_COMMON_H_
