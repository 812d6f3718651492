// Job metrics: measured byte counts (the five I/O types of Table 2),
// work counters, and CPU attribution.
//
// These are *measured* on the data plane — every spilled page, merged run,
// and output block increments them as real bytes move — and reported by the
// bench harnesses for Tables 1, 3, and 4.

#ifndef ONEPASS_MR_METRICS_H_
#define ONEPASS_MR_METRICS_H_

#include <cstdint>
#include <span>
#include <string>

namespace onepass {

struct JobMetrics {
  // --- Bytes (Table 2's U components; written and read tracked apart) ---
  uint64_t map_input_bytes = 0;        // U1
  uint64_t map_spill_write_bytes = 0;  // U2 (writes)
  uint64_t map_spill_read_bytes = 0;   // U2 (reads)
  uint64_t map_output_bytes = 0;       // U3
  uint64_t shuffle_bytes = 0;          // network traffic (== U3 in total)
  uint64_t reduce_spill_write_bytes = 0;  // U4 (writes)
  uint64_t reduce_spill_read_bytes = 0;   // U4 (reads)
  uint64_t reduce_output_bytes = 0;    // U5

  // --- Record / work counters ---
  uint64_t map_input_records = 0;
  uint64_t map_output_records = 0;
  uint64_t reduce_input_records = 0;
  uint64_t combine_invocations = 0;   // reduce-side state updates
  uint64_t reduce_groups = 0;         // keys fed to reduce()/finalize()
  uint64_t output_records = 0;
  uint64_t early_output_records = 0;  // emitted before end of input
  uint64_t snapshot_bytes = 0;        // HOP-style snapshot output volume
  uint64_t snapshot_count = 0;

  // --- Fault tolerance / recovery (time plane, from the Replayer) ---
  uint64_t map_task_attempts = 0;     // attempts started (>= map tasks)
  uint64_t reduce_task_attempts = 0;  // attempts started (>= reduce tasks)
  uint64_t killed_attempts = 0;       // crash kills + speculation losers
  // Attempts evicted by the multi-tenant slot arbiter (DESIGN.md §5.7) to
  // free a slot for a starved tenant. Unlike kills, preemptions do not
  // consume the task's attempt budget; the task requeues. Always 0 in a
  // solo RunJob (no other tenant to preempt for).
  uint64_t preempted_attempts = 0;
  uint64_t speculative_attempts = 0;  // backup attempts launched
  uint64_t speculative_wins = 0;      // backups that finished first
  uint64_t lost_map_outputs = 0;      // completed maps re-run (lost output)
  uint64_t node_crashes = 0;
  uint64_t shuffle_fetch_retries = 0;  // transient fetch failures retried
  uint64_t disk_read_retries = 0;      // transient disk errors retried
  // Bytes of disk/network work done by attempts that were later killed —
  // I/O the cluster must redo. Sort-merge recovery is dominated by this
  // (spilled runs are replayed); INC/DINC recovery by wasted_cpu_s
  // (hash state is rebuilt from the re-fetched stream).
  uint64_t recovery_bytes = 0;
  double wasted_cpu_s = 0;  // CPU seconds burned by killed attempts

  // --- Data integrity (checksummed I/O; DESIGN.md §5.2) ---
  uint64_t verify_bytes = 0;  // payload bytes CRC-verified at read time
  uint64_t checksum_overhead_bytes = 0;  // framing headers on those bytes
  uint64_t corruptions_detected = 0;   // checksum/length verify failures
  uint64_t torn_writes_detected = 0;   //   ...of which truncated streams
  uint64_t corruptions_recovered = 0;  // healed via replica / re-execution
                                       // / rebuild (== detected unless the
                                       // job died with kCorruption)
  uint64_t quarantined_replicas = 0;   // DFS chunk copies taken out of use
  uint64_t rereplicated_bytes = 0;     // DFS re-replication traffic
  // Extra I/O spent recovering from corruption (replica re-reads, bucket
  // and run rebuilds, shuffle re-fetches), charged through the cost model.
  uint64_t corruption_recovery_bytes = 0;

  // --- Reduce-state checkpointing (DESIGN.md §5.6) ---
  uint64_t checkpoints_written = 0;   // durable checkpoints recorded
  uint64_t checkpoint_bytes = 0;      // encoded+framed primary bytes
  uint64_t checkpoint_replica_bytes = 0;  // replication traffic (repl - 1)
  uint64_t checkpoints_restored = 0;  // reattempts resumed from a replica
  uint64_t checkpoint_restore_bytes = 0;  // replica bytes read on restore
  uint64_t checkpoint_corrupt_replicas = 0;  // replicas rejected by verify
  uint64_t checkpoint_full_replays = 0;  // reattempts with no usable replica
  uint64_t checkpoint_segments_skipped = 0;  // deliveries below watermark
  uint64_t checkpoint_skipped_bytes = 0;  // their segment bytes, not re-fetched
  // Shuffle fetch bytes moved by reduce attempt > 0 (re-fetched work); the
  // checkpoint bench's >= 3x recovery-work assertion compares this.
  uint64_t shuffle_refetched_bytes = 0;

  // --- Resident shuffle (DESIGN.md §5.9) ---
  // Push segments published to their producer's memory, counted at
  // publish time.
  uint64_t resident_publish_segments = 0;
  uint64_t resident_publish_bytes = 0;
  // Shuffle fetch bytes served from resident segments (vs. the retention-
  // window disk re-reads they avoid), and segments lost to node crashes
  // (re-materialized through ordinary map re-execution).
  uint64_t resident_hit_bytes = 0;
  uint64_t resident_invalidated_segments = 0;
  uint64_t resident_invalidated_bytes = 0;
  // Chain state carry-over: reducers that adopted a prior iteration's
  // engine state instead of starting cold, and the state bytes moved at
  // save/adopt time.
  uint64_t resident_state_restores = 0;
  uint64_t resident_state_restored_bytes = 0;
  uint64_t resident_state_saved_bytes = 0;
  // Map input bytes served from the M3R-style input cache (iteration re-
  // reading the previous iteration's chunk store on the same nodes).
  uint64_t resident_cached_input_bytes = 0;

  // --- Node combine tier (DESIGN.md §5.10) ---
  // Records/bytes fed into the node-scope combiner by co-located map
  // tasks, and what came out as combined pushes. All zero under
  // combine_scope == kTask (the tier never runs). The input/output ratio
  // is the tier's collapse factor, multiplicative with the codec's.
  uint64_t node_combine_input_records = 0;
  uint64_t node_combine_input_bytes = 0;
  uint64_t node_combine_output_records = 0;
  uint64_t node_combine_output_bytes = 0;
  uint64_t node_combine_tasks = 0;  // virtual node-barrier combine tasks
  // Records that bypassed the combiner uncombined because the shard had
  // degraded to the FREQUENT-sketch under node_combine_budget_bytes, and
  // how many (node, partition) shards degraded.
  uint64_t node_combine_passthrough_records = 0;
  uint64_t node_combine_sketch_shards = 0;

  // --- Block codec (DESIGN.md §5.5) ---
  // Raw (KvBuffer-serialized) vs encoded (block-stream) bytes per stream
  // kind. All zero under block_codec == kNone (the encoder never runs).
  uint64_t codec_map_spill_raw_bytes = 0;    // sorted map spill runs
  uint64_t codec_map_spill_encoded_bytes = 0;
  uint64_t codec_shuffle_raw_bytes = 0;      // map output / shuffle segments
  uint64_t codec_shuffle_encoded_bytes = 0;
  uint64_t codec_reduce_spill_raw_bytes = 0;  // reduce-side sorted runs
  uint64_t codec_reduce_spill_encoded_bytes = 0;
  uint64_t codec_bucket_raw_bytes = 0;       // hash-engine bucket files
  uint64_t codec_bucket_encoded_bytes = 0;
  // Host wall-clock spent in the codec. These are real (non-simulated)
  // nanoseconds, so they vary run to run and across thread counts; they
  // feed throughput reporting only and are deliberately EXCLUDED from
  // Serialize() (goldens and determinism tests must not see them).
  double compress_ns = 0;
  double decompress_ns = 0;

  // --- Hash core (FlatTable; DESIGN.md §5.4) ---
  // Counters from every FlatTable the job's tasks ran: engine state
  // tables, bucket-pass tables, sketch indexes, map-side combiners.
  uint64_t hash_table_probes = 0;    // control slots inspected
  uint64_t hash_table_rehashes = 0;  // capacity doublings
  uint64_t hash_table_max_probe = 0;  // longest chain (Merge takes the max)
  uint64_t hash_arena_bytes = 0;  // peak arena bytes, summed over tables

  // One row of the counter table in metrics.cc: a counter's serialized
  // name, its member (exactly one of `u64`/`f64` is set), how Merge
  // combines it and whether Serialize prints it. The table has one row
  // per field above, in declaration order, and Merge and Serialize only
  // walk it, so a new counter is its declaration plus one row (the build
  // fails while the two disagree in number).
  struct Field {
    enum Rule : uint8_t { kSum, kMax };
    constexpr Field(const char* n, uint64_t JobMetrics::*m, Rule r = kSum,
                    bool printed = true)
        : name(n), u64(m), merge(r), serialized(printed) {}
    constexpr Field(const char* n, double JobMetrics::*m, Rule r = kSum,
                    bool printed = true)
        : name(n), f64(m), merge(r), serialized(printed) {}
    const char* name;
    uint64_t JobMetrics::*u64 = nullptr;
    double JobMetrics::*f64 = nullptr;
    Rule merge = kSum;
    bool serialized = true;
  };
  static std::span<const Field> Fields();

  void Merge(const JobMetrics& o);

  // Stable "name=value" serialization of every printed field, one per line, in
  // declaration order. Golden-snapshot tests diff this against checked-in
  // files so accidental schedule or accounting drift fails loudly, and
  // determinism tests compare it across data_plane_threads settings.
  // Doubles print with %.9g: wide enough that any real accounting change
  // shows, narrow enough to absorb last-ulp noise from different compiler
  // optimization levels (goldens are shared across -O0 sanitizer builds
  // and -O2 release builds).
  std::string Serialize() const;
};

}  // namespace onepass

#endif  // ONEPASS_MR_METRICS_H_
