#include "src/mr/metrics.h"

#include <cstdio>

namespace onepass {

void JobMetrics::Merge(const JobMetrics& o) {
  map_input_bytes += o.map_input_bytes;
  map_spill_write_bytes += o.map_spill_write_bytes;
  map_spill_read_bytes += o.map_spill_read_bytes;
  map_output_bytes += o.map_output_bytes;
  shuffle_bytes += o.shuffle_bytes;
  reduce_spill_write_bytes += o.reduce_spill_write_bytes;
  reduce_spill_read_bytes += o.reduce_spill_read_bytes;
  reduce_output_bytes += o.reduce_output_bytes;
  map_input_records += o.map_input_records;
  map_output_records += o.map_output_records;
  reduce_input_records += o.reduce_input_records;
  combine_invocations += o.combine_invocations;
  reduce_groups += o.reduce_groups;
  output_records += o.output_records;
  early_output_records += o.early_output_records;
  snapshot_bytes += o.snapshot_bytes;
  snapshot_count += o.snapshot_count;
  map_task_attempts += o.map_task_attempts;
  reduce_task_attempts += o.reduce_task_attempts;
  killed_attempts += o.killed_attempts;
  preempted_attempts += o.preempted_attempts;
  speculative_attempts += o.speculative_attempts;
  speculative_wins += o.speculative_wins;
  lost_map_outputs += o.lost_map_outputs;
  node_crashes += o.node_crashes;
  shuffle_fetch_retries += o.shuffle_fetch_retries;
  disk_read_retries += o.disk_read_retries;
  recovery_bytes += o.recovery_bytes;
  wasted_cpu_s += o.wasted_cpu_s;
  verify_bytes += o.verify_bytes;
  checksum_overhead_bytes += o.checksum_overhead_bytes;
  corruptions_detected += o.corruptions_detected;
  torn_writes_detected += o.torn_writes_detected;
  corruptions_recovered += o.corruptions_recovered;
  quarantined_replicas += o.quarantined_replicas;
  rereplicated_bytes += o.rereplicated_bytes;
  corruption_recovery_bytes += o.corruption_recovery_bytes;
  checkpoints_written += o.checkpoints_written;
  checkpoint_bytes += o.checkpoint_bytes;
  checkpoint_replica_bytes += o.checkpoint_replica_bytes;
  checkpoints_restored += o.checkpoints_restored;
  checkpoint_restore_bytes += o.checkpoint_restore_bytes;
  checkpoint_corrupt_replicas += o.checkpoint_corrupt_replicas;
  checkpoint_full_replays += o.checkpoint_full_replays;
  checkpoint_segments_skipped += o.checkpoint_segments_skipped;
  checkpoint_skipped_bytes += o.checkpoint_skipped_bytes;
  shuffle_refetched_bytes += o.shuffle_refetched_bytes;
  resident_publish_segments += o.resident_publish_segments;
  resident_publish_bytes += o.resident_publish_bytes;
  resident_hit_bytes += o.resident_hit_bytes;
  resident_invalidated_segments += o.resident_invalidated_segments;
  resident_invalidated_bytes += o.resident_invalidated_bytes;
  resident_state_restores += o.resident_state_restores;
  resident_state_restored_bytes += o.resident_state_restored_bytes;
  resident_state_saved_bytes += o.resident_state_saved_bytes;
  resident_cached_input_bytes += o.resident_cached_input_bytes;
  node_combine_input_records += o.node_combine_input_records;
  node_combine_input_bytes += o.node_combine_input_bytes;
  node_combine_output_records += o.node_combine_output_records;
  node_combine_output_bytes += o.node_combine_output_bytes;
  node_combine_tasks += o.node_combine_tasks;
  node_combine_passthrough_records += o.node_combine_passthrough_records;
  node_combine_sketch_shards += o.node_combine_sketch_shards;
  codec_map_spill_raw_bytes += o.codec_map_spill_raw_bytes;
  codec_map_spill_encoded_bytes += o.codec_map_spill_encoded_bytes;
  codec_shuffle_raw_bytes += o.codec_shuffle_raw_bytes;
  codec_shuffle_encoded_bytes += o.codec_shuffle_encoded_bytes;
  codec_reduce_spill_raw_bytes += o.codec_reduce_spill_raw_bytes;
  codec_reduce_spill_encoded_bytes += o.codec_reduce_spill_encoded_bytes;
  codec_bucket_raw_bytes += o.codec_bucket_raw_bytes;
  codec_bucket_encoded_bytes += o.codec_bucket_encoded_bytes;
  compress_ns += o.compress_ns;
  decompress_ns += o.decompress_ns;
  hash_table_probes += o.hash_table_probes;
  hash_table_rehashes += o.hash_table_rehashes;
  if (o.hash_table_max_probe > hash_table_max_probe) {
    hash_table_max_probe = o.hash_table_max_probe;
  }
  hash_arena_bytes += o.hash_arena_bytes;
}

std::string JobMetrics::Serialize() const {
  std::string out;
  out.reserve(2048);
  char buf[96];
  auto put_u64 = [&](const char* name, uint64_t v) {
    std::snprintf(buf, sizeof(buf), "%s=%llu\n", name,
                  static_cast<unsigned long long>(v));
    out += buf;
  };
  auto put_f64 = [&](const char* name, double v) {
    std::snprintf(buf, sizeof(buf), "%s=%.9g\n", name, v);
    out += buf;
  };
  put_u64("map_input_bytes", map_input_bytes);
  put_u64("map_spill_write_bytes", map_spill_write_bytes);
  put_u64("map_spill_read_bytes", map_spill_read_bytes);
  put_u64("map_output_bytes", map_output_bytes);
  put_u64("shuffle_bytes", shuffle_bytes);
  put_u64("reduce_spill_write_bytes", reduce_spill_write_bytes);
  put_u64("reduce_spill_read_bytes", reduce_spill_read_bytes);
  put_u64("reduce_output_bytes", reduce_output_bytes);
  put_u64("map_input_records", map_input_records);
  put_u64("map_output_records", map_output_records);
  put_u64("reduce_input_records", reduce_input_records);
  put_u64("combine_invocations", combine_invocations);
  put_u64("reduce_groups", reduce_groups);
  put_u64("output_records", output_records);
  put_u64("early_output_records", early_output_records);
  put_u64("snapshot_bytes", snapshot_bytes);
  put_u64("snapshot_count", snapshot_count);
  put_u64("map_task_attempts", map_task_attempts);
  put_u64("reduce_task_attempts", reduce_task_attempts);
  put_u64("killed_attempts", killed_attempts);
  put_u64("preempted_attempts", preempted_attempts);
  put_u64("speculative_attempts", speculative_attempts);
  put_u64("speculative_wins", speculative_wins);
  put_u64("lost_map_outputs", lost_map_outputs);
  put_u64("node_crashes", node_crashes);
  put_u64("shuffle_fetch_retries", shuffle_fetch_retries);
  put_u64("disk_read_retries", disk_read_retries);
  put_u64("recovery_bytes", recovery_bytes);
  put_f64("wasted_cpu_s", wasted_cpu_s);
  put_u64("verify_bytes", verify_bytes);
  put_u64("checksum_overhead_bytes", checksum_overhead_bytes);
  put_u64("corruptions_detected", corruptions_detected);
  put_u64("torn_writes_detected", torn_writes_detected);
  put_u64("corruptions_recovered", corruptions_recovered);
  put_u64("quarantined_replicas", quarantined_replicas);
  put_u64("rereplicated_bytes", rereplicated_bytes);
  put_u64("corruption_recovery_bytes", corruption_recovery_bytes);
  put_u64("checkpoints_written", checkpoints_written);
  put_u64("checkpoint_bytes", checkpoint_bytes);
  put_u64("checkpoint_replica_bytes", checkpoint_replica_bytes);
  put_u64("checkpoints_restored", checkpoints_restored);
  put_u64("checkpoint_restore_bytes", checkpoint_restore_bytes);
  put_u64("checkpoint_corrupt_replicas", checkpoint_corrupt_replicas);
  put_u64("checkpoint_full_replays", checkpoint_full_replays);
  put_u64("checkpoint_segments_skipped", checkpoint_segments_skipped);
  put_u64("checkpoint_skipped_bytes", checkpoint_skipped_bytes);
  put_u64("shuffle_refetched_bytes", shuffle_refetched_bytes);
  put_u64("resident_publish_segments", resident_publish_segments);
  put_u64("resident_publish_bytes", resident_publish_bytes);
  put_u64("resident_hit_bytes", resident_hit_bytes);
  put_u64("resident_invalidated_segments", resident_invalidated_segments);
  put_u64("resident_invalidated_bytes", resident_invalidated_bytes);
  put_u64("resident_state_restores", resident_state_restores);
  put_u64("resident_state_restored_bytes", resident_state_restored_bytes);
  put_u64("resident_state_saved_bytes", resident_state_saved_bytes);
  put_u64("resident_cached_input_bytes", resident_cached_input_bytes);
  put_u64("node_combine_input_records", node_combine_input_records);
  put_u64("node_combine_input_bytes", node_combine_input_bytes);
  put_u64("node_combine_output_records", node_combine_output_records);
  put_u64("node_combine_output_bytes", node_combine_output_bytes);
  put_u64("node_combine_tasks", node_combine_tasks);
  put_u64("node_combine_passthrough_records",
          node_combine_passthrough_records);
  put_u64("node_combine_sketch_shards", node_combine_sketch_shards);
  put_u64("codec_map_spill_raw_bytes", codec_map_spill_raw_bytes);
  put_u64("codec_map_spill_encoded_bytes", codec_map_spill_encoded_bytes);
  put_u64("codec_shuffle_raw_bytes", codec_shuffle_raw_bytes);
  put_u64("codec_shuffle_encoded_bytes", codec_shuffle_encoded_bytes);
  put_u64("codec_reduce_spill_raw_bytes", codec_reduce_spill_raw_bytes);
  put_u64("codec_reduce_spill_encoded_bytes",
          codec_reduce_spill_encoded_bytes);
  put_u64("codec_bucket_raw_bytes", codec_bucket_raw_bytes);
  put_u64("codec_bucket_encoded_bytes", codec_bucket_encoded_bytes);
  // compress_ns / decompress_ns are host wall-clock and intentionally not
  // serialized: Serialize() must stay deterministic across runs and
  // data_plane_threads settings (see metrics.h).
  put_u64("hash_table_probes", hash_table_probes);
  put_u64("hash_table_rehashes", hash_table_rehashes);
  put_u64("hash_table_max_probe", hash_table_max_probe);
  put_u64("hash_arena_bytes", hash_arena_bytes);
  return out;
}

std::string JobMetrics::ToString() const {
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "map input:       %12llu bytes, %llu records\n"
      "map spill:       %12llu bytes written, %llu read\n"
      "map output:      %12llu bytes, %llu records\n"
      "shuffle:         %12llu bytes\n"
      "reduce spill:    %12llu bytes written, %llu read\n"
      "reduce output:   %12llu bytes, %llu records (%llu early)\n"
      "reduce work:     %llu combines, %llu groups",
      static_cast<unsigned long long>(map_input_bytes),
      static_cast<unsigned long long>(map_input_records),
      static_cast<unsigned long long>(map_spill_write_bytes),
      static_cast<unsigned long long>(map_spill_read_bytes),
      static_cast<unsigned long long>(map_output_bytes),
      static_cast<unsigned long long>(map_output_records),
      static_cast<unsigned long long>(shuffle_bytes),
      static_cast<unsigned long long>(reduce_spill_write_bytes),
      static_cast<unsigned long long>(reduce_spill_read_bytes),
      static_cast<unsigned long long>(reduce_output_bytes),
      static_cast<unsigned long long>(output_records),
      static_cast<unsigned long long>(early_output_records),
      static_cast<unsigned long long>(combine_invocations),
      static_cast<unsigned long long>(reduce_groups));
  std::string out = buf;
  // The recovery block appears only when the job saw faults.
  if (map_task_attempts + reduce_task_attempts > 0) {
    std::snprintf(
        buf, sizeof(buf),
        "\nattempts:        map %llu, reduce %llu (%llu killed, %llu "
        "speculative, %llu spec wins)\n"
        "recovery:        %llu crashes, %llu lost map outputs, %llu fetch "
        "retries, %llu disk retries\n"
        "waste:           %.1f cpu s, %llu recovery bytes",
        static_cast<unsigned long long>(map_task_attempts),
        static_cast<unsigned long long>(reduce_task_attempts),
        static_cast<unsigned long long>(killed_attempts),
        static_cast<unsigned long long>(speculative_attempts),
        static_cast<unsigned long long>(speculative_wins),
        static_cast<unsigned long long>(node_crashes),
        static_cast<unsigned long long>(lost_map_outputs),
        static_cast<unsigned long long>(shuffle_fetch_retries),
        static_cast<unsigned long long>(disk_read_retries), wasted_cpu_s,
        static_cast<unsigned long long>(recovery_bytes));
    out += buf;
  }
  // The hash-core block appears only when a FlatTable ran.
  if (hash_table_probes > 0) {
    std::snprintf(
        buf, sizeof(buf),
        "\nhash core:       %llu probes (max chain %llu), %llu rehashes, "
        "%llu arena bytes",
        static_cast<unsigned long long>(hash_table_probes),
        static_cast<unsigned long long>(hash_table_max_probe),
        static_cast<unsigned long long>(hash_table_rehashes),
        static_cast<unsigned long long>(hash_arena_bytes));
    out += buf;
  }
  // The codec block appears only when a block codec ran.
  const uint64_t codec_raw = codec_map_spill_raw_bytes +
                             codec_shuffle_raw_bytes +
                             codec_reduce_spill_raw_bytes +
                             codec_bucket_raw_bytes;
  if (codec_raw > 0) {
    const uint64_t codec_enc = codec_map_spill_encoded_bytes +
                               codec_shuffle_encoded_bytes +
                               codec_reduce_spill_encoded_bytes +
                               codec_bucket_encoded_bytes;
    std::snprintf(
        buf, sizeof(buf),
        "\nblock codec:     %llu raw -> %llu encoded bytes (%.2fx), "
        "compress %.1f ms, decompress %.1f ms",
        static_cast<unsigned long long>(codec_raw),
        static_cast<unsigned long long>(codec_enc),
        codec_enc > 0 ? static_cast<double>(codec_raw) /
                            static_cast<double>(codec_enc)
                      : 0.0,
        compress_ns / 1e6, decompress_ns / 1e6);
    out += buf;
  }
  // The checkpoint block appears only when checkpointing ran.
  if (checkpoints_written + checkpoints_restored + checkpoint_full_replays >
      0) {
    std::snprintf(
        buf, sizeof(buf),
        "\ncheckpoints:     %llu written (%llu bytes, %llu replica bytes), "
        "%llu restored (%llu bytes read)\n"
        "ckpt recovery:   %llu corrupt replicas, %llu full replays, %llu "
        "segments skipped (%llu bytes)",
        static_cast<unsigned long long>(checkpoints_written),
        static_cast<unsigned long long>(checkpoint_bytes),
        static_cast<unsigned long long>(checkpoint_replica_bytes),
        static_cast<unsigned long long>(checkpoints_restored),
        static_cast<unsigned long long>(checkpoint_restore_bytes),
        static_cast<unsigned long long>(checkpoint_corrupt_replicas),
        static_cast<unsigned long long>(checkpoint_full_replays),
        static_cast<unsigned long long>(checkpoint_segments_skipped),
        static_cast<unsigned long long>(checkpoint_skipped_bytes));
    out += buf;
  }
  // The resident-shuffle block appears only when resident mode ran.
  if (resident_publish_segments + resident_state_restores > 0) {
    std::snprintf(
        buf, sizeof(buf),
        "\nresident:        %llu segments published (%llu bytes), %llu "
        "hit bytes, %llu invalidated\n"
        "state carry:     %llu adoptions (%llu bytes in, %llu bytes "
        "saved), %llu cached input bytes",
        static_cast<unsigned long long>(resident_publish_segments),
        static_cast<unsigned long long>(resident_publish_bytes),
        static_cast<unsigned long long>(resident_hit_bytes),
        static_cast<unsigned long long>(resident_invalidated_segments),
        static_cast<unsigned long long>(resident_state_restores),
        static_cast<unsigned long long>(resident_state_restored_bytes),
        static_cast<unsigned long long>(resident_state_saved_bytes),
        static_cast<unsigned long long>(resident_cached_input_bytes));
    out += buf;
  }
  // The node-combine block appears only when the node tier ran.
  if (node_combine_tasks > 0) {
    std::snprintf(
        buf, sizeof(buf),
        "\nnode combine:    %llu in records (%llu bytes) -> %llu out "
        "(%llu bytes) over %llu node tasks, %llu passthrough, %llu "
        "sketch shards",
        static_cast<unsigned long long>(node_combine_input_records),
        static_cast<unsigned long long>(node_combine_input_bytes),
        static_cast<unsigned long long>(node_combine_output_records),
        static_cast<unsigned long long>(node_combine_output_bytes),
        static_cast<unsigned long long>(node_combine_tasks),
        static_cast<unsigned long long>(node_combine_passthrough_records),
        static_cast<unsigned long long>(node_combine_sketch_shards));
    out += buf;
  }
  // The integrity block appears only when checksums were verified or a
  // corruption was seen.
  if (verify_bytes + corruptions_detected > 0) {
    std::snprintf(
        buf, sizeof(buf),
        "\nintegrity:       %llu bytes verified (+%llu framing), %llu "
        "corruptions detected (%llu torn), %llu recovered\n"
        "dfs health:      %llu replicas quarantined, %llu bytes "
        "re-replicated, %llu corruption-recovery bytes",
        static_cast<unsigned long long>(verify_bytes),
        static_cast<unsigned long long>(checksum_overhead_bytes),
        static_cast<unsigned long long>(corruptions_detected),
        static_cast<unsigned long long>(torn_writes_detected),
        static_cast<unsigned long long>(corruptions_recovered),
        static_cast<unsigned long long>(quarantined_replicas),
        static_cast<unsigned long long>(rereplicated_bytes),
        static_cast<unsigned long long>(corruption_recovery_bytes));
    out += buf;
  }
  return out;
}

}  // namespace onepass
