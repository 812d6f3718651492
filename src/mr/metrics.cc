#include "src/mr/metrics.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

namespace onepass {

namespace {

using Field = JobMetrics::Field;

// The counter table: one row per JobMetrics field, in declaration order.
constexpr Field kFields[] = {
    {"map_input_bytes", &JobMetrics::map_input_bytes},
    {"map_spill_write_bytes", &JobMetrics::map_spill_write_bytes},
    {"map_spill_read_bytes", &JobMetrics::map_spill_read_bytes},
    {"map_output_bytes", &JobMetrics::map_output_bytes},
    {"shuffle_bytes", &JobMetrics::shuffle_bytes},
    {"reduce_spill_write_bytes", &JobMetrics::reduce_spill_write_bytes},
    {"reduce_spill_read_bytes", &JobMetrics::reduce_spill_read_bytes},
    {"reduce_output_bytes", &JobMetrics::reduce_output_bytes},
    {"map_input_records", &JobMetrics::map_input_records},
    {"map_output_records", &JobMetrics::map_output_records},
    {"reduce_input_records", &JobMetrics::reduce_input_records},
    {"combine_invocations", &JobMetrics::combine_invocations},
    {"reduce_groups", &JobMetrics::reduce_groups},
    {"output_records", &JobMetrics::output_records},
    {"early_output_records", &JobMetrics::early_output_records},
    {"snapshot_bytes", &JobMetrics::snapshot_bytes},
    {"snapshot_count", &JobMetrics::snapshot_count},
    {"map_task_attempts", &JobMetrics::map_task_attempts},
    {"reduce_task_attempts", &JobMetrics::reduce_task_attempts},
    {"killed_attempts", &JobMetrics::killed_attempts},
    {"preempted_attempts", &JobMetrics::preempted_attempts},
    {"speculative_attempts", &JobMetrics::speculative_attempts},
    {"speculative_wins", &JobMetrics::speculative_wins},
    {"lost_map_outputs", &JobMetrics::lost_map_outputs},
    {"node_crashes", &JobMetrics::node_crashes},
    {"shuffle_fetch_retries", &JobMetrics::shuffle_fetch_retries},
    {"disk_read_retries", &JobMetrics::disk_read_retries},
    {"recovery_bytes", &JobMetrics::recovery_bytes},
    {"wasted_cpu_s", &JobMetrics::wasted_cpu_s},
    {"verify_bytes", &JobMetrics::verify_bytes},
    {"checksum_overhead_bytes", &JobMetrics::checksum_overhead_bytes},
    {"corruptions_detected", &JobMetrics::corruptions_detected},
    {"torn_writes_detected", &JobMetrics::torn_writes_detected},
    {"corruptions_recovered", &JobMetrics::corruptions_recovered},
    {"quarantined_replicas", &JobMetrics::quarantined_replicas},
    {"rereplicated_bytes", &JobMetrics::rereplicated_bytes},
    {"corruption_recovery_bytes", &JobMetrics::corruption_recovery_bytes},
    {"checkpoints_written", &JobMetrics::checkpoints_written},
    {"checkpoint_bytes", &JobMetrics::checkpoint_bytes},
    {"checkpoint_replica_bytes", &JobMetrics::checkpoint_replica_bytes},
    {"checkpoints_restored", &JobMetrics::checkpoints_restored},
    {"checkpoint_restore_bytes", &JobMetrics::checkpoint_restore_bytes},
    {"checkpoint_corrupt_replicas", &JobMetrics::checkpoint_corrupt_replicas},
    {"checkpoint_full_replays", &JobMetrics::checkpoint_full_replays},
    {"checkpoint_segments_skipped", &JobMetrics::checkpoint_segments_skipped},
    {"checkpoint_skipped_bytes", &JobMetrics::checkpoint_skipped_bytes},
    {"shuffle_refetched_bytes", &JobMetrics::shuffle_refetched_bytes},
    {"resident_publish_segments", &JobMetrics::resident_publish_segments},
    {"resident_publish_bytes", &JobMetrics::resident_publish_bytes},
    {"resident_hit_bytes", &JobMetrics::resident_hit_bytes},
    {"resident_invalidated_segments",
     &JobMetrics::resident_invalidated_segments},
    {"resident_invalidated_bytes", &JobMetrics::resident_invalidated_bytes},
    {"resident_state_restores", &JobMetrics::resident_state_restores},
    {"resident_state_restored_bytes",
     &JobMetrics::resident_state_restored_bytes},
    {"resident_state_saved_bytes", &JobMetrics::resident_state_saved_bytes},
    {"resident_cached_input_bytes", &JobMetrics::resident_cached_input_bytes},
    {"node_combine_input_records", &JobMetrics::node_combine_input_records},
    {"node_combine_input_bytes", &JobMetrics::node_combine_input_bytes},
    {"node_combine_output_records", &JobMetrics::node_combine_output_records},
    {"node_combine_output_bytes", &JobMetrics::node_combine_output_bytes},
    {"node_combine_tasks", &JobMetrics::node_combine_tasks},
    {"node_combine_passthrough_records",
     &JobMetrics::node_combine_passthrough_records},
    {"node_combine_sketch_shards", &JobMetrics::node_combine_sketch_shards},
    {"codec_map_spill_raw_bytes", &JobMetrics::codec_map_spill_raw_bytes},
    {"codec_map_spill_encoded_bytes",
     &JobMetrics::codec_map_spill_encoded_bytes},
    {"codec_shuffle_raw_bytes", &JobMetrics::codec_shuffle_raw_bytes},
    {"codec_shuffle_encoded_bytes", &JobMetrics::codec_shuffle_encoded_bytes},
    {"codec_reduce_spill_raw_bytes", &JobMetrics::codec_reduce_spill_raw_bytes},
    {"codec_reduce_spill_encoded_bytes",
     &JobMetrics::codec_reduce_spill_encoded_bytes},
    {"codec_bucket_raw_bytes", &JobMetrics::codec_bucket_raw_bytes},
    {"codec_bucket_encoded_bytes", &JobMetrics::codec_bucket_encoded_bytes},
    // Host wall-clock, so not printed: Serialize() must stay deterministic
    // across runs and data_plane_threads settings.
    {"compress_ns", &JobMetrics::compress_ns, Field::kSum, false},
    {"decompress_ns", &JobMetrics::decompress_ns, Field::kSum, false},
    {"hash_table_probes", &JobMetrics::hash_table_probes},
    {"hash_table_rehashes", &JobMetrics::hash_table_rehashes},
    {"hash_table_max_probe", &JobMetrics::hash_table_max_probe, Field::kMax},
    {"hash_arena_bytes", &JobMetrics::hash_arena_bytes},
};

// Every counter is 8 bytes: a declared counter without a row fails here.
static_assert(sizeof(JobMetrics) == std::size(kFields) * 8,
              "every JobMetrics counter needs exactly one row in kFields");

template <typename T>
void MergeValue(Field::Rule rule, T v, T* into) {
  *into = rule == Field::kMax ? std::max(*into, v) : *into + v;
}

}  // namespace

std::span<const Field> JobMetrics::Fields() { return kFields; }

void JobMetrics::Merge(const JobMetrics& o) {
  for (const Field& f : kFields) {
    if (f.u64 != nullptr) {
      MergeValue(f.merge, o.*f.u64, &(this->*f.u64));
    } else {
      MergeValue(f.merge, o.*f.f64, &(this->*f.f64));
    }
  }
}

std::string JobMetrics::Serialize() const {
  std::string out;
  out.reserve(2048);
  char buf[96];
  for (const Field& f : kFields) {
    if (!f.serialized) continue;
    if (f.u64 != nullptr) {
      std::snprintf(buf, sizeof(buf), "%s=%llu\n", f.name,
                    static_cast<unsigned long long>(this->*f.u64));
    } else {
      std::snprintf(buf, sizeof(buf), "%s=%.9g\n", f.name, this->*f.f64);
    }
    out += buf;
  }
  return out;
}

}  // namespace onepass
