// CostModel: the calibrated constants shared by the analytical model (§3.1)
// and the discrete-event simulator.
//
// The paper sets (§3.2): sequential disk speed 80 MB/s, seek 4 ms, map task
// startup 100 ms. We add CPU constants (per-record function costs, per-
// comparison sort cost, per-probe hash cost) chosen so that the simulated
// CPU-time split matches the paper's measurements — e.g. eliminating the
// map-side sort roughly halves map CPU time (Table 3: 936 s -> 566 s for
// sessionization), and the map function itself is "CPU light" relative to
// sorting (§2.3).

#ifndef ONEPASS_MODEL_COST_MODEL_H_
#define ONEPASS_MODEL_COST_MODEL_H_

#include <cstdint>

namespace onepass {

struct CostModel {
  // --- I/O constants (paper §3.2) ---
  // Seconds per byte of sequential disk I/O (80 MB/s).
  double disk_byte_s = 1.0 / (80.0 * 1024 * 1024);
  // Seconds per disk seek (one per sequential I/O request).
  double disk_seek_s = 0.004;
  // Seconds to start a task (map startup cost c_start).
  double task_start_s = 0.100;
  // Seconds per byte of network transfer during shuffle. Gigabit ethernet
  // (~110 MB/s payload) shared per node.
  double net_byte_s = 1.0 / (110.0 * 1024 * 1024);

  // --- CPU constants (calibrated; see DESIGN.md §5) ---
  // Map function application, per input byte (parse + emit). "CPU light".
  double map_fn_byte_s = 2.0e-9;
  // Sort cost per comparison; total sort CPU = sort_cmp_s * n * log2(n).
  double sort_cmp_s = 60.0e-9;
  // Hash path cost per record (hash + table probe / partition counting).
  double hash_record_s = 25.0e-9;
  // Combine/initialize step per record (state update).
  double combine_record_s = 15.0e-9;
  // Reduce function application, per input byte.
  double reduce_fn_byte_s = 2.0e-9;
  // Merge cost per record per pass (heap sift in k-way merge).
  double merge_record_s = 40.0e-9;
  // Block codec CPU (DESIGN.md §5.5), per *raw* byte passed through the
  // encoder/decoder. Charged only when JobConfig::block_codec != kNone, so
  // kNone schedules are untouched. Roughly an LZ4-class software codec:
  // ~400 MB/s compress, ~1.5 GB/s decompress.
  double compress_byte_s = 2.5e-9;
  double decompress_byte_s = 0.7e-9;

  // Memory retention window for map output on the mapper node (seconds).
  // A reducer fetching within this window reads from the mapper's memory;
  // later fetches hit the mapper's disk (this is what penalizes the second
  // reducer wave when R exceeds the reduce slots; §3.2(3)).
  double map_output_retention_s = 60.0;

  // Resident shuffle (DESIGN.md §5.9): seconds per byte of memory-resident
  // segment handling — publishing a push segment into the node's resident
  // cache, and serializing/adopting carried reduce state between chained
  // jobs. Memory-bandwidth class (~2 GB/s conservative), vs. 80 MB/s +
  // seeks for the disk path it replaces.
  double resident_publish_byte_s = 0.5e-9;
  // Seconds per byte of map input served from the M3R-style input cache
  // when an iteration re-reads the chunk store the previous iteration
  // already scanned on the same nodes (chain stages only).
  double cached_input_byte_s = 0.5e-9;

  // Node combine tier (DESIGN.md §5.10): seconds per byte of handing a map
  // task's partitioned output to the node-scope combiner. The feed never
  // leaves the node's memory (same class as resident_publish_byte_s), vs.
  // the disk write + network push it replaces.
  double node_combine_byte_s = 0.5e-9;

  // Sort CPU seconds for n records.
  double SortCost(uint64_t n) const;
  // k-way merge CPU seconds for n records (single pass).
  double MergeCost(uint64_t n) const;
};

}  // namespace onepass

#endif  // ONEPASS_MODEL_COST_MODEL_H_
