// Deterministic fault injection for the simulated time plane.
//
// A FaultPlan is a pure function of (FaultConfig, seed): it fixes, before
// the simulation starts, which nodes crash and when, which nodes straggle
// (and by how much), and — via counter-based hashing — how many times any
// given shuffle fetch or disk read fails transiently. No wall clock, no
// shared RNG state: the same plan replayed against the same cluster yields
// a byte-identical schedule, which is what makes recovery testable
// (ISSUE 1's determinism-under-faults property).
//
// Because every draw is a pure function of its arguments — there are no
// shared mutable cursors — a FaultPlan is immutable after construction
// and safe to consult from concurrent data-plane tasks (DESIGN.md §5.3):
// each task's fault/corruption event stream is effectively pre-drawn,
// keyed by (task id, stream id), independent of execution order.
//
// Fault taxonomy (DESIGN.md §5 "Fault model"):
//   * Node crash: fail-stop at a simulated time (or when map progress
//     crosses a fraction). The node's running tasks die, its disk contents
//     (map outputs, reduce state) are lost, and it never rejoins.
//   * Transient disk-read error: a read must be retried; costs extra seek
//     + transfer time on the same device.
//   * Transient shuffle-fetch failure: a reducer's fetch of one map-output
//     segment fails; retried with exponential backoff (RetryBackoff), at
//     most kMaxFetchFailures times (after which the fetch succeeds —
//     "transient").
//   * Straggler: a node whose CPU and/or disk run slower by a constant
//     factor, the trigger for speculative execution.
//   * Silent corruption (ISSUE 2): a stored copy of a framed stream — a
//     DFS chunk replica, a map-output push, a spill run, a hash bucket,
//     or one shuffle wire transfer — is damaged by a seeded bit flip or
//     a torn write (truncation). Detected only by checksum verification
//     at the next read boundary (DESIGN.md §5.2). At most
//     kMaxCorruptGenerations copies of one stream are corrupt in a row,
//     and every one is rebuilt, re-fetched or re-executed.
//
// The recovery schedule is not configurable: every run uses the
// constants below.

#ifndef ONEPASS_SIM_FAULT_INJECTOR_H_
#define ONEPASS_SIM_FAULT_INJECTOR_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/status.h"

namespace onepass::sim {

// A shuffle fetch fails transiently at most this many times, then
// succeeds.
inline constexpr int kMaxFetchFailures = 4;
// A disk read fails transiently at most this many times: disk errors
// model sector hiccups, not device loss (that is the crash model).
inline constexpr int kMaxDiskReadFailures = 3;
// At most this many consecutive generations of one stored stream are
// corrupt. Each one is rebuilt, re-fetched or re-executed, so a stream
// that can be rebuilt always recovers.
inline constexpr int kMaxCorruptGenerations = 3;
// First retry backoff, in simulated seconds.
inline constexpr double kRetryBackoffS = 0.05;

// The wait before retry `try_i` (0-based) of a failed shuffle fetch, and
// before the read that follows the (try_i + 1)-th rejected checkpoint
// replica: kRetryBackoffS doubled try_i times.
inline double RetryBackoff(int try_i) {
  return std::ldexp(kRetryBackoffS, try_i);
}

// One scheduled fail-stop crash. Exactly one of `time` (absolute simulated
// seconds), `at_map_fraction` (crash when this fraction of map tasks has
// completed, e.g. 0.5 = mid-map), or `at_reduce_fraction` (crash when this
// fraction of total shuffle bytes has been delivered, e.g. 0.9 = late in
// the shuffle) must be set.
struct CrashEvent {
  int node = -1;
  double time = -1;                // absolute simulated time, or < 0
  double at_map_fraction = -1;     // in (0, 1], or < 0
  double at_reduce_fraction = -1;  // in (0, 1], or < 0
};

// A node that runs slow: op durations on it are multiplied by the factor
// for the matching resource (>= 1).
struct StragglerSpec {
  int node = -1;
  double cpu_factor = 1.0;
  double disk_factor = 1.0;
};

// Which simulated byte stream a corruption event targets. The (kind, a, b)
// triple names one stored copy / transfer; see the FaultPlan draw methods
// for each kind's (a, b) convention.
enum class StreamKind : uint8_t {
  kDfsChunk = 1,      // a = chunk index, b = replica node
  kMapSpillRun = 2,   // a = map task, b = run index
  kBucketFile = 3,    // a = owner id (see BucketFileManager), b = bucket
  kMapOutput = 4,     // a = map task, b = push index
  kShuffleWire = 5,   // a = reduce task, b = (map task << 24) | push
  kCheckpoint = 6,    // a = reduce task, b = (ordinal << 8) | replica slot
};

// How one corrupt generation of a stream is damaged, within its framed
// on-"disk" image of framed_bytes bytes.
struct CorruptionEvent {
  int64_t bit = -1;   // bit index to flip, or byte*8 truncation point
  bool torn = false;  // truncate at byte bit/8 instead of flipping bit
  bool fires() const { return bit >= 0; }
};

struct FaultConfig {
  std::vector<CrashEvent> crashes;
  std::vector<StragglerSpec> stragglers;

  // Per-op transient failure probabilities in [0, 1). How many times an
  // op may fail in a row and how long a fetch retry waits are the fixed
  // kMax*Failures and RetryBackoff above.
  double disk_error_rate = 0;
  double fetch_failure_rate = 0;

  // Speculative execution: a running task that lags the median duration
  // of its phase's finished tasks gets one backup attempt on another
  // node; the first finisher wins. The thresholds and the scan period are
  // constants in src/mr/replayer.cc.
  bool speculative_execution = false;

  // A task (map or reduce) may be attempted at most this many times;
  // exceeding it fails the job with a non-OK Status.
  int max_attempts = 4;

  // Silent-corruption injection into the checksummed streams (DESIGN.md
  // §5.2). Each stored copy / transfer of a framed stream is independently
  // corrupted with this probability (at most kMaxCorruptGenerations times
  // in a row). A DFS chunk read fails with kCorruption only when every
  // replica is bad.
  double corruption_rate = 0;
  // When set, a corruption event may be a torn write (truncation of the
  // in-flight block sequence) instead of a bit flip; a seeded coin per
  // event picks which.
  bool torn_writes = false;

  // True if any fault source is enabled (crash, straggler, error rates,
  // or speculation).
  bool any() const;

  // Rejects out-of-range nodes/times/rates/factors for an N-node cluster.
  Status Validate(int nodes) const;
};

// The resolved, immutable schedule. Cheap to copy.
class FaultPlan {
 public:
  // An empty plan: no faults, every query returns "healthy".
  FaultPlan() = default;

  FaultPlan(const FaultConfig& config, uint64_t seed);

  const FaultConfig& config() const { return config_; }
  bool active() const { return config_.any(); }

  const std::vector<CrashEvent>& crashes() const { return config_.crashes; }

  // Straggler slowdown factors for `node` (1.0 when healthy).
  double CpuFactor(int node) const;
  double DiskFactor(int node) const;

  // Number of consecutive transient failures (possibly 0) for the fetch of
  // map `map_task`'s push `push` by reduce task `reduce_task`. Pure in its
  // arguments; capped at kMaxFetchFailures.
  int FetchFailures(int reduce_task, int map_task, uint32_t push) const;

  // Number of consecutive transient failures for disk-read op `op_idx` of
  // attempt `attempt` of task `task` (`is_map` selects the task space).
  // Capped at kMaxDiskReadFailures so a read always eventually succeeds.
  int DiskReadFailures(bool is_map, int task, int attempt,
                       uint64_t op_idx) const;

  // --- Silent corruption (pure draws; all return "clean" at rate 0) ---

  // Number of consecutive corrupt generations of the stream (kind, a, b):
  // the k-th write (or transfer) of that stream is corrupt iff
  // k < CorruptionChain(...). Geometric in corruption_rate, capped at
  // kMaxCorruptGenerations.
  // For DFS chunk replicas only "chain > 0" matters (the replica is bad).
  int CorruptionChain(StreamKind kind, uint64_t a, uint64_t b) const;

  // How generation `gen` of the stream is damaged. Fires exactly when
  // gen < CorruptionChain(kind, a, b).
  CorruptionEvent CorruptionDamage(StreamKind kind, uint64_t a, uint64_t b,
                                   int gen, uint64_t framed_bytes) const;

  // Convenience wrappers used by the Replayer (counts only; the damage
  // there is modeled, not materialized — the time plane replays traces,
  // it does not hold bytes).
  int MapOutputCorruptions(int map_task, uint32_t push) const;
  int FetchCorruptions(int reduce_task, int map_task, uint32_t push) const;
  // Corrupt generations of replica `slot` of reduce task `reduce_task`'s
  // `ordinal`-th checkpoint. Each replica slot draws independently, so a
  // restore can ladder: newest replica corrupt -> try an older slot ->
  // all corrupt -> full replay.
  int CheckpointCorruptions(int reduce_task, uint32_t ordinal,
                            int replica_slot) const;

 private:
  FaultConfig config_;
  uint64_t seed_ = 0;
};

}  // namespace onepass::sim

#endif  // ONEPASS_SIM_FAULT_INJECTOR_H_
