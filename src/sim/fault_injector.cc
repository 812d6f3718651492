#include "src/sim/fault_injector.h"

#include <cmath>
#include <string>

namespace onepass::sim {
namespace {

// SplitMix64: the finalizer alone is a strong 64->64 mixer, which is all a
// counter-based (stateless) draw needs.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double ToUnit(uint64_t x) {
  // 53 random bits -> [0, 1).
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

// Draws from the geometric distribution P(failures >= k) = rate^k using a
// single uniform: failures = floor(log(u) / log(rate)).
int GeometricFailures(double u, double rate, int cap) {
  if (rate <= 0 || cap <= 0) return 0;
  if (u >= rate) return 0;  // common case: no failure
  const int n = static_cast<int>(std::log(u) / std::log(rate));
  return n < cap ? n : cap;
}

}  // namespace

bool FaultConfig::any() const {
  if (!crashes.empty() || !stragglers.empty()) return true;
  if (disk_error_rate > 0 || fetch_failure_rate > 0) return true;
  if (corruption_rate > 0) return true;
  return speculative_execution;
}

Status FaultConfig::Validate(int nodes) const {
  for (const CrashEvent& c : crashes) {
    if (c.node < 0 || c.node >= nodes) {
      return Status::InvalidArgument("crash node " + std::to_string(c.node) +
                                     " outside cluster of " +
                                     std::to_string(nodes));
    }
    const int triggers = (c.time >= 0 ? 1 : 0) +
                         (c.at_map_fraction > 0 ? 1 : 0) +
                         (c.at_reduce_fraction > 0 ? 1 : 0);
    if (triggers != 1) {
      return Status::InvalidArgument(
          "crash needs exactly one of time >= 0, at_map_fraction in "
          "(0, 1], or at_reduce_fraction in (0, 1]");
    }
    if (c.at_map_fraction > 1.0) {
      return Status::InvalidArgument("crash at_map_fraction > 1");
    }
    if (c.at_reduce_fraction > 1.0) {
      return Status::InvalidArgument("crash at_reduce_fraction > 1");
    }
  }
  for (const StragglerSpec& s : stragglers) {
    if (s.node < 0 || s.node >= nodes) {
      return Status::InvalidArgument("straggler node outside cluster");
    }
    if (s.cpu_factor < 1.0 || s.disk_factor < 1.0) {
      return Status::InvalidArgument("straggler factors must be >= 1");
    }
  }
  if (disk_error_rate < 0 || disk_error_rate >= 1.0) {
    return Status::InvalidArgument("disk_error_rate must be in [0, 1)");
  }
  if (fetch_failure_rate < 0 || fetch_failure_rate >= 1.0) {
    return Status::InvalidArgument("fetch_failure_rate must be in [0, 1)");
  }
  {
    const Status retry = fetch_retry.Validate();
    if (!retry.ok()) return retry;
  }
  if (max_attempts < 1) {
    return Status::InvalidArgument("max_attempts must be >= 1");
  }
  if (corruption_rate < 0 || corruption_rate >= 1.0) {
    return Status::InvalidArgument("corruption_rate must be in [0, 1)");
  }
  {
    const Status retry = corruption_retry.Validate();
    if (!retry.ok()) return retry;
  }
  return Status::OK();
}

FaultPlan::FaultPlan(const FaultConfig& config, uint64_t seed)
    : config_(config), seed_(Mix64(seed) ^ Mix64(seed + 0xfa017ULL)) {}

double FaultPlan::CpuFactor(int node) const {
  for (const StragglerSpec& s : config_.stragglers) {
    if (s.node == node) return s.cpu_factor;
  }
  return 1.0;
}

double FaultPlan::DiskFactor(int node) const {
  for (const StragglerSpec& s : config_.stragglers) {
    if (s.node == node) return s.disk_factor;
  }
  return 1.0;
}

int FaultPlan::FetchFailures(int reduce_task, int map_task,
                             uint32_t push) const {
  if (config_.fetch_failure_rate <= 0) return 0;
  const uint64_t key =
      Mix64(seed_ ^ Mix64(0xfe7c4ULL ^
                          (static_cast<uint64_t>(reduce_task) << 40) ^
                          (static_cast<uint64_t>(map_task) << 16) ^ push));
  return GeometricFailures(ToUnit(key), config_.fetch_failure_rate,
                           config_.fetch_retry.max_retries);
}

int FaultPlan::DiskReadFailures(bool is_map, int task, int attempt,
                                uint64_t op_idx) const {
  if (config_.disk_error_rate <= 0) return 0;
  const uint64_t key = Mix64(
      seed_ ^ Mix64((is_map ? 0x1111ULL : 0x2222ULL) ^
                    (static_cast<uint64_t>(task) << 32) ^
                    (static_cast<uint64_t>(attempt) << 24) ^ (op_idx << 2)));
  // A read is retried at most 3 times: disk errors here model transient
  // sector hiccups, not device loss (that is the crash model).
  return GeometricFailures(ToUnit(key), config_.disk_error_rate, 3);
}

namespace {

uint64_t StreamKey(uint64_t seed, StreamKind kind, uint64_t a, uint64_t b) {
  return Mix64(seed ^ Mix64(0xc0440ULL ^
                            (static_cast<uint64_t>(kind) << 56) ^
                            Mix64(a + 1) ^ (b << 1)));
}

}  // namespace

int FaultPlan::CorruptionChain(StreamKind kind, uint64_t a,
                               uint64_t b) const {
  if (config_.corruption_rate <= 0) return 0;
  const uint64_t key = StreamKey(seed_, kind, a, b);
  // Unlike the transient draws, a chain counts corrupt *copies*, so a
  // stream with any corruption has chain >= 1: first copy corrupt with
  // probability rate, each rebuild again with probability rate.
  const double u = ToUnit(key);
  if (u >= config_.corruption_rate) return 0;
  return 1 + GeometricFailures(u / config_.corruption_rate,
                               config_.corruption_rate, 2);
}

CorruptionEvent FaultPlan::CorruptionDamage(StreamKind kind, uint64_t a,
                                            uint64_t b, int gen,
                                            uint64_t framed_bytes) const {
  CorruptionEvent ev;
  if (framed_bytes == 0 || gen >= CorruptionChain(kind, a, b)) return ev;
  const uint64_t key =
      Mix64(StreamKey(seed_, kind, a, b) ^ (0x9a11ULL + gen));
  if (config_.torn_writes && framed_bytes >= 2 &&
      (Mix64(key ^ 0x70a4ULL) & 1)) {
    ev.torn = true;
    // Truncate to [1, framed_bytes - 1] bytes so the damage is never a
    // no-op and never leaves an empty stream trivially.
    ev.bit = static_cast<int64_t>(8 * (1 + key % (framed_bytes - 1)));
  } else {
    ev.bit = static_cast<int64_t>(key % (8 * framed_bytes));
  }
  return ev;
}

int FaultPlan::MapOutputCorruptions(int map_task, uint32_t push) const {
  return CorruptionChain(StreamKind::kMapOutput,
                         static_cast<uint64_t>(map_task), push);
}

int FaultPlan::FetchCorruptions(int reduce_task, int map_task,
                                uint32_t push) const {
  return CorruptionChain(StreamKind::kShuffleWire,
                         static_cast<uint64_t>(reduce_task),
                         (static_cast<uint64_t>(map_task) << 24) | push);
}

int FaultPlan::CheckpointCorruptions(int reduce_task, uint32_t ordinal,
                                     int replica_slot) const {
  return CorruptionChain(StreamKind::kCheckpoint,
                         static_cast<uint64_t>(reduce_task),
                         (static_cast<uint64_t>(ordinal) << 8) |
                             static_cast<uint64_t>(replica_slot));
}

}  // namespace onepass::sim
