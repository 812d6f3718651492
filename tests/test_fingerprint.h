// Canonical renderings shared by the equivalence, determinism and golden
// tests. SortedOutputs compares answers as multisets (record order is a
// scheduling artifact); Fingerprint renders every deterministic field of
// a JobResult exactly, for byte-identity checks; EngineTag names an
// engine in case names and golden rows.

#ifndef ONEPASS_TESTS_TEST_FINGERPRINT_H_
#define ONEPASS_TESTS_TEST_FINGERPRINT_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/mr/cluster.h"
#include "src/sim/timeline.h"

namespace onepass {

// "INC-hash" -> "INC_hash": gtest names and golden rows allow no '-'.
inline std::string EngineTag(EngineKind engine) {
  std::string name(EngineKindName(engine));
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

// `lines` sorted, one string, each line ending in a newline.
inline std::string SortedLines(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) out += l + '\n';
  return out;
}

// The job's output records as sorted "key=value" lines.
inline std::string SortedOutputs(const JobResult& res) {
  std::vector<std::string> lines;
  lines.reserve(res.outputs.size());
  for (const Record& r : res.outputs) lines.push_back(r.key + "=" + r.value);
  return SortedLines(std::move(lines));
}

// `digits` is the %g precision for doubles: 17 renders them exactly; the
// replay goldens use 9, as JobMetrics::Serialize does, so one golden
// holds across optimization levels.
inline void AppendSeries(std::string* fp, const char* name,
                         const sim::StepSeries& s, int digits = 17) {
  char buf[64];
  *fp += name;
  for (size_t i = 0; i < s.times.size(); ++i) {
    std::snprintf(buf, sizeof(buf), " (%.*g,%.*g)", digits, s.times[i],
                  digits, s.values[i]);
    *fp += buf;
  }
  *fp += '\n';
}

inline void AppendBinned(std::string* fp, const char* name,
                         const sim::BinnedSeries& s, int digits = 17) {
  char buf[48];
  *fp += name;
  std::snprintf(buf, sizeof(buf), " bin=%.*g", digits, s.bin_seconds);
  *fp += buf;
  for (double v : s.values) {
    std::snprintf(buf, sizeof(buf), " %.*g", digits, v);
    *fp += buf;
  }
  *fp += '\n';
}

// Every deterministic field of a JobResult, rendered exactly (at the
// default `digits`), outputs in emitted order. Excludes only
// map_plane_wall_s / reduce_plane_wall_s, which measure the host.
inline std::string Fingerprint(const JobResult& r, int digits = 17) {
  std::string fp = r.metrics.Serialize();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "running_time=%.*g\nmap_finish_time=%.*g\n"
                "map_tasks=%d\nreduce_tasks=%d\n"
                "shuffle_from_disk_bytes=%llu\n"
                "map_cpu_s=%.*g\nreduce_cpu_s=%.*g\n",
                digits, r.running_time, digits, r.map_finish_time,
                r.map_tasks, r.reduce_tasks,
                static_cast<unsigned long long>(r.shuffle_from_disk_bytes),
                digits, r.map_cpu_s, digits, r.reduce_cpu_s);
  fp += buf;
  AppendSeries(&fp, "map_progress", r.map_progress, digits);
  AppendSeries(&fp, "reduce_progress", r.reduce_progress, digits);
  AppendSeries(&fp, "shuffle_progress", r.shuffle_progress, digits);
  AppendSeries(&fp, "reduce_work_progress", r.reduce_work_progress, digits);
  AppendSeries(&fp, "output_progress", r.output_progress, digits);
  AppendSeries(&fp, "active_map", r.active_map, digits);
  AppendSeries(&fp, "active_shuffle", r.active_shuffle, digits);
  AppendSeries(&fp, "active_merge", r.active_merge, digits);
  AppendSeries(&fp, "active_reduce", r.active_reduce, digits);
  AppendBinned(&fp, "cpu_util", r.cpu_util, digits);
  AppendBinned(&fp, "iowait", r.iowait, digits);
  for (const Record& rec : r.outputs) {
    fp += rec.key;
    fp += '=';
    fp += rec.value;
    fp += '\n';
  }
  return fp;
}

}  // namespace onepass

#endif  // ONEPASS_TESTS_TEST_FINGERPRINT_H_
