// Post-run timeline computation: utilization, iowait, and counter series.
//
// Reproduces the measurement style of the paper's Fig. 2 / Fig. 4(d,e):
// per-bin CPU utilization (busy cores / total cores), CPU iowait (fraction
// of time cores are idle while the disk is busy or has queued requests),
// and step-series of monotoniccounters (progress, task counts).

#ifndef ONEPASS_SIM_TIMELINE_H_
#define ONEPASS_SIM_TIMELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/sim/resources.h"

namespace onepass::sim {

// The most bins a series may have: 2^20, 8 MiB of values.
inline constexpr int64_t kMaxSeriesBins = int64_t{1} << 20;

// InvalidArgument when a series of `bin_seconds` bins covering
// [0, horizon) would need more than kMaxSeriesBins bins. UtilizationSeries
// and IowaitSeries require it to pass.
Status CheckSeriesBins(double bin_seconds, double horizon);

// A uniformly binned time series.
struct BinnedSeries {
  double bin_seconds = 0;
  std::vector<double> values;  // values[i] covers [i*bin, (i+1)*bin)

  double ValueAt(double time) const;
};

// Integrates busy/capacity of `server` into bins of `bin_seconds` covering
// [0, horizon).
BinnedSeries UtilizationSeries(const Server& server, double bin_seconds,
                               double horizon);

// iowait-style series: fraction of each bin during which the disk is active
// (busy or queued) AND at least one CPU core is idle. This mirrors what the
// kernel reports as %iowait on the paper's cluster plots.
BinnedSeries IowaitSeries(const Server& cpu, const Server& disk,
                          double bin_seconds, double horizon);

// A monotone step series of (time, value) points, e.g. progress curves.
struct StepSeries {
  std::vector<double> times;
  std::vector<double> values;

  void Add(double time, double value);
  // Last value at or before `time` (0 before the first point).
  double ValueAt(double time) const;
  double FinalValue() const { return values.empty() ? 0.0 : values.back(); }
};

// Renders series as aligned text columns for bench output: one row per
// sample time (union of grids), one column per named series.
std::string RenderSeriesTable(const std::vector<std::string>& names,
                              const std::vector<StepSeries>& series,
                              int num_rows);

}  // namespace onepass::sim

#endif  // ONEPASS_SIM_TIMELINE_H_
