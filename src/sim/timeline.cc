#include "src/sim/timeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/logging.h"

namespace onepass::sim {

namespace {

// Bins of `bin_seconds` covering [0, horizon), at least 1. Counted in
// floating point, so a count no integer type holds still compares.
double BinCount(double bin_seconds, double horizon) {
  return std::max(1.0, std::ceil(horizon / bin_seconds));
}

// Integrates a piecewise-constant function given by state-change samples
// into uniform bins; `extract` maps a sample to the function value.
template <typename Extract>
BinnedSeries Integrate(const std::vector<Server::Sample>& samples,
                       double bin_seconds, double horizon, Extract extract) {
  CHECK(CheckSeriesBins(bin_seconds, horizon).ok());
  BinnedSeries out;
  out.bin_seconds = bin_seconds;
  const int64_t bins = static_cast<int64_t>(BinCount(bin_seconds, horizon));
  out.values.assign(static_cast<size_t>(bins), 0.0);
  if (samples.empty()) return out;

  // Bin boundaries are computed by index (not by accumulating segment
  // lengths), so floating-point drift can neither spin the loop nor drop
  // mass. The integration range is capped at the bin grid's end.
  const double range_end = static_cast<double>(bins) * bin_seconds;
  for (size_t i = 0; i < samples.size(); ++i) {
    const double t0 = samples[i].time;
    const double t1 =
        (i + 1 < samples.size()) ? samples[i + 1].time : horizon;
    if (t1 <= t0) continue;
    const double v = extract(samples[i]);
    // Spread v over [a, b).
    const double a = t0;
    const double b = std::min({t1, horizon, range_end});
    if (a >= b) continue;
    const int64_t first = std::clamp(static_cast<int64_t>(a / bin_seconds),
                                     int64_t{0}, bins - 1);
    const int64_t last = std::clamp(static_cast<int64_t>(b / bin_seconds),
                                    int64_t{0}, bins - 1);
    for (int64_t k = first; k <= last; ++k) {
      const double lo = std::max(a, static_cast<double>(k) * bin_seconds);
      const double hi =
          std::min(b, static_cast<double>(k + 1) * bin_seconds);
      if (hi > lo) out.values[static_cast<size_t>(k)] += v * (hi - lo);
    }
  }
  for (auto& v : out.values) v /= bin_seconds;
  return out;
}

}  // namespace

Status CheckSeriesBins(double bin_seconds, double horizon) {
  const double bins = BinCount(bin_seconds, horizon);
  if (bins > static_cast<double>(kMaxSeriesBins)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "a timeline bin of %g s needs %g bins to cover %g s; at "
                  "most %lld are allowed",
                  bin_seconds, bins, horizon,
                  static_cast<long long>(kMaxSeriesBins));
    return Status::InvalidArgument(buf);
  }
  return Status::OK();
}

double BinnedSeries::ValueAt(double time) const {
  if (values.empty() || bin_seconds <= 0) return 0.0;
  // Clamped before the conversion: a time many bins past the end must
  // read the last bin, not overflow an integer.
  const double bin = time / bin_seconds;
  const size_t last = values.size() - 1;
  if (!(bin > 0)) return values[0];
  return bin >= static_cast<double>(last) ? values[last]
                                          : values[static_cast<size_t>(bin)];
}

BinnedSeries UtilizationSeries(const Server& server, double bin_seconds,
                               double horizon) {
  const double cap = server.capacity();
  return Integrate(server.samples(), bin_seconds, horizon,
                   [cap](const Server::Sample& s) { return s.busy / cap; });
}

BinnedSeries IowaitSeries(const Server& cpu, const Server& disk,
                          double bin_seconds, double horizon) {
  // Merge the two sample streams into a combined piecewise-constant
  // indicator: disk active && cpu has an idle core.
  const auto& cs = cpu.samples();
  const auto& ds = disk.samples();
  std::vector<Server::Sample> merged;
  merged.reserve(cs.size() + ds.size());
  size_t i = 0, j = 0;
  int cpu_busy = 0, disk_busy = 0, disk_q = 0;
  auto emit = [&](double t) {
    const bool active = (disk_busy > 0 || disk_q > 0);
    const bool idle_core = cpu_busy < cpu.capacity();
    merged.push_back({t, (active && idle_core) ? 1 : 0, 0});
  };
  while (i < cs.size() || j < ds.size()) {
    double t;
    if (j >= ds.size() || (i < cs.size() && cs[i].time <= ds[j].time)) {
      t = cs[i].time;
      cpu_busy = cs[i].busy;
      ++i;
    } else {
      t = ds[j].time;
      disk_busy = ds[j].busy;
      disk_q = ds[j].queued;
      ++j;
    }
    emit(t);
  }
  return Integrate(merged, bin_seconds, horizon,
                   [](const Server::Sample& s) {
                     return static_cast<double>(s.busy);
                   });
}

void StepSeries::Add(double time, double value) {
  if (!times.empty() && times.back() == time) {
    values.back() = value;
    return;
  }
  CHECK(times.empty() || time >= times.back());
  times.push_back(time);
  values.push_back(value);
}

double StepSeries::ValueAt(double time) const {
  auto it = std::upper_bound(times.begin(), times.end(), time);
  if (it == times.begin()) return 0.0;
  return values[static_cast<size_t>(it - times.begin()) - 1];
}

std::string RenderSeriesTable(const std::vector<std::string>& names,
                              const std::vector<StepSeries>& series,
                              int num_rows) {
  CHECK_EQ(names.size(), series.size());
  double horizon = 0;
  for (const auto& s : series) {
    if (!s.times.empty()) horizon = std::max(horizon, s.times.back());
  }
  std::string out = "  time(s)";
  for (const auto& n : names) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %14s", n.c_str());
    out += buf;
  }
  out += "\n";
  for (int r = 0; r <= num_rows; ++r) {
    const double t = horizon * r / num_rows;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%9.1f", t);
    out += buf;
    for (const auto& s : series) {
      std::snprintf(buf, sizeof(buf), " %14.3f", s.ValueAt(t));
      out += buf;
    }
    out += "\n";
  }
  return out;
}

}  // namespace onepass::sim
