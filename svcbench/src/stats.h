// Order statistics over raw samples, and deltas of the service's own
// cumulative histograms.
#ifndef SVCBENCH_STATS_H_
#define SVCBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/metrics.h"

namespace svcbench {

/// Nearest-rank q-quantile (q in (0,1]); failed samples are +inf, so a
/// percentile that reaches them is +inf. 0 for no samples.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Observations recorded between two scrapes of one histogram.
inline tecore::obs::Histogram::Snapshot HistogramDelta(
    tecore::obs::Histogram::Snapshot now,
    const tecore::obs::Histogram::Snapshot& before) {
  for (size_t i = 0; i < now.counts.size() && i < before.counts.size(); ++i) {
    now.counts[i] -= before.counts[i];
  }
  now.count -= before.count;
  now.sum -= before.sum;
  return now;
}

/// Mean observation of a histogram (its bucket bounds would quantize a
/// quantile of a handful of observations to the same value every run).
inline double HistogramMean(const tecore::obs::Histogram::Snapshot& snap) {
  return snap.count == 0 ? 0.0
                         : static_cast<double>(snap.sum) /
                               static_cast<double>(snap.count);
}

}  // namespace svcbench

#endif  // SVCBENCH_STATS_H_
