// Sample statistics for the end-to-end benchmark: exact order-statistic
// percentiles over raw samples (no bucketing, unlike obs::Histogram, so a
// run-to-run comparison is not blurred by bucket width).
#ifndef INCSR_E2E_BENCH_STATS_H_
#define INCSR_E2E_BENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace incsr::e2e {

/// Inclusive percentile (q in [0, 1]) with linear interpolation between
/// the two closest ranks, as numpy's default: rank = q·(n−1). Sorts a
/// copy; 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);

/// Median of `samples` (Percentile at 0.5).
double Median(std::vector<double> samples);

/// Count of samples strictly above the q-th percentile — the benchmark
/// reports a percentile only with its tail size, so a p99 backed by fewer
/// than ten samples shows.
std::size_t TailCount(const std::vector<double>& samples, double q);

/// Median over time windows of each window's q-th percentile. Windows
/// holding less than half the largest window's samples (a cut-off last
/// window) are skipped. A stall confined to one window moves only that
/// window's percentile, so the median keeps a run's figure from hinging
/// on one burst of machine noise. 0 when no window qualifies.
double MedianOfWindows(const std::vector<std::vector<double>>& windows,
                       double q);

}  // namespace incsr::e2e

#endif  // INCSR_E2E_BENCH_STATS_H_
