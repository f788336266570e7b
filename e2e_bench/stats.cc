#include "stats.h"

#include <algorithm>
#include <cmath>

namespace incsr::e2e {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

std::size_t TailCount(const std::vector<double>& samples, double q) {
  const double cut = Percentile(samples, q);
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [cut](double v) { return v > cut; }));
}

double MedianOfWindows(const std::vector<std::vector<double>>& windows,
                       double q) {
  std::size_t largest = 0;
  for (const auto& w : windows) largest = std::max(largest, w.size());
  std::vector<double> per_window;
  for (const auto& w : windows) {
    if (!w.empty() && 2 * w.size() >= largest) {
      per_window.push_back(Percentile(w, q));
    }
  }
  return Median(std::move(per_window));
}

}  // namespace incsr::e2e
