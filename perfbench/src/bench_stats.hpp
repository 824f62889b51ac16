// Exact order statistics over per-window samples.
//
// Every quantile the benchmark prints is a nearest-rank value of the sorted
// samples themselves, never an interpolated histogram bin: the scheduler's
// `service.decision_latency_s` histogram has 25 ms bins, so its quantiles
// cannot resolve windows that take tens of microseconds.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Nearest-rank q-quantile of an ascending-sorted sample: the smallest
/// sample with at least ceil(q * n) samples at or below it.
[[nodiscard]] inline double nearest_rank(const std::vector<double>& sorted,
                                         double q) {
  if (sorted.empty()) throw std::invalid_argument("nearest_rank: no samples");
  if (!(q > 0.0 && q <= 1.0))
    throw std::invalid_argument("nearest_rank: q must be in (0, 1]");
  const double n = static_cast<double>(sorted.size());
  // The small epsilon keeps q * n from rounding up past an exact rank
  // (0.99 * 1500 evaluates to 1485.0000000000002).
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly after the nearest-rank position of q.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return rank >= n ? 0 : n - std::max<std::size_t>(rank, 1);
}

/// Percentiles the tail metric may report, highest first.
inline constexpr double kTailCandidates[] = {0.999, 0.99, 0.9};
/// Samples a tail percentile must leave beyond it to be reported.
inline constexpr std::size_t kTailMinBeyond = 10;

/// The tail rule: the highest candidate percentile that leaves at least
/// kTailMinBeyond samples beyond it; 0.5 when even p90 does not.
[[nodiscard]] inline double tail_quantile(std::size_t n) {
  for (const double q : kTailCandidates)
    if (samples_beyond(n, q) >= kTailMinBeyond) return q;
  return 0.5;
}

/// Median of an unsorted sample (mean of the middle pair for even sizes),
/// used to fold repeated runs into one reported value.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median: no samples");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench
