// Percentiles over virtual-time RTT samples.
//
// A percentile is reported only when at least `min_beyond` samples lie
// beyond it (ten by default): below that the tail estimate rests on too
// few points to compare runs by. An RPC that never completed enters the
// sample as the time its caller waited for it, so more failures show as a
// worse tail, not as a missing one.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

struct Percentile {
  bool reportable = false;
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples ranked after the reported one
};

/// Nearest-rank percentile of `sorted` (ascending) at quantile `q` in
/// (0, 1]: the value at 1-based rank ceil(q * n).
inline Percentile percentile(const std::vector<double>& sorted, double q,
                             std::size_t min_beyond = 10) {
  Percentile p;
  p.samples = sorted.size();
  if (sorted.empty() || q <= 0 || q > 1) return p;
  std::size_t rank = std::size_t(std::ceil(q * double(sorted.size()) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  p.value = sorted[rank - 1];
  p.beyond = sorted.size() - rank;
  p.reportable = p.beyond >= min_beyond;
  return p;
}

/// Median of a small list of per-repetition figures (mean of the middle
/// two for even counts).
inline double median_of(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perfbench
