#ifndef SPADE_E2EBENCH_E2E_STATS_H_
#define SPADE_E2EBENCH_E2E_STATS_H_

/// \file stats.h
/// \brief Order statistics for benchmark samples. Every statistic carries
/// the sample count it came from, so a reader can tell a p99 of 1000
/// samples (ten beyond it) from the slowest of six.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace spade {
namespace e2e {

/// One order statistic and the number of samples behind it.
struct Stat {
  double value = 0;
  size_t n = 0;
};

/// Median (mean of the two middle samples when n is even).
inline Stat Median(std::vector<double> samples) {
  Stat s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  s.value = samples.size() % 2 == 1 ? samples[mid]
                                    : 0.5 * (samples[mid - 1] + samples[mid]);
  return s;
}

/// The highest nearest-rank percentile that has at least ten samples beyond
/// it: the 11th-largest sample. Below 21 samples that would fall under the
/// median, so it is the median.
inline Stat Tail(std::vector<double> samples) {
  if (samples.size() < 21) return Median(std::move(samples));
  Stat s;
  s.n = samples.size();
  std::sort(samples.begin(), samples.end());
  s.value = samples[samples.size() - 11];
  return s;
}

/// First and third quartile by the same rule as Python's
/// statistics.quantiles(data, n=4) (method "exclusive"), so spreads printed
/// here match the ones compare.py computes over whole runs. Needs n >= 2.
inline void Quartiles(std::vector<double> samples, double* q1, double* q3) {
  *q1 = *q3 = 0;
  const size_t n = samples.size();
  if (n == 0) return;
  std::sort(samples.begin(), samples.end());
  if (n == 1) {
    *q1 = *q3 = samples[0];
    return;
  }
  // CPython's integer arithmetic, clamp included (it extrapolates at the
  // ends for tiny n).
  const long ld = static_cast<long>(n);
  auto at = [&](long i) {
    long j = i * (ld + 1) / 4;
    j = std::min(std::max(j, 1L), ld - 1);
    const double delta = static_cast<double>(i * (ld + 1) - j * 4);
    return (samples[j - 1] * (4 - delta) + samples[j] * delta) / 4;
  };
  *q1 = at(1);
  *q3 = at(3);
}

}  // namespace e2e
}  // namespace spade

#endif  // SPADE_E2EBENCH_E2E_STATS_H_
