// Small pure helpers of the Eden benchmark: percentile selection, the Zipf
// sampler, metric-name validation, medians and the per-layer ledger. They
// touch no simulator state, so helpers_test.cc checks them directly.
#ifndef EDENBENCH_HELPERS_H_
#define EDENBENCH_HELPERS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/rng.h"

namespace edenbench {

// One reportable percentile: the fraction (0.99) and its label ("p99").
struct Percentile {
  double fraction = 0;
  std::string label;
};

// The highest percentile of the ladder p50, p90, p99, p99.9, p99.99 that has
// at least ten samples beyond it among `samples`. Empty label when even p50
// has fewer than ten samples beyond it (fewer than 20 samples).
inline Percentile TailPercentile(uint64_t samples) {
  static const Percentile kLadder[] = {{0.5, "p50"},
                                       {0.9, "p90"},
                                       {0.99, "p99"},
                                       {0.999, "p99.9"},
                                       {0.9999, "p99.99"}};
  Percentile best;
  for (const Percentile& p : kLadder) {
    // Samples strictly beyond the nearest-rank percentile.
    double beyond = static_cast<double>(samples) * (1.0 - p.fraction);
    if (beyond + 1e-9 >= 10.0) {
      best = p;
    }
  }
  return best;
}

// Nearest-rank percentile of an ascending vector (0 when empty).
inline int64_t PercentileOfSorted(const std::vector<int64_t>& sorted,
                                  double fraction) {
  if (sorted.empty()) {
    return 0;
  }
  double rank = std::ceil(fraction * static_cast<double>(sorted.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

// Median of `values` (0 when empty); the mean of the middle two for an even
// count.
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

// Zipf(s) over ranks 0..n-1: P(rank k) is proportional to 1 / (k+1)^s.
// Sampling inverts the cumulative table, so a given Rng state always yields
// the same rank.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t k = 0; k < n; k++) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }

  size_t Sample(eden::Rng& rng) const {
    double u = rng.NextDouble();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// Metric names are non-empty and use only [A-Za-z0-9_.-].
inline bool ValidMetricName(std::string_view name) {
  if (name.empty()) {
    return false;
  }
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

// Host-time ledger: each layer's estimated share of the host nanoseconds one
// invocation costs, from an isolated probe cost times the layer's work per
// invocation. `unexplained` is what the estimates leave over (negative when
// they over-explain), so the shares plus `unexplained` sum to 1.
struct LedgerEntry {
  std::string layer;
  double share = 0;
};

struct Ledger {
  std::vector<LedgerEntry> entries;
  double unexplained = 1;
};

inline Ledger BuildLedger(double host_ns_per_inv,
                          std::vector<std::pair<std::string, double>> costs) {
  Ledger ledger;
  double explained = 0;
  for (auto& [layer, ns] : costs) {
    double share = host_ns_per_inv > 0 ? ns / host_ns_per_inv : 0;
    ledger.entries.push_back(LedgerEntry{layer, share});
    explained += share;
  }
  ledger.unexplained = 1.0 - explained;
  return ledger;
}

}  // namespace edenbench

#endif  // EDENBENCH_HELPERS_H_
