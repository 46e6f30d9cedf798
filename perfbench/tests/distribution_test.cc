// Checks the exact-quantile Distribution against a sorted-vector
// reference: every quantile the benchmark reports (p50, p99, min, max)
// and a sweep of others, across duplicate-heavy, distinct, negative and
// merged inputs, including sizes that cross the compaction threshold.
// Then the quantiles over slices of SlicedDistribution.
//
// Plain executable (no test framework): prints each failure and exits
// non-zero. perfbench/run.py runs it after building; ctest runs it too.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <vector>

#include "distribution.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, double detail = 0.0) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s (%g)\n", what, detail);
    ++failures;
  }
}

// Nearest-rank quantile of a sorted vector: element ceil(q*n), 1-based.
std::int64_t ReferenceQuantile(const std::vector<std::int64_t>& sorted,
                               double q) {
  const auto n = static_cast<double>(sorted.size());
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * n)));
  return sorted[rank - 1];
}

void CheckAgainstReference(const perfbench::Distribution& dist,
                           std::vector<std::int64_t> values,
                           const char* label) {
  std::sort(values.begin(), values.end());
  Check(dist.count() == values.size(), label,
        static_cast<double>(dist.count()));
  for (const double q : {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99,
                         0.999, 1.0}) {
    const std::int64_t got = dist.Quantile(q);
    const std::int64_t want = ReferenceQuantile(values, q);
    if (got != want) {
      std::fprintf(stderr, "  %s q=%g got=%lld want=%lld\n", label, q,
                   static_cast<long long>(got), static_cast<long long>(want));
    }
    Check(got == want, label, q);
  }
  double sum = 0.0;
  for (const std::int64_t v : values) sum += static_cast<double>(v);
  const double mean = sum / static_cast<double>(values.size());
  Check(std::abs(dist.Mean() - mean) <= 1e-9 * (1.0 + std::abs(mean)), label,
        dist.Mean());
}

void SmallExactCases() {
  perfbench::Distribution one;
  one.Add(7);
  Check(one.Quantile(0.0) == 7 && one.Quantile(0.5) == 7 &&
            one.Quantile(1.0) == 7,
        "single sample is every quantile");

  perfbench::Distribution two;
  two.Add(20);
  two.Add(10);
  Check(two.Quantile(0.5) == 10, "p50 of {10,20} is the lower (nearest rank)");
  Check(two.Quantile(0.51) == 20, "p51 of {10,20} is 20");
  Check(two.Quantile(0.0) == 10 && two.Quantile(1.0) == 20,
        "min/max of {10,20}");

  // p99 of 1..100 is 99: exactly one sample beyond it.
  perfbench::Distribution hundred;
  for (int v = 100; v >= 1; --v) hundred.Add(v);
  Check(hundred.Quantile(0.99) == 99, "p99 of 1..100");
  Check(hundred.Quantile(0.5) == 50, "p50 of 1..100");

  // Sparse: a million samples over three values use three bins.
  perfbench::Distribution sparse;
  for (int i = 0; i < 1'000'000; ++i) sparse.Add(i % 10 == 0 ? 900 : 100 + i % 2);
  Check(sparse.bins() == 3, "duplicate-heavy input stays sparse",
        static_cast<double>(sparse.bins()));
  Check(sparse.Quantile(0.5) == 101, "p50 of the two-mode input");
  Check(sparse.Quantile(0.95) == 900, "p95 lands in the slow mode");

  bool threw = false;
  try {
    perfbench::Distribution empty;
    (void)empty.Quantile(0.5);
  } catch (const std::logic_error&) {
    threw = true;
  }
  Check(threw, "quantile of an empty distribution throws");
}

void RandomizedCases() {
  std::mt19937_64 rng(20261017);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{17}, std::size_t{1000}, std::size_t{70000},
        std::size_t{200000}}) {
    // Log-normal-ish durations with a heavy tail, plus signed
    // differences (values below zero must order correctly too).
    std::lognormal_distribution<double> duration(9.0, 0.8);
    std::normal_distribution<double> difference(0.0, 500.0);
    std::vector<std::int64_t> values;
    perfbench::Distribution dist;
    for (std::size_t i = 0; i < n; ++i) {
      const auto v = static_cast<std::int64_t>(
          i % 3 == 0 ? difference(rng) : duration(rng));
      values.push_back(v);
      dist.Add(v);
    }
    CheckAgainstReference(dist, values, "randomized single distribution");

    // Split the same samples over four per-thread distributions and
    // merge: the result must be indistinguishable from one distribution.
    perfbench::Distribution parts[4];
    for (std::size_t i = 0; i < n; ++i) parts[i % 4].Add(values[i]);
    perfbench::Distribution merged;
    for (const auto& part : parts) merged.Merge(part);
    CheckAgainstReference(merged, values, "merged per-thread distributions");
  }
}

void SlicedCases() {
  // Four 100 ns slices starting at t = 1000. Slice 1 is slow throughout:
  // the lower quartile over slices of slice p50s ignores it, the pooled
  // p90 does not.
  perfbench::SlicedDistribution sliced(1000, 100, 4);
  for (int i = 0; i < 50; ++i) {
    sliced.Add(1000 + i, 10 + i % 5);   // slice 0: 10..14
    sliced.Add(1100 + i, 410 + i % 5);  // slice 1: 410..414
    sliced.Add(1250 + i, 20 + i % 5);   // slice 2: 20..24
    sliced.Add(1300 + i, 30 + i % 5);   // slice 3: 30..34
  }
  sliced.Add(1310, 30);  // slice 3 gets one more sample than the rest
  Check(sliced.QuantileOfSliceQuantiles(0.5, 0.25) == 12.0,
        "lower quartile over slices of slice p50s",
        sliced.QuantileOfSliceQuantiles(0.5, 0.25));
  Check(sliced.QuantileOfSliceQuantiles(0.9, 0.5) == 24.0,
        "median over slices of slice p90s",
        sliced.QuantileOfSliceQuantiles(0.9, 0.5));
  Check(sliced.QuantileOfSliceQuantiles(0.5, 1.0) == 412.0,
        "slowest slice's p50", sliced.QuantileOfSliceQuantiles(0.5, 1.0));
  Check(sliced.Pooled().count() == 201, "pooled keeps every sample");
  Check(sliced.Pooled().Quantile(0.9) >= 410, "pooled p90 sees the slow slice",
        static_cast<double>(sliced.Pooled().Quantile(0.9)));
  Check(sliced.QuantileOfSliceRates(0.75) == 50.0 * 1e9 / 100.0,
        "upper quartile over slices of samples per second",
        sliced.QuantileOfSliceRates(0.75));
  Check(sliced.QuantileOfSliceRates(1.0) == 51.0 * 1e9 / 100.0,
        "busiest slice's rate", sliced.QuantileOfSliceRates(1.0));

  // Samples before the start or past the end land in the edge slices;
  // empty slices carry neither a quantile nor a rate.
  perfbench::SlicedDistribution edges(1000, 100, 3);
  edges.Add(0, 1);
  edges.Add(5000, 3);
  Check(edges.Pooled().Quantile(0.0) == 1 && edges.Pooled().Quantile(1.0) == 3,
        "out-of-range samples are clamped into the edge slices");
  Check(edges.QuantileOfSliceQuantiles(0.5, 0.5) == 1.0 &&
            edges.QuantileOfSliceQuantiles(0.5, 0.75) == 3.0,
        "empty slices carry no quantile");
  Check(edges.QuantileOfSliceRates(0.0) == 1e9 / 100.0,
        "empty slices carry no rate", edges.QuantileOfSliceRates(0.0));
  Check(perfbench::SlicedDistribution(0, 100, 3).QuantileOfSliceRates(1.0) ==
            0.0,
        "no rate at all without samples");
}

}  // namespace

int main() {
  SmallExactCases();
  RandomizedCases();
  SlicedCases();
  if (failures != 0) {
    std::fprintf(stderr, "distribution_test: %d failure(s)\n", failures);
    return 1;
  }
  std::fprintf(stderr, "distribution_test: ok\n");
  return 0;
}
