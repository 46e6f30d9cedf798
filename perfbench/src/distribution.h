#ifndef PERFBENCH_DISTRIBUTION_H_
#define PERFBENCH_DISTRIBUTION_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// Exact sample distribution of integer-valued measurements — durations in
// nanoseconds, or differences of two durations — kept as a sparse
// histogram: one (value, occurrences) bin per distinct value, sorted by
// value. Timings repeat a few values many times (clock granularity,
// multi-modal timing laws), so the bins stay far smaller than the sample
// count while every quantile stays exact.
//
// Add() appends to a pending buffer in O(1); once the buffer fills it is
// sorted, run-length encoded and merged into the bins, so memory is
// O(distinct values + buffer) however many samples arrive. Quantiles
// compact first and then binary-search the cumulative counts.
//
// Not thread-safe: keep one per thread and Merge() them at the end.
class Distribution {
 public:
  void Add(std::int64_t value);
  void Merge(const Distribution& other);

  std::uint64_t count() const { return total_ + pending_.size(); }
  bool empty() const { return count() == 0; }

  // Nearest-rank quantile: the smallest recorded value v such that at
  // least ceil(q * count()) samples are <= v (q clamped to [0, 1]; q = 0
  // gives the minimum). Requires a non-empty distribution.
  std::int64_t Quantile(double q) const;
  double Mean() const;

  // Distinct values held (after compaction) — the sparse footprint.
  std::size_t bins() const;

 private:
  static constexpr std::size_t kPendingCapacity = 1 << 16;

  // Folds pending_ into bins_ and rebuilds the cumulative counts.
  void Compact() const;

  // Both mutable: compaction is a representation change, not a logical
  // one, and the const readers trigger it lazily.
  mutable std::vector<std::pair<std::int64_t, std::uint64_t>> bins_;
  mutable std::vector<std::uint64_t> cumulative_;
  mutable std::vector<std::int64_t> pending_;
  mutable std::uint64_t total_ = 0;  // samples folded into bins_
  double sum_ = 0.0;
};

// Samples kept per time slice: slice i holds the samples taken in
// [start + i * width, start + (i + 1) * width). On a shared host a
// neighbour's bursts slow stretches of a run by up to 1.7x, for a second
// or two at a time, and the share of slowed time differs from run to run.
// A statistic of the pooled run, or even the median over slices, moves
// with that share. The figures reported are instead a quantile over the
// slices of each slice's statistic, taken on the fast side (a low
// quantile of slice latencies, a high one of slice rates), which stays
// put as long as that fraction of the run is undisturbed.
// Not thread-safe.
class SlicedDistribution {
 public:
  SlicedDistribution() = default;  // one slice
  SlicedDistribution(std::int64_t start_ns, std::int64_t width_ns,
                     std::size_t slices);

  // Records `value`, taken at `at_ns`, in its slice (clamped to the run).
  void Add(std::int64_t at_ns, std::int64_t value);

  Distribution Pooled() const;
  // The `across` quantile (nearest rank) over the non-empty slices of
  // each slice's q-quantile; 0 when every slice is empty.
  double QuantileOfSliceQuantiles(double q, double across) const;
  // The `across` quantile (nearest rank) over the non-empty slices of
  // samples per second; 0 when every slice is empty.
  double QuantileOfSliceRates(double across) const;

  std::int64_t start_ns() const { return start_ns_; }
  std::int64_t width_ns() const { return width_ns_; }

 private:
  std::int64_t start_ns_ = 0;
  std::int64_t width_ns_ = 1;
  std::vector<Distribution> slices_ = std::vector<Distribution>(1);
};

}  // namespace perfbench

#endif  // PERFBENCH_DISTRIBUTION_H_
