#include "distribution.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {
namespace {

using Bins = std::vector<std::pair<std::int64_t, std::uint64_t>>;

// Merges two value-sorted bin lists, adding the counts of shared values.
Bins MergeBins(const Bins& a, const Bins& b) {
  Bins merged;
  merged.reserve(a.size() + b.size());
  auto x = a.begin();
  auto y = b.begin();
  while (x != a.end() || y != b.end()) {
    if (y == b.end() || (x != a.end() && x->first < y->first)) {
      merged.push_back(*x++);
    } else if (x == a.end() || y->first < x->first) {
      merged.push_back(*y++);
    } else {
      merged.emplace_back(x->first, x->second + y->second);
      ++x;
      ++y;
    }
  }
  return merged;
}

}  // namespace

void Distribution::Add(std::int64_t value) {
  pending_.push_back(value);
  sum_ += static_cast<double>(value);
  if (pending_.size() >= kPendingCapacity) Compact();
}

void Distribution::Merge(const Distribution& other) {
  other.Compact();
  Compact();
  bins_ = MergeBins(bins_, other.bins_);
  total_ += other.total_;
  sum_ += other.sum_;
  cumulative_.clear();
  Compact();
}

void Distribution::Compact() const {
  if (!pending_.empty()) {
    std::sort(pending_.begin(), pending_.end());
    Bins runs;
    for (const std::int64_t value : pending_) {
      if (!runs.empty() && runs.back().first == value) {
        ++runs.back().second;
      } else {
        runs.emplace_back(value, 1);
      }
    }
    bins_ = MergeBins(bins_, runs);
    total_ += pending_.size();
    pending_.clear();
    cumulative_.clear();
  }
  if (cumulative_.size() != bins_.size()) {
    cumulative_.resize(bins_.size());
    std::uint64_t running = 0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
      running += bins_[i].second;
      cumulative_[i] = running;
    }
  }
}

std::int64_t Distribution::Quantile(double q) const {
  Compact();
  if (total_ == 0) throw std::logic_error("quantile of an empty distribution");
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(total_))));
  const auto it =
      std::lower_bound(cumulative_.begin(), cumulative_.end(), rank);
  return bins_[static_cast<std::size_t>(it - cumulative_.begin())].first;
}

double Distribution::Mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum_ / static_cast<double>(n);
}

std::size_t Distribution::bins() const {
  Compact();
  return bins_.size();
}

namespace {

// Nearest-rank quantile of `values`, as Distribution::Quantile; 0 when
// empty.
double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(std::clamp(q, 0.0, 1.0) *
                       static_cast<double>(values.size()))));
  return values[rank - 1];
}

}  // namespace

SlicedDistribution::SlicedDistribution(std::int64_t start_ns,
                                       std::int64_t width_ns,
                                       std::size_t slices)
    : start_ns_(start_ns),
      width_ns_(std::max<std::int64_t>(1, width_ns)),
      slices_(std::max<std::size_t>(1, slices)) {}

void SlicedDistribution::Add(std::int64_t at_ns, std::int64_t value) {
  const std::int64_t offset = std::max<std::int64_t>(0, at_ns - start_ns_);
  const auto slice = std::min<std::size_t>(
      slices_.size() - 1, static_cast<std::size_t>(offset / width_ns_));
  slices_[slice].Add(value);
}

Distribution SlicedDistribution::Pooled() const {
  Distribution pooled;
  for (const Distribution& slice : slices_) pooled.Merge(slice);
  return pooled;
}

double SlicedDistribution::QuantileOfSliceQuantiles(double q,
                                                    double across) const {
  std::vector<double> values;
  for (const Distribution& slice : slices_) {
    if (!slice.empty()) values.push_back(static_cast<double>(slice.Quantile(q)));
  }
  return NearestRank(std::move(values), across);
}

double SlicedDistribution::QuantileOfSliceRates(double across) const {
  std::vector<double> values;
  for (const Distribution& slice : slices_) {
    if (slice.empty()) continue;
    values.push_back(static_cast<double>(slice.count()) * 1e9 /
                     static_cast<double>(width_ns_));
  }
  return NearestRank(std::move(values), across);
}

}  // namespace perfbench
