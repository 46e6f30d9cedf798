#include "stats/column_statistics.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/parallel_sort.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/bounds.h"
#include "core/density.h"
#include "core/histogram_builder.h"
#include "core/range_estimator.h"
#include "distinct/estimators.h"
#include "distinct/frequency_profile.h"
#include "sampling/block_sampler.h"
#include "sampling/reservoir.h"
#include "sampling/row_sampler.h"
#include "stats/histogram_backends.h"
#include "stats/incremental_backend.h"
#include "storage/scan.h"

namespace equihist {
namespace {

// Values whose multiplicity in `sorted` exceeds the ideal bucket size
// become pinned heavy hitters, counts scaled by `scale` (1.0 for a full
// scan).
std::vector<CompressedHistogram::Singleton> CollectHeavyHitters(
    std::span<const Value> sorted, std::uint64_t buckets, double scale) {
  std::vector<CompressedHistogram::Singleton> hitters;
  const double ideal =
      static_cast<double>(sorted.size()) / static_cast<double>(buckets);
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    if (static_cast<double>(j - i) > ideal) {
      const auto scaled = static_cast<std::uint64_t>(
          std::llround(static_cast<double>(j - i) * scale));
      hitters.push_back(CompressedHistogram::Singleton{
          sorted[i], std::max<std::uint64_t>(scaled, 1)});
    }
    i = j;
  }
  return hitters;
}

// Estimated distinct count over a sorted sample: the paper's estimator for
// a proper sample, the exact run count for a full scan.
Result<double> EstimateDistinct(std::span<const Value> sorted, bool sampled,
                                std::uint64_t population) {
  if (sampled) {
    return PaperEstimator(FrequencyProfile::FromSorted(sorted), population);
  }
  std::uint64_t distinct = 0;
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    ++distinct;
    i = j;
  }
  return static_cast<double>(distinct);
}

// The sample-derived fields every sample-driven build fills the same way
// from `sorted`, its sorted sample (or full scan) of a column of `n`
// rows: density, distinct estimate, heavy hitters scaled up to `n`, and
// the provenance of the build.
Result<ColumnStatistics> StatisticsFromSortedSample(
    HistogramModelPtr model, std::span<const Value> sorted, bool sampled,
    std::uint64_t n, std::uint64_t buckets, const IoStats& io) {
  ColumnStatistics stats;
  stats.model = std::move(model);
  stats.density = ComputeDensity(sorted);
  EQUIHIST_ASSIGN_OR_RETURN(stats.distinct_estimate,
                            EstimateDistinct(sorted, sampled, n));
  stats.row_count = n;
  stats.from_full_scan = !sampled;
  stats.sample_size = sorted.size();
  stats.build_cost = io;
  const double scale =
      static_cast<double>(n) / static_cast<double>(sorted.size());
  stats.heavy_hitters = CollectHeavyHitters(sorted, buckets, scale);
  return stats;
}

// The incremental-equi-depth build (DESIGN.md §15): a paper-§4 block
// sample sized for both the Theorem 4 budget and the reservoir capacity
// seeds a BackingReservoir; the published histogram is built from exactly
// what the reservoir holds, so the model and its backing sample agree at
// birth (the differential-test contract).
Result<ColumnStatistics> BuildIncrementalStatistics(
    const Table& table, const BackendBuildOptions& options, ThreadPool* pool) {
  const std::uint64_t n = table.tuple_count();
  if (n == 0) {
    return Status::FailedPrecondition("table is empty");
  }
  const std::uint64_t capacity =
      std::max(options.reservoir_capacity, options.buckets);

  IoStats io;
  std::vector<Value> values;
  if (options.prefer_sampling) {
    EQUIHIST_ASSIGN_OR_RETURN(
        const std::uint64_t deviation,
        DeviationSampleSize(n, options.buckets, options.f, options.gamma));
    const std::uint64_t wanted = std::min(std::max(deviation, capacity), n);
    // Without-replacement page permutation: transient faults retried,
    // permanently unreadable pages skipped and replaced, a skip total over
    // the fault budget fails the build with a typed error the degraded
    // serving layer absorbs.
    IncrementalBlockSampler sampler(&table, options.seed, pool);
    sampler.set_retry_policy(options.retry);
    const std::uint64_t per_page =
        std::max<std::uint64_t>(table.tuples_per_page(), 1);
    while (values.size() < wanted) {
      const std::uint64_t need = wanted - values.size();
      std::vector<Value> batch =
          sampler.NextBatch((need + per_page - 1) / per_page, &io);
      if (batch.empty()) break;  // page permutation exhausted
      values.insert(values.end(), batch.begin(), batch.end());
      if (sampler.pages_skipped() > options.max_skipped_blocks) {
        return Status::DataLoss(
            "block sampling skipped more pages than the fault budget");
      }
    }
    if (values.empty()) {
      return Status::DataLoss("no readable pages to seed the reservoir from");
    }
  } else {
    EQUIHIST_ASSIGN_OR_RETURN(
        values, FullScanChecked(table, &io, pool, options.retry));
  }
  ParallelSort(values, pool);

  EQUIHIST_ASSIGN_OR_RETURN(
      BackingReservoir reservoir,
      BackingReservoir::Create(capacity, options.seed));
  EQUIHIST_RETURN_IF_ERROR(reservoir.SeedFromSample(values, n));
  EQUIHIST_ASSIGN_OR_RETURN(
      HistogramModelPtr model,
      MakeIncrementalModelFromReservoir(std::move(reservoir),
                                        options.buckets));
  return StatisticsFromSortedSample(std::move(model), values,
                                    options.prefer_sampling, n,
                                    options.buckets, io);
}

}  // namespace

void ColumnStatistics::SetEquiHeight(Histogram histogram) {
  model = std::make_shared<EquiHeightModel>(std::move(histogram));
}

const Histogram* ColumnStatistics::equi_height() const {
  const auto* equi = dynamic_cast<const EquiHeightModel*>(model.get());
  return equi != nullptr ? &equi->histogram() : nullptr;
}

const CompiledEstimator* ColumnStatistics::compiled() const {
  const auto* equi = dynamic_cast<const EquiHeightModel*>(model.get());
  return equi != nullptr ? &equi->compiled() : nullptr;
}

const Histogram& ColumnStatistics::histogram() const {
  const Histogram* equi = equi_height();
  if (equi == nullptr) {
    // The assertive accessor exists for equi-height-only code paths; a
    // wrong-family call is a programming error, not a recoverable state.
    std::abort();
  }
  return *equi;
}

double ColumnStatistics::EstimateRangeCount(const RangeQuery& query) const {
  if (model == nullptr) return 0.0;
  return model->EstimateRangeCount(query);
}

void ColumnStatistics::EstimateRangeCounts(std::span<const RangeQuery> queries,
                                           std::span<double> out,
                                           ThreadPool* pool) const {
  if (model == nullptr) {
    std::fill(out.begin(), out.begin() + queries.size(), 0.0);
    return;
  }
  model->EstimateRangeCounts(queries, out, pool);
}

double ColumnStatistics::EstimateEqualityCount(Value value) const {
  // Frequent values are pinned exactly (the compressed-histogram singleton
  // list collected at build time).
  const auto it = std::lower_bound(
      heavy_hitters.begin(), heavy_hitters.end(), value,
      [](const CompressedHistogram::Singleton& s, Value v) {
        return s.value < v;
      });
  if (it != heavy_hitters.end() && it->value == value) {
    return static_cast<double>(it->count);
  }
  // Out-of-domain values match nothing.
  if (model != nullptr &&
      (value <= model->lower_fence() || value > model->upper_fence())) {
    return 0.0;
  }
  // Infrequent value: average multiplicity among the non-heavy values,
  // n_light / d_light — the density-style fallback an optimizer uses when
  // the histogram cannot resolve the value.
  double heavy_mass = 0.0;
  for (const auto& s : heavy_hitters) heavy_mass += static_cast<double>(s.count);
  const double light_mass =
      std::max(static_cast<double>(row_count) - heavy_mass, 0.0);
  const double light_distinct = std::max(
      distinct_estimate - static_cast<double>(heavy_hitters.size()), 1.0);
  return std::max(light_mass / light_distinct, 0.0);
}

double ColumnStatistics::EstimateDistinctFraction() const {
  if (row_count == 0) return 0.0;
  return distinct_estimate / static_cast<double>(row_count);
}

std::string ColumnStatistics::ToString() const {
  std::ostringstream os;
  os << "ColumnStatistics{rows=" << FormatWithThousands(row_count)
     << ", " << (model != nullptr ? model->Describe() : "no histogram")
     << ", density=" << FormatFixed(density, 6)
     << ", distinct~=" << FormatCount(distinct_estimate)
     << ", heavy=" << heavy_hitters.size()
     << ", built from " << (from_full_scan ? "full scan" : "sample")
     << " of " << FormatWithThousands(sample_size) << " tuples ("
     << FormatWithThousands(build_cost.pages_read) << " pages)}";
  return os.str();
}

Result<ColumnStatistics> BuildStatisticsFullScan(const Table& table,
                                                 std::uint64_t buckets,
                                                 ThreadPool* pool) {
  IoStats io;
  // Fault-aware scan: transient faults retried, permanent ones surface as
  // typed errors the StatisticsManager's degraded-serving layer absorbs.
  EQUIHIST_ASSIGN_OR_RETURN(std::vector<Value> values,
                            FullScanChecked(table, &io, pool));
  // Pre-sort in parallel; the ValueSet constructor then detects sorted
  // input and skips its own sequential sort.
  ParallelSort(values, pool);
  const ValueSet data(std::move(values));
  if (data.empty()) {
    return Status::FailedPrecondition("table is empty");
  }
  EQUIHIST_ASSIGN_OR_RETURN(Histogram histogram,
                            BuildPerfectHistogram(data, buckets, pool));

  ColumnStatistics stats;
  stats.SetEquiHeight(std::move(histogram));
  stats.density = ComputeDensity(data.sorted_values());
  stats.distinct_estimate = static_cast<double>(data.DistinctCount());
  stats.row_count = data.size();
  stats.from_full_scan = true;
  stats.sample_size = data.size();
  stats.build_cost = io;

  // Exact heavy hitters: multiplicity above the ideal bucket size.
  stats.heavy_hitters =
      CollectHeavyHitters(data.sorted_values(), buckets, /*scale=*/1.0);
  return stats;
}

Result<ColumnStatistics> BuildStatisticsSampled(const Table& table,
                                                const CvbOptions& options,
                                                ThreadPool* pool) {
  EQUIHIST_ASSIGN_OR_RETURN(CvbResult result, RunCvb(table, options, pool));
  EQUIHIST_ASSIGN_OR_RETURN(
      const double distinct,
      PaperEstimator(result.sample_profile, table.tuple_count()));

  ColumnStatistics stats;
  stats.SetEquiHeight(std::move(result.histogram));
  stats.density = result.density_estimate;
  stats.distinct_estimate = distinct;
  stats.row_count = table.tuple_count();
  stats.from_full_scan = false;
  stats.sample_size = result.tuples_sampled;
  stats.build_cost = result.io;
  stats.heavy_hitters = std::move(result.heavy_hitters);
  return stats;
}

Result<ColumnStatistics> BuildStatisticsWithBackend(
    const Table& table, const BackendBuildOptions& options, ThreadPool* pool) {
  if (options.backend == HistogramBackendId::kEquiHeight) {
    // The paper's own pipeline, untouched: CVB for sampled builds, the
    // exact sort for full scans.
    if (!options.prefer_sampling) {
      return BuildStatisticsFullScan(table, options.buckets, pool);
    }
    CvbOptions cvb;
    cvb.k = options.buckets;
    cvb.f = options.f;
    cvb.gamma = options.gamma;
    cvb.seed = options.seed;
    cvb.threads = 1;  // the caller's pool is passed in explicitly
    cvb.retry = options.retry;
    cvb.max_skipped_blocks = options.max_skipped_blocks;
    return BuildStatisticsSampled(table, cvb, pool);
  }
  if (options.backend == HistogramBackendId::kIncrementalEquiDepth) {
    // The §4 block-sample build that seeds the backing reservoir; the
    // generic row-sample path below cannot carry the reservoir out.
    return BuildIncrementalStatistics(table, options, pool);
  }

  EQUIHIST_ASSIGN_OR_RETURN(
      const HistogramBackendRegistry::Backend backend,
      HistogramBackendRegistry::Global().Find(options.backend));
  const std::uint64_t n = table.tuple_count();
  if (n == 0) {
    return Status::FailedPrecondition("table is empty");
  }

  IoStats io;
  std::vector<Value> values;
  if (options.prefer_sampling) {
    EQUIHIST_ASSIGN_OR_RETURN(
        const std::uint64_t wanted,
        DeviationSampleSize(n, options.buckets, options.f, options.gamma));
    Rng rng(options.seed);
    EQUIHIST_ASSIGN_OR_RETURN(
        values, SampleRowsFromTable(table, std::min(wanted, n), rng, &io,
                                    options.retry));
  } else {
    EQUIHIST_ASSIGN_OR_RETURN(
        values, FullScanChecked(table, &io, pool, options.retry));
  }
  ParallelSort(values, pool);

  EQUIHIST_ASSIGN_OR_RETURN(HistogramModelPtr model,
                            backend.build_from_sample(values, options.buckets,
                                                      n));
  return StatisticsFromSortedSample(std::move(model), values,
                                    options.prefer_sampling, n,
                                    options.buckets, io);
}

Result<ColumnStatistics> MakeIncrementalStatistics(const Histogram& histogram,
                                                   BackingReservoir reservoir) {
  if (reservoir.size() == 0) {
    return Status::FailedPrecondition(
        "cannot assemble statistics from an empty reservoir");
  }
  const std::vector<Value> sorted = reservoir.SortedSample();
  // The reservoir is a uniform without-replacement sample of the live
  // column, so the paper's sampled estimator applies; the build cost is
  // zero storage I/O, the whole point of the path.
  return StatisticsFromSortedSample(
      std::make_shared<IncrementalEquiDepthModel>(histogram,
                                                  std::move(reservoir)),
      sorted, /*sampled=*/true, histogram.total(), histogram.bucket_count(),
      IoStats{});
}

}  // namespace equihist
