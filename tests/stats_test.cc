#include "stats/column_statistics.h"
#include "stats/statistics_manager.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/density.h"
#include "data/distribution.h"
#include "data/value_set.h"

namespace equihist {
namespace {

constexpr PageConfig kPage{8192, 64};

Table SkewedTable(std::uint64_t n = 200000, std::uint64_t seed = 3) {
  const auto freq =
      MakeZipf({.n = n, .domain_size = n / 50, .skew = 1.5, .seed = seed});
  return Table::Create(*freq, kPage, {.kind = LayoutKind::kRandom, .seed = seed})
      .value();
}

ValueSet SkewedTruth(std::uint64_t n = 200000, std::uint64_t seed = 3) {
  const auto freq =
      MakeZipf({.n = n, .domain_size = n / 50, .skew = 1.5, .seed = seed});
  return ValueSet::FromFrequencies(*freq);
}

TEST(ColumnStatisticsTest, FullScanIsExact) {
  Table table = SkewedTable();
  ValueSet truth = SkewedTruth();
  const auto stats = BuildStatisticsFullScan(table, 50);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->from_full_scan);
  EXPECT_EQ(stats->row_count, truth.size());
  EXPECT_DOUBLE_EQ(stats->distinct_estimate,
                   static_cast<double>(truth.DistinctCount()));
  EXPECT_EQ(stats->build_cost.pages_read, table.page_count());
  EXPECT_EQ(stats->sample_size, truth.size());
}

TEST(ColumnStatisticsTest, SampledCostsLessThanFullScan) {
  Table table = SkewedTable();
  CvbOptions options;
  options.k = 50;
  options.f = 0.2;
  const auto sampled = BuildStatisticsSampled(table, options);
  const auto full = BuildStatisticsFullScan(table, 50);
  ASSERT_TRUE(sampled.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(sampled->from_full_scan);
  EXPECT_LT(sampled->build_cost.pages_read, full->build_cost.pages_read);
}

TEST(ColumnStatisticsTest, SampledStatisticsTrackTruth) {
  Table table = SkewedTable();
  ValueSet truth = SkewedTruth();
  CvbOptions options;
  options.k = 50;
  options.f = 0.15;
  const auto stats = BuildStatisticsSampled(table, options);
  ASSERT_TRUE(stats.ok());

  const double true_density = ComputeDensity(truth.sorted_values());
  EXPECT_NEAR(stats->density, true_density, 0.25 * true_density);

  // rel-error of the distinct estimate is small even if the ratio is not.
  const double d = static_cast<double>(truth.DistinctCount());
  EXPECT_LT(std::abs(d - stats->distinct_estimate) /
                static_cast<double>(truth.size()),
            0.05);
}

TEST(ColumnStatisticsTest, EqualityEstimatePinsHeavyHitters) {
  // One value holds 40% of the table.
  FrequencyVector fv({{100, 40000}, {200, 30000}, {300, 30000}});
  ValueSet truth = ValueSet::FromFrequencies(fv);
  Table table = Table::Create(fv, kPage, {.kind = LayoutKind::kRandom}).value();
  const auto stats = BuildStatisticsFullScan(table, 10);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->heavy_hitters.size(), 3u);
  EXPECT_DOUBLE_EQ(stats->EstimateEqualityCount(100), 40000.0);
  EXPECT_DOUBLE_EQ(stats->EstimateEqualityCount(200), 30000.0);
  // Out-of-domain probes estimate zero.
  EXPECT_DOUBLE_EQ(stats->EstimateEqualityCount(-5), 0.0);
  EXPECT_DOUBLE_EQ(stats->EstimateEqualityCount(9999), 0.0);
}

TEST(ColumnStatisticsTest, EqualityEstimateFallsBackForLightValues) {
  Table table = SkewedTable();
  ValueSet truth = SkewedTruth();
  const auto stats = BuildStatisticsFullScan(table, 50);
  ASSERT_TRUE(stats.ok());
  // Pick a light (non-heavy) value: the largest value in the domain is in
  // the Zipf tail with overwhelming probability under shuffled placement.
  const Value probe = truth.max();
  const double estimate = stats->EstimateEqualityCount(probe);
  const double actual =
      static_cast<double>(truth.CountInRange(probe - 1, probe));
  // The fallback is the average light multiplicity: same order, not exact.
  EXPECT_GT(estimate, 0.0);
  EXPECT_LT(estimate, 50.0 * std::max(actual, 1.0));
}

TEST(ColumnStatisticsTest, DistinctFractionAndToString) {
  Table table = SkewedTable();
  const auto stats = BuildStatisticsFullScan(table, 50);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->EstimateDistinctFraction(), 0.0);
  EXPECT_LE(stats->EstimateDistinctFraction(), 1.0);
  EXPECT_NE(stats->ToString().find("full scan"), std::string::npos);
}

TEST(StatisticsManagerTest, BuildsOnFirstAccessAndCaches) {
  Table table = SkewedTable();
  StatisticsManager manager({.buckets = 50, .f = 0.2});
  const auto first = manager.GetOrBuild("t.x", table);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(manager.rebuild_count(), 1u);
  const auto second = manager.GetOrBuild("t.x", table);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);  // same cached pointer
  EXPECT_EQ(manager.rebuild_count(), 1u);
  EXPECT_TRUE(manager.Has("t.x"));
  EXPECT_EQ(manager.size(), 1u);
}

TEST(StatisticsManagerTest, StalenessFollowsModificationCounter) {
  Table table = SkewedTable();
  StatisticsManager manager(
      {.buckets = 50, .f = 0.2, .staleness_threshold = 0.2});
  ASSERT_TRUE(manager.GetOrBuild("t.x", table).ok());
  EXPECT_FALSE(manager.IsStale("t.x"));
  manager.RecordModifications("t.x", table.tuple_count() / 10);  // 10%
  EXPECT_FALSE(manager.IsStale("t.x"));
  manager.RecordModifications("t.x", table.tuple_count() / 4);  // +25%
  EXPECT_TRUE(manager.IsStale("t.x"));
}

TEST(StatisticsManagerTest, EnsureFreshRebuildsWhenStale) {
  Table table = SkewedTable();
  StatisticsManager manager({.buckets = 50, .f = 0.2});
  ASSERT_TRUE(manager.GetOrBuild("t.x", table).ok());
  manager.RecordModifications("t.x", table.tuple_count());  // 100% modified
  const auto fresh = manager.EnsureFresh("t.x", table);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(manager.rebuild_count(), 2u);
  EXPECT_FALSE(manager.IsStale("t.x"));
}

TEST(StatisticsManagerTest, EnsureFreshNoopWhenFresh) {
  Table table = SkewedTable();
  StatisticsManager manager({.buckets = 50, .f = 0.2});
  ASSERT_TRUE(manager.EnsureFresh("t.x", table).ok());
  ASSERT_TRUE(manager.EnsureFresh("t.x", table).ok());
  EXPECT_EQ(manager.rebuild_count(), 1u);
}

TEST(StatisticsManagerTest, DropForgetsColumn) {
  Table table = SkewedTable();
  StatisticsManager manager({.buckets = 50, .f = 0.2});
  ASSERT_TRUE(manager.GetOrBuild("t.x", table).ok());
  EXPECT_TRUE(manager.Drop("t.x"));
  EXPECT_FALSE(manager.Drop("t.x"));
  EXPECT_FALSE(manager.Has("t.x"));
}

TEST(StatisticsManagerTest, TracksCumulativeBuildCost) {
  Table table = SkewedTable();
  StatisticsManager manager({.buckets = 50, .f = 0.2});
  ASSERT_TRUE(manager.GetOrBuild("a", table).ok());
  const std::uint64_t after_one = manager.total_build_cost().pages_read;
  EXPECT_GT(after_one, 0u);
  ASSERT_TRUE(manager.GetOrBuild("b", table).ok());
  EXPECT_GT(manager.total_build_cost().pages_read, after_one);
}

TEST(StatisticsManagerTest, FullScanModeIsExact) {
  Table table = SkewedTable();
  StatisticsManager manager(
      {.buckets = 50, .f = 0.2, .prefer_sampling = false});
  const auto stats = manager.GetOrBuild("t.x", table);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE((*stats)->from_full_scan);
}

// -- Modification accounting across a build -----------------------------------
//
// A deterministic mid-build hook: an external backend (id from the >= 128
// range) whose build step runs a test-settable callback before returning a
// trivial model. Lets a single-threaded test interleave DML with a build
// at an exact point.

constexpr auto kMidBuildHookId = static_cast<HistogramBackendId>(201);

std::function<void()>& MidBuildHook() {
  static std::function<void()> hook;
  return hook;
}

class MidBuildHookModel final : public HistogramModel {
 public:
  MidBuildHookModel(std::uint64_t total, Value lo, Value hi)
      : total_(total), lo_(lo), hi_(hi) {}

  HistogramBackendId backend_id() const override { return kMidBuildHookId; }
  double EstimateRangeCount(const RangeQuery& query) const override {
    return (query.hi > lo_ && query.lo < hi_) ? static_cast<double>(total_)
                                              : 0.0;
  }
  std::uint64_t bucket_count() const override { return 1; }
  std::uint64_t total() const override { return total_; }
  Value lower_fence() const override { return lo_; }
  Value upper_fence() const override { return hi_; }
  std::size_t MemoryBytes() const override { return sizeof(*this); }
  std::string Describe() const override { return "MidBuildHook"; }
  void SerializePayload(std::vector<std::uint8_t>*) const override {}

 private:
  std::uint64_t total_;
  Value lo_;
  Value hi_;
};

void RegisterMidBuildHookBackendOnce() {
  static const bool registered = [] {
    HistogramBackendRegistry::Backend backend;
    backend.name = "mid-build-hook";
    backend.build_from_sample =
        [](std::span<const Value> sample, std::uint64_t,
           std::uint64_t population_size) -> Result<HistogramModelPtr> {
      if (sample.empty()) {
        return Status::InvalidArgument("mid-build hook needs a sample");
      }
      if (MidBuildHook()) MidBuildHook()();
      return HistogramModelPtr(std::make_shared<MidBuildHookModel>(
          population_size, sample.front() - 1, sample.back()));
    };
    backend.deserialize_payload =
        [](std::span<const std::uint8_t>,
           std::size_t* consumed) -> Result<HistogramModelPtr> {
      *consumed = 0;
      return HistogramModelPtr(std::make_shared<MidBuildHookModel>(0, 0, 1));
    };
    const Status status = HistogramBackendRegistry::Global().Register(
        kMidBuildHookId, std::move(backend));
    EXPECT_TRUE(status.ok()) << status.ToString();
    return true;
  }();
  (void)registered;
}

// Regression: publishing a build used to reset the modification counter to
// zero wholesale — erasing DML recorded while the build was running, so a
// column modified during its own rebuild looked fresh. The publish now
// subtracts only the modifications the build actually observed at capture
// time.
TEST(StatisticsManagerTest, ModificationsDuringBuildSurviveThePublish) {
  RegisterMidBuildHookBackendOnce();
  Table table = SkewedTable();
  StatisticsManager::Options options;
  options.buckets = 16;
  options.f = 0.2;
  options.staleness_threshold = 0.2;
  options.threads = 1;
  options.column_backends["t.x"] = kMidBuildHookId;
  StatisticsManager manager(options);
  MidBuildHook() = [&manager, &table] {
    manager.RecordModifications("t.x", table.tuple_count());
  };
  ASSERT_TRUE(manager.GetOrBuild("t.x", table).ok());
  MidBuildHook() = nullptr;
  // 100% of the rows changed while the build ran: the snapshot just
  // published is already stale and the next EnsureFresh must rebuild.
  EXPECT_TRUE(manager.IsStale("t.x"));
  ASSERT_TRUE(manager.EnsureFresh("t.x", table).ok());
  EXPECT_EQ(manager.rebuild_count(), 2u);
  EXPECT_FALSE(manager.IsStale("t.x"));
}

// The complementary direction: modifications recorded *before* a build
// starts are consumed by the publish (exactly those, no more).
TEST(StatisticsManagerTest, PublishConsumesOnlyCapturedModifications) {
  RegisterMidBuildHookBackendOnce();
  Table table = SkewedTable();
  StatisticsManager::Options options;
  options.buckets = 16;
  options.f = 0.2;
  options.staleness_threshold = 0.2;
  options.threads = 1;
  options.column_backends["t.x"] = kMidBuildHookId;
  StatisticsManager manager(options);
  ASSERT_TRUE(manager.GetOrBuild("t.x", table).ok());
  manager.RecordModifications("t.x", table.tuple_count());
  ASSERT_TRUE(manager.IsStale("t.x"));
  ASSERT_TRUE(manager.EnsureFresh("t.x", table).ok());
  EXPECT_FALSE(manager.IsStale("t.x"));
}

// Regression: a Drop that lands while the serving path's first build of a
// column is running used to send the resolver round a bounded retry loop;
// a Drop winning every round ended the estimate with kInternal. The
// resolver now serves the snapshot its own build returned, uncached.
TEST(StatisticsManagerTest, EstimateServesItsBuildWhenADropRacesIt) {
  RegisterMidBuildHookBackendOnce();
  Table table = SkewedTable();
  StatisticsManager::Options options;
  options.buckets = 16;
  options.f = 0.2;
  options.threads = 1;
  options.column_backends["t.x"] = kMidBuildHookId;
  StatisticsManager manager(options);
  MidBuildHook() = [&manager] { manager.Drop("t.x"); };
  const RangeQuery everything{std::numeric_limits<Value>::min(),
                              std::numeric_limits<Value>::max()};
  const auto estimate = manager.EstimateRange("t.x", table, everything);
  MidBuildHook() = nullptr;
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  EXPECT_EQ(*estimate, static_cast<double>(table.tuple_count()));
  EXPECT_EQ(manager.rebuild_count(), 1u);
  EXPECT_FALSE(manager.Has("t.x"));
  // Nothing was cached for the dropped column: the next estimate resolves
  // through the map, builds once more, and later ones hit the cache.
  ASSERT_TRUE(manager.EstimateRange("t.x", table, everything).ok());
  ASSERT_TRUE(manager.EstimateRange("t.x", table, everything).ok());
  EXPECT_EQ(manager.rebuild_count(), 2u);
}

}  // namespace
}  // namespace equihist
