#include "core/compiled_estimator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/histogram.h"
#include "core/histogram_builder.h"
#include "core/range_estimator.h"
#include "data/distribution.h"
#include "data/value_set.h"
#include "data/workload.h"
#include "stats/histogram_model.h"

namespace equihist {
namespace {

constexpr Value kValueMin = std::numeric_limits<Value>::min();
constexpr Value kValueMax = std::numeric_limits<Value>::max();

// The documented numerical contract: compiled estimates agree with the
// reference loop within a handful of ulps of the largest bucket count.
double Tolerance(const Histogram& histogram) {
  std::uint64_t max_count = 0;
  for (const std::uint64_t c : histogram.counts()) {
    max_count = std::max(max_count, c);
  }
  return 1e-10 * (1.0 + static_cast<double>(max_count));
}

// Asserts the compiled estimator matches the reference on `query`.
void ExpectAgreement(const Histogram& histogram,
                     const CompiledEstimator& compiled,
                     const RangeQuery& query) {
  const double reference = EstimateRangeCount(histogram, query);
  const double fast = compiled.EstimateRangeCount(query);
  ASSERT_NEAR(fast, reference, Tolerance(histogram))
      << "query (" << query.lo << ", " << query.hi << "] over k="
      << histogram.bucket_count() << " fences [" << histogram.lower_fence()
      << ", " << histogram.upper_fence() << "]";
}

// A random histogram with optional duplicated-separator runs: random
// non-decreasing separators (repetition probability `dup_prob`) between
// random fences, random counts.
Histogram RandomHistogram(Rng& rng, std::uint64_t k, Value lower, Value upper,
                          double dup_prob) {
  std::vector<Value> separators;
  separators.reserve(k - 1);
  Value prev = lower;
  for (std::uint64_t j = 0; j + 1 < k; ++j) {
    if (!separators.empty() && rng.NextDouble() < dup_prob) {
      separators.push_back(prev);  // extend a duplicated run
      continue;
    }
    // Keep separators strictly inside the fences so buckets of genuine
    // width exist alongside the spikes.
    const Value lo = prev;
    const Value hi = upper - 1;
    separators.push_back(lo >= hi ? lo : rng.NextInRange(lo, hi));
    prev = separators.back();
  }
  std::vector<std::uint64_t> counts;
  counts.reserve(k);
  for (std::uint64_t j = 0; j < k; ++j) {
    counts.push_back(static_cast<std::uint64_t>(rng.NextInRange(0, 5000)));
  }
  if (std::all_of(counts.begin(), counts.end(),
                  [](std::uint64_t c) { return c == 0; })) {
    counts[0] = 1;  // keep the histogram non-degenerate
  }
  return Histogram::Create(std::move(separators), std::move(counts), lower,
                           upper)
      .value();
}

// A query generator that mixes in-domain, boundary-aligned, out-of-domain,
// empty and reversed ranges over the domain [lf, uf] with separators `seps`.
RangeQuery RandomQuery(Rng& rng, Value lf, Value uf,
                       const std::vector<Value>& seps) {
  switch (rng.NextInRange(0, 5)) {
    case 0: {  // separator-aligned: exact agreement expected
      if (!seps.empty()) {
        const Value a = seps[static_cast<std::size_t>(
            rng.NextInRange(0, static_cast<std::int64_t>(seps.size()) - 1))];
        const Value b = seps[static_cast<std::size_t>(
            rng.NextInRange(0, static_cast<std::int64_t>(seps.size()) - 1))];
        return {std::min(a, b), std::max(a, b)};
      }
      return {lf, uf};
    }
    case 1:  // wide, overshooting both fences
      return {lf == kValueMin ? kValueMin : lf - 1,
              uf == kValueMax ? kValueMax : uf + 1};
    case 2: {  // empty / reversed
      const Value v = rng.NextInRange(lf, uf);
      return rng.NextDouble() < 0.5
                 ? RangeQuery{v, v}
                 : RangeQuery{std::max(v, lf + 1), std::max(v, lf + 1) - 1};
    }
    case 3: {  // entirely out of domain
      return rng.NextDouble() < 0.5
                 ? RangeQuery{uf, uf == kValueMax ? kValueMax : uf + 100}
                 : RangeQuery{lf == kValueMin ? kValueMin : lf - 100, lf};
    }
    default: {  // general in-domain range
      const Value a = rng.NextInRange(lf, uf);
      const Value b = rng.NextInRange(lf, uf);
      return {std::min(a, b), std::max(a, b)};
    }
  }
}

RangeQuery RandomQuery(Rng& rng, const Histogram& histogram) {
  return RandomQuery(rng, histogram.lower_fence(), histogram.upper_fence(),
                     histogram.separators());
}

std::vector<RangeQuery> MakeQueries(Rng& rng, const Histogram& histogram,
                                    std::size_t n) {
  std::vector<RangeQuery> queries;
  queries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    queries.push_back(RandomQuery(rng, histogram));
  }
  return queries;
}

// Bit-level comparison: catches sign-of-zero and NaN-payload divergence
// that operator== would wave through.
::testing::AssertionResult BitEqual(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " (0x" << std::hex << std::bit_cast<std::uint64_t>(a)
         << ") != " << std::dec << b << " (0x" << std::hex
         << std::bit_cast<std::uint64_t>(b) << ")";
}

// Every call shape, one bit pattern: the sequential batch and the
// pool-sharded batch both equal the single-query estimate.
void ExpectBatchAndPoolBitwiseIdentical(const CompiledEstimator& compiled,
                                        std::span<const RangeQuery> queries,
                                        ThreadPool* pool) {
  const std::size_t n = queries.size();
  std::vector<double> batch(n), sharded(n);
  compiled.EstimateRangeCounts(queries, batch, nullptr);
  compiled.EstimateRangeCounts(queries, sharded, pool);
  for (std::size_t i = 0; i < n; ++i) {
    const double single = compiled.EstimateRangeCount(queries[i]);
    ASSERT_TRUE(BitEqual(batch[i], single))
        << "batch vs single-query at " << i << " query (" << queries[i].lo
        << ", " << queries[i].hi << "]";
    ASSERT_TRUE(BitEqual(sharded[i], single))
        << "pool-sharded vs single-query at " << i << " query ("
        << queries[i].lo << ", " << queries[i].hi << "]";
  }
}

TEST(CompiledEstimatorTest, DifferentialAgainstReferenceOnRandomHistograms) {
  Rng rng(20260806);
  int cases = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::uint64_t k =
        static_cast<std::uint64_t>(rng.NextInRange(1, 300));
    const Value lower = rng.NextInRange(-1000000, 999999);
    const Value upper = rng.NextInRange(lower + 1, 1000000);
    const double dup_prob = (trial % 3 == 0) ? 0.4 : 0.0;
    const Histogram histogram = RandomHistogram(rng, k, lower, upper, dup_prob);
    const CompiledEstimator compiled(histogram);
    ASSERT_EQ(compiled.bucket_count(), histogram.bucket_count());
    ASSERT_DOUBLE_EQ(compiled.total(),
                     static_cast<double>(histogram.total()));
    for (int q = 0; q < 80; ++q) {
      ExpectAgreement(histogram, compiled, RandomQuery(rng, histogram));
      ++cases;
    }
  }
  // Thousands of randomized cases, per the differential-test contract.
  EXPECT_GE(cases, 4000);
}

TEST(CompiledEstimatorTest, DifferentialWithExtremeFences) {
  // Buckets spanning more than half the int64 domain: interpolation must
  // not overflow (this is what ValueDistance exists for).
  Rng rng(7);
  const Histogram histogram =
      RandomHistogram(rng, 17, kValueMin, kValueMax, 0.25);
  const CompiledEstimator compiled(histogram);
  ExpectAgreement(histogram, compiled, {kValueMin, kValueMax});
  ExpectAgreement(histogram, compiled, {kValueMin, 0});
  ExpectAgreement(histogram, compiled, {0, kValueMax});
  ExpectAgreement(histogram, compiled, {kValueMin, kValueMin});
  ExpectAgreement(histogram, compiled, {kValueMax, kValueMax});
  for (int q = 0; q < 500; ++q) {
    ExpectAgreement(histogram, compiled, RandomQuery(rng, histogram));
  }
}

TEST(CompiledEstimatorTest, DifferentialOnBuiltHistograms) {
  // Histograms produced by the real builder over skewed data, where heavy
  // values become genuine duplicated-separator runs.
  Rng rng(99);
  for (const double skew : {0.0, 1.0, 2.0}) {
    const auto freqs = MakeZipf({.n = 20000,
                                 .domain_size = 500,
                                 .skew = skew,
                                 .seed = 5});
    ASSERT_TRUE(freqs.ok());
    const ValueSet data = ValueSet::FromFrequencies(*freqs);
    const Histogram histogram = BuildPerfectHistogram(data, 50).value();
    const CompiledEstimator compiled(histogram);
    for (int q = 0; q < 400; ++q) {
      ExpectAgreement(histogram, compiled, RandomQuery(rng, histogram));
    }
  }
}

TEST(CompiledEstimatorTest, ExactOnSeparatorAlignedQueries) {
  // Aligned queries touch no partial bucket, so agreement is bit-for-bit.
  const auto h =
      Histogram::Create({100, 200, 300}, {10, 20, 30, 40}, 0, 400).value();
  const CompiledEstimator compiled(h);
  for (const Value lo : {0, 100, 200, 300}) {
    for (const Value hi : {0, 100, 200, 300, 400}) {
      EXPECT_EQ(compiled.EstimateRangeCount({lo, hi}),
                EstimateRangeCount(h, {lo, hi}))
          << lo << " " << hi;
    }
  }
}

TEST(CompiledEstimatorTest, SpikeSemanticsMatchReferenceExactly) {
  // The reference test's spike fixture: bucket (5,5] holds a 400-tuple
  // spike at value 5 (Section 5 duplicated-separator representation).
  const auto h =
      Histogram::Create({5, 5, 10}, {100, 400, 100, 100}, 0, 20).value();
  const CompiledEstimator compiled(h);
  EXPECT_DOUBLE_EQ(compiled.EstimateRangeCount({4, 5}),
                   100.0 / 5.0 * 1.0 + 400.0);
  EXPECT_DOUBLE_EQ(compiled.EstimateRangeCount({5, 20}), 200.0);
  EXPECT_DOUBLE_EQ(compiled.EstimateRangeCount({0, 20}), 700.0);
  EXPECT_DOUBLE_EQ(compiled.SpikeMassAt(5), 400.0);
  EXPECT_DOUBLE_EQ(compiled.SpikeMassAt(10), 0.0);
  EXPECT_DOUBLE_EQ(compiled.SpikeMassAt(4), 0.0);
}

TEST(CompiledEstimatorTest, SpikeMassOnLeadingRun) {
  // A duplicated run at the very first separator, and a triple run: the
  // spike buckets are every zero-width bucket of the run.
  const auto h =
      Histogram::Create({1, 1, 7, 7, 7}, {50, 60, 10, 70, 80, 5}, 1, 9)
          .value();
  const CompiledEstimator compiled(h);
  // Bucket 0 = (1,1] zero-width (lower fence == separator), bucket 1 =
  // (1,1] zero-width: the run at value 1 pins 50 + 60.
  EXPECT_DOUBLE_EQ(compiled.SpikeMassAt(1), 110.0);
  EXPECT_DOUBLE_EQ(compiled.SpikeMassAt(7), 150.0);  // buckets (7,7] twice
  EXPECT_DOUBLE_EQ(compiled.SpikeMassAt(9), 0.0);
}

TEST(CompiledEstimatorTest, BucketIndexMatchesHistogram) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t k =
        static_cast<std::uint64_t>(rng.NextInRange(1, 60));
    const Histogram histogram = RandomHistogram(rng, k, -500, 500, 0.3);
    const CompiledEstimator compiled(histogram);
    for (Value v = histogram.lower_fence();
         v <= histogram.upper_fence(); ++v) {
      ASSERT_EQ(compiled.BucketIndexForValue(v),
                histogram.BucketIndexForValue(v))
          << "value " << v << " trial " << trial;
    }
  }
}

TEST(CompiledEstimatorTest, CountAtMostIsAMonotoneCdf) {
  Rng rng(55);
  const Histogram histogram = RandomHistogram(rng, 40, 0, 10000, 0.2);
  const CompiledEstimator compiled(histogram);
  EXPECT_DOUBLE_EQ(compiled.EstimateCountAtMost(histogram.lower_fence()), 0.0);
  EXPECT_DOUBLE_EQ(compiled.EstimateCountAtMost(histogram.upper_fence()),
                   static_cast<double>(histogram.total()));
  EXPECT_DOUBLE_EQ(compiled.EstimateCountAtMost(kValueMax),
                   static_cast<double>(histogram.total()));
  EXPECT_DOUBLE_EQ(compiled.EstimateCountAtMost(kValueMin), 0.0);
  double prev = 0.0;
  for (Value x = 0; x <= 10000; x += 13) {
    const double f = compiled.EstimateCountAtMost(x);
    EXPECT_GE(f, prev) << "CDF must be monotone at x=" << x;
    prev = f;
  }
}

TEST(CompiledEstimatorTest, DegenerateSingleBucketAndPointDomain) {
  // k = 1: no separators at all.
  const auto single = Histogram::Create({}, {42}, 0, 100).value();
  const CompiledEstimator one(single);
  EXPECT_DOUBLE_EQ(one.EstimateRangeCount({0, 100}), 42.0);
  EXPECT_DOUBLE_EQ(one.EstimateRangeCount({0, 50}), 21.0);
  EXPECT_DOUBLE_EQ(one.EstimateRangeCount({200, 300}), 0.0);
  EXPECT_EQ(one.BucketIndexForValue(50), single.BucketIndexForValue(50));

  // lower fence == upper fence: the whole domain is one point.
  const auto point = Histogram::Create({}, {7}, 5, 5).value();
  const CompiledEstimator pt(point);
  EXPECT_DOUBLE_EQ(pt.EstimateRangeCount({4, 5}),
                   EstimateRangeCount(point, {4, 5}));
  EXPECT_DOUBLE_EQ(pt.EstimateRangeCount({5, 6}),
                   EstimateRangeCount(point, {5, 6}));
  EXPECT_DOUBLE_EQ(pt.EstimateRangeCount({0, 10}),
                   EstimateRangeCount(point, {0, 10}));
}

TEST(CompiledEstimatorTest, SelectivityNormalizes) {
  const auto h =
      Histogram::Create({100, 200, 300}, {10, 20, 30, 40}, 0, 400).value();
  const CompiledEstimator compiled(h);
  EXPECT_DOUBLE_EQ(compiled.EstimateRangeSelectivity({0, 400}), 1.0);
  EXPECT_DOUBLE_EQ(compiled.EstimateRangeSelectivity({0, 100}), 0.1);
  EXPECT_DOUBLE_EQ(compiled.EstimateRangeSelectivity({500, 600}), 0.0);
}

TEST(CompiledEstimatorTest, BatchMatchesSequentialBitwise) {
  Rng rng(777);
  const Histogram histogram = RandomHistogram(rng, 200, -100000, 100000, 0.1);
  const CompiledEstimator compiled(histogram);
  std::vector<RangeQuery> queries;
  queries.reserve(5000);
  for (int q = 0; q < 5000; ++q) {
    queries.push_back(RandomQuery(rng, histogram));
  }
  std::vector<double> expected(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expected[i] = compiled.EstimateRangeCount(queries[i]);
  }
  // Null pool (sequential), then pools of 2 and 8 threads: all bitwise
  // identical, since the batch path only shards independent queries.
  std::vector<double> out(queries.size(), -1.0);
  compiled.EstimateRangeCounts(queries, out, nullptr);
  EXPECT_EQ(out, expected);
  for (const std::size_t threads : {2ul, 8ul}) {
    ThreadPool pool(threads);
    std::fill(out.begin(), out.end(), -1.0);
    compiled.EstimateRangeCounts(queries, out, &pool);
    EXPECT_EQ(out, expected) << threads << " threads";
  }
}

TEST(CompiledEstimatorTest, SmallBatchSkipsThePool) {
  // Below the parallel threshold the pool must not be touched; results
  // are still correct.
  const auto h = Histogram::Create({10}, {5, 5}, 0, 20).value();
  const CompiledEstimator compiled(h);
  ThreadPool pool(2);
  const std::vector<RangeQuery> queries = {{0, 10}, {10, 20}, {0, 20}};
  std::vector<double> out(queries.size());
  compiled.EstimateRangeCounts(queries, out, &pool);
  EXPECT_DOUBLE_EQ(out[0], 5.0);
  EXPECT_DOUBLE_EQ(out[1], 5.0);
  EXPECT_DOUBLE_EQ(out[2], 10.0);
}

TEST(CompiledEstimatorTest, BatchAndPoolBitwiseIdenticalOnRandomHistograms) {
  Rng rng(20260808);
  ThreadPool pool(4);
  for (int trial = 0; trial < 40; ++trial) {
    // Log-spread k up to 10000 so small and large separator arrays are
    // both exercised.
    const double log_k = rng.NextDouble() * 4.0;  // 10^0 .. 10^4
    const std::uint64_t k = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::pow(10.0, log_k)));
    const Value lower = rng.NextInRange(-1000000, 999999);
    const Value upper = rng.NextInRange(lower + 1, 1000000);
    const double dup_prob = (trial % 3 == 0) ? 0.4 : 0.0;
    const Histogram histogram =
        RandomHistogram(rng, k, lower, upper, dup_prob);
    const CompiledEstimator compiled(histogram);
    // 600 queries crosses the pool-sharding threshold, so the sharded run
    // genuinely fans out.
    const std::vector<RangeQuery> queries = MakeQueries(rng, histogram, 600);
    ExpectBatchAndPoolBitwiseIdentical(compiled, queries, &pool);
  }
}

TEST(CompiledEstimatorTest, BatchAndPoolBitwiseIdenticalWithExtremeFences) {
  Rng rng(71);
  ThreadPool pool(3);
  // Fences at the int64 extremes: bucket widths beyond 2^63 exercise the
  // unsigned-wraparound distance and the exact u64->f64 conversion.
  for (const auto& [lower, upper] :
       std::vector<std::pair<Value, Value>>{{kValueMin, kValueMax},
                                            {kValueMin, kValueMin + 2},
                                            {kValueMax - 2, kValueMax},
                                            {-1, 1}}) {
    for (const std::uint64_t k : {std::uint64_t{1}, std::uint64_t{2},
                                  std::uint64_t{17}, std::uint64_t{257}}) {
      const std::uint64_t usable = std::min<std::uint64_t>(
          k, static_cast<std::uint64_t>(ValueDistance(lower, upper)) + 1);
      const Histogram histogram =
          RandomHistogram(rng, usable, lower, upper, 0.25);
      const CompiledEstimator compiled(histogram);
      const std::vector<RangeQuery> queries =
          MakeQueries(rng, histogram, 640);
      ExpectBatchAndPoolBitwiseIdentical(compiled, queries, &pool);
    }
  }
}

TEST(CompiledEstimatorTest, BatchAndPoolBitwiseIdenticalOnDegenerateShapes) {
  ThreadPool pool(2);
  Rng rng(9001);
  // 640 queries per shape: past the pool-sharding threshold.
  constexpr std::size_t kQueries = 640;
  // Single bucket: no separators at all, a zero-length search.
  {
    const Histogram histogram =
        Histogram::Create({}, {5}, -10, 10).value();
    const CompiledEstimator compiled(histogram);
    const std::vector<RangeQuery> queries =
        MakeQueries(rng, histogram, kQueries);
    ExpectBatchAndPoolBitwiseIdentical(compiled, queries, &pool);
  }
  // All separators duplicated at one value: one giant spike run.
  {
    const Histogram histogram =
        Histogram::Create({0, 0, 0, 0, 0, 0, 0}, {1, 9, 9, 9, 9, 9, 9, 3},
                          -100, 100)
            .value();
    const CompiledEstimator compiled(histogram);
    const std::vector<RangeQuery> queries =
        MakeQueries(rng, histogram, kQueries);
    ExpectBatchAndPoolBitwiseIdentical(compiled, queries, &pool);
  }
  // Minimal domain: every bucket is a spike or width-1.
  {
    const Histogram histogram =
        Histogram::Create({1, 1, 2}, {4, 7, 0, 2}, 0, 2).value();
    const CompiledEstimator compiled(histogram);
    const std::vector<RangeQuery> queries =
        MakeQueries(rng, histogram, kQueries);
    ExpectBatchAndPoolBitwiseIdentical(compiled, queries, &pool);
  }
  // Zero-mass buckets everywhere except one.
  {
    const Histogram histogram =
        Histogram::Create({10, 20, 30}, {0, 0, 11, 0}, 0, 40).value();
    const CompiledEstimator compiled(histogram);
    const std::vector<RangeQuery> queries =
        MakeQueries(rng, histogram, kQueries);
    ExpectBatchAndPoolBitwiseIdentical(compiled, queries, &pool);
  }
}

// Every registered backend (built-ins and whatever else the process added)
// honours the batch contract bitwise: EstimateRangeCounts over any pool
// equals the per-query loop.
TEST(CompiledEstimatorTest, AllBackendsBatchBitwiseEqualsLoop) {
  Rng rng(1337);
  ThreadPool pool(3);
  std::vector<Value> sample;
  for (int i = 0; i < 4000; ++i) {
    sample.push_back(rng.NextInRange(-100000, 100000));
  }
  // A heavy duplicated run so the compressed backend has a singleton.
  for (int i = 0; i < 800; ++i) sample.push_back(777);
  std::sort(sample.begin(), sample.end());

  for (const HistogramBackendId id : HistogramBackendRegistry::Global().Ids()) {
    const auto backend = HistogramBackendRegistry::Global().Find(id).value();
    const auto built = backend.build_from_sample(sample, 50, 48000);
    ASSERT_TRUE(built.ok()) << backend.name << ": " << built.status();
    const HistogramModelPtr model = built.value();
    std::vector<RangeQuery> queries;
    for (int i = 0; i < 600; ++i) {
      queries.push_back(RandomQuery(rng, model->lower_fence(),
                                    model->upper_fence(), {}));
    }
    std::vector<double> batch(queries.size()), pooled(queries.size());
    model->EstimateRangeCounts(queries, batch, nullptr);
    model->EstimateRangeCounts(queries, pooled, &pool);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const double single = model->EstimateRangeCount(queries[i]);
      ASSERT_TRUE(BitEqual(batch[i], single))
          << backend.name << " batch vs loop at " << i;
      ASSERT_TRUE(BitEqual(pooled[i], single))
          << backend.name << " pooled batch vs loop at " << i;
    }
  }
}

}  // namespace
}  // namespace equihist
