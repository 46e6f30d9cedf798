#include "fixture.h"

#include <algorithm>

#include "trace.h"

namespace perfbench {

using namespace equihist;

bool Fixture::IsIncremental(const std::string& column) const {
  return std::find(incremental_columns.begin(), incremental_columns.end(),
                   column) != incremental_columns.end();
}

StatisticsFleet::Options FleetOptions(std::uint64_t seed, std::uint64_t shards,
                                      std::uint64_t threads) {
  StatisticsFleet::Options options;
  options.shards = shards;
  options.shard.buckets = kBuckets;
  options.shard.f = kTargetF;
  options.shard.gamma = kGamma;
  options.shard.staleness_threshold = kStalenessThreshold;
  options.shard.seed = seed;
  options.shard.threads = threads;
  for (std::size_t i = 0; i < kIncrementalColumns; ++i) {
    options.shard.column_backends["t.inc" + std::to_string(i)] =
        HistogramBackendId::kIncrementalEquiDepth;
  }
  return options;
}

namespace {

// One predicate "lo < column <= hi": a point (one value, drawn from the
// data so heavy values are common), a narrow range (~10 values) or a wide
// range (a quarter to half of the domain).
RangeQuery DrawPredicate(const ValueSet& truth, Rng& rng) {
  const Value min = truth.min();
  const Value span = truth.max() - min;
  switch (rng.Next() % 3) {
    case 0: {
      const Value v = truth.ValueAtRank(rng.Next() % truth.size());
      return {v - 1, v};
    }
    case 1: {
      const Value lo = truth.ValueAtRank(rng.Next() % truth.size());
      return {lo, lo + static_cast<Value>(kDomain / 1000)};
    }
    default: {
      const Value width =
          span / 4 + static_cast<Value>(rng.Next() % static_cast<std::uint64_t>(span / 4 + 1));
      const Value lo =
          min + static_cast<Value>(rng.Next() % static_cast<std::uint64_t>(span - width + 1));
      return {lo, lo + width};
    }
  }
}

}  // namespace

bool ComputeExpected(Fixture& fixture, std::string* error) {
  fixture.expected.assign(fixture.batches.size(), {});
  for (std::size_t b = 0; b < fixture.batches.size(); ++b) {
    for (const BatchEstimateRequest& request : fixture.batches[b]) {
      StatisticsShard& shard =
          fixture.fleet->shard(fixture.fleet->ShardIndex(request.column));
      BatchEstimateResult direct;
      const Status status = shard.EstimateBatch(
          *fixture.table, std::span<const BatchEstimateRequest>(&request, 1),
          &direct);
      if (!status.ok()) {
        *error = "direct shard estimate: " + status.ToString();
        return false;
      }
      fixture.expected[b].push_back(direct.estimates[0]);
    }
  }
  return true;
}

std::unique_ptr<Fixture> BuildFixture(std::uint64_t seed, std::string* error) {
  auto fixture = std::make_unique<Fixture>();
  fixture->seed = seed;
  for (std::size_t i = 0; i < kEquiHeightColumns; ++i) {
    fixture->equi_height_columns.push_back("t.eh" + std::to_string(i));
  }
  for (std::size_t i = 0; i < kIncrementalColumns; ++i) {
    fixture->incremental_columns.push_back("t.inc" + std::to_string(i));
  }
  std::vector<std::string> columns = fixture->equi_height_columns;
  columns.insert(columns.end(), fixture->incremental_columns.begin(),
                 fixture->incremental_columns.end());

  const std::int64_t start = NowNs();
  auto frequencies = MakeZipf({.n = kRows,
                               .domain_size = kDomain,
                               .skew = kZipfSkew,
                               .seed = DeriveStreamSeed(seed, 0)});
  if (!frequencies.ok()) {
    *error = "data generation: " + frequencies.status().ToString();
    return nullptr;
  }
  auto table = Table::Create(
      *frequencies, PageConfig{8192, kRecordBytes},
      LayoutSpec{.kind = LayoutKind::kRandom, .seed = DeriveStreamSeed(seed, 1)});
  if (!table.ok()) {
    *error = "table: " + table.status().ToString();
    return nullptr;
  }
  fixture->table.emplace(std::move(*table));
  fixture->truth = ValueSet::FromFrequencies(*frequencies);
  fixture->fleet = std::make_unique<StatisticsFleet>(
      FleetOptions(seed, kShards, /*threads=*/0));
  const auto built = fixture->fleet->BuildAll(columns, *fixture->table);
  fixture->setup_seconds = static_cast<double>(NowNs() - start) / 1e9;
  if (!built.ok()) {
    *error = "BuildAll: " + built.status().ToString();
    return nullptr;
  }

  Rng rng(DeriveStreamSeed(seed, 2));
  fixture->batches.resize(kPoolBatches);
  for (auto& batch : fixture->batches) {
    for (std::size_t i = 0; i < kBatchSize; ++i) {
      batch.push_back({columns[rng.Next() % columns.size()],
                       DrawPredicate(fixture->truth, rng)});
    }
  }
  if (!ComputeExpected(*fixture, error)) return nullptr;
  return fixture;
}

std::unique_ptr<StatisticsFleet> BuildReferenceFleet(const Fixture& fixture,
                                                     std::string* error) {
  auto reference = std::make_unique<StatisticsFleet>(
      FleetOptions(fixture.seed, /*shards=*/1, /*threads=*/1));
  const auto built =
      reference->BuildAll(fixture.equi_height_columns, *fixture.table);
  if (!built.ok()) {
    *error = "reference BuildAll: " + built.status().ToString();
    return nullptr;
  }
  return reference;
}

bool BuildQualityPanel(const Fixture& fixture, QualityPanel* panel,
                       std::string* error) {
  StatisticsFleet fleet(FleetOptions(fixture.seed, kShards, /*threads=*/0));
  std::vector<double> errors;
  for (std::uint64_t generation = 0; generation < kPanelGenerations;
       ++generation) {
    for (const std::string& column : fixture.equi_height_columns) {
      if (generation > 0) fleet.RecordModifications(column, kStaleCount);
      const auto stats = fleet.EnsureFresh(column, *fixture.table);
      if (!stats.ok() || (*stats)->equi_height() == nullptr) {
        *error = "quality panel: no equi-height histogram for " + column;
        return false;
      }
      errors.push_back(
          FractionalErrorVsPopulation(*(*stats)->equi_height(), fixture.truth));
    }
  }
  std::sort(errors.begin(), errors.end());
  // Nearest rank, as Distribution::Quantile.
  panel->p90 = errors[(errors.size() * 9 + 9) / 10 - 1];
  panel->max = errors.back();
  panel->histograms = errors.size();
  return true;
}

std::vector<BatchEstimateRequest> ProbeBatch(const Fixture& fixture,
                                             const std::string& column) {
  Rng rng(DeriveStreamSeed(fixture.seed, 3 + HashColumnName(column)));
  std::vector<BatchEstimateRequest> probe;
  for (std::size_t i = 0; i < kBatchSize; ++i) {
    probe.push_back({column, DrawPredicate(fixture.truth, rng)});
  }
  return probe;
}

}  // namespace perfbench
