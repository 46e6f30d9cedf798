#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "equihist/equihist.h"

namespace perfbench {

// The fixed scale every workload shares. n/k/f put CVB in the paper's
// regime on a random layout: it converges after reading roughly a tenth
// of the 7813 pages, well short of exhausting the table.
inline constexpr std::uint64_t kRows = 1'000'000;
inline constexpr std::uint64_t kDomain = kRows / 100;
inline constexpr double kZipfSkew = 1.0;
inline constexpr std::uint32_t kRecordBytes = 64;  // 128 rows per 8 KiB page
inline constexpr std::uint64_t kBuckets = 100;
inline constexpr double kTargetF = 0.2;
inline constexpr double kGamma = 0.01;
inline constexpr std::uint64_t kShards = 4;
inline constexpr std::size_t kEquiHeightColumns = 12;
inline constexpr std::size_t kIncrementalColumns = 4;  // backend id 5
inline constexpr std::size_t kBatchSize = 16;
inline constexpr std::size_t kPoolBatches = 512;
// A refresh is due once modifications exceed this fraction of the rows:
// 0.1%, the churn of the first row of BENCH_incremental_maintenance.json
// (1,000 delta rows per refresh) and, per DESIGN.md section 15, where an
// incremental refresh beats a full rebuild by the most. The shard's
// default (20%) would let the traced run's DML rung refresh each column
// once every 8 s. The refresher's count-only modifications only need to
// cross it.
inline constexpr double kStalenessThreshold = 0.001;
// Count-only modifications that make a column stale.
inline constexpr std::uint64_t kStaleCount =
    static_cast<std::uint64_t>(kStalenessThreshold * kRows) + 1;

// Everything a workload runs against: the generated table, a 4-shard
// fleet with every column built, the seeded request pool and the direct
// shard answers to it.
struct Fixture {
  std::uint64_t seed = 0;
  std::optional<equihist::Table> table;
  equihist::ValueSet truth;  // the column's exact multiset, sorted
  std::unique_ptr<equihist::StatisticsFleet> fleet;
  std::vector<std::string> equi_height_columns;
  std::vector<std::string> incremental_columns;
  // 16-predicate batches over every column: points, narrow and wide ranges.
  std::vector<std::vector<equihist::BatchEstimateRequest>> batches;
  // expected[b][i]: the owning StatisticsShard's direct EstimateBatch
  // answer to batches[b][i], computed before any traffic and again after
  // every refresh block (ComputeExpected).
  std::vector<std::vector<double>> expected;
  // Dataset generation plus the initial BuildAll, in seconds.
  double setup_seconds = 0.0;

  bool IsIncremental(const std::string& column) const;
};

// Options shared by the measured fleet and the reference fleet; `threads`
// 0 is the shard's default build pool (one thread per core).
equihist::StatisticsFleet::Options FleetOptions(std::uint64_t seed,
                                                std::uint64_t shards,
                                                std::uint64_t threads);

// Generates the dataset and builds the fleet from `seed`. Returns null and
// sets `error` on any failure.
std::unique_ptr<Fixture> BuildFixture(std::uint64_t seed, std::string* error);

// Fills fixture.expected from the owning shards' direct answers. Returns
// false and sets `error` on any failure.
bool ComputeExpected(Fixture& fixture, std::string* error);

// A single-shard, single-threaded fleet with the same seed and options,
// holding the equi-height columns: builds there must be bit-identical to
// the measured fleet's generation by generation.
std::unique_ptr<equihist::StatisticsFleet> BuildReferenceFleet(
    const Fixture& fixture, std::string* error);

// FractionalErrorVsPopulation of the histograms the fleet publishes for
// this table: every equi-height column at generations 0..kPanelGenerations-1
// (the initial build and the refreshes after it), rebuilt on a fresh fleet
// with the measured fleet's options. Per-column build seeds depend only on
// (seed, column, generation), so these are bit for bit the histograms the
// workloads publish, and the panel is a pure function of the seed.
inline constexpr std::uint64_t kPanelGenerations = 10;
struct QualityPanel {
  double p90 = 0.0;
  double max = 0.0;
  std::uint64_t histograms = 0;
};
bool BuildQualityPanel(const Fixture& fixture, QualityPanel* panel,
                       std::string* error);

// 16 probe predicates on `column` (the estimates compared after a
// refresh).
std::vector<equihist::BatchEstimateRequest> ProbeBatch(
    const Fixture& fixture, const std::string& column);

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
