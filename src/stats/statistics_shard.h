#ifndef EQUIHIST_STATS_STATISTICS_SHARD_H_
#define EQUIHIST_STATS_STATISTICS_SHARD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>  // std::once_flag
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baseline/gmp_incremental.h"
#include "common/annotations.h"
#include "common/circuit_breaker.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "stats/column_statistics.h"
#include "stats/histogram_model.h"
#include "storage/table.h"

namespace equihist {

// FNV-1a of the column name: platform-stable (std::hash is
// implementation-defined), it seeds per-column build streams here and
// routes columns to shards in StatisticsFleet — one hash, both uses.
std::uint64_t HashColumnName(const std::string& column);

// -- Multi-column batch estimation (DESIGN.md §14) ---------------------------

// One predicate of a multi-column batch estimate: "lo < column <= hi".
// Requests may interleave columns freely — the manager groups them.
struct BatchEstimateRequest {
  std::string column;
  RangeQuery query{};
};

// The batch's answers: estimates[i] answers requests[i].
struct BatchEstimateResult {
  std::vector<double> estimates;
};

// Serving health of one column — the DESIGN.md §11 state machine.
enum class ColumnHealth : std::uint8_t {
  kFresh = 0,     // current snapshot, last build succeeded
  kStale = 1,     // serving a previous snapshot (modification threshold
                  // crossed, or the last rebuild failed and was absorbed)
  kDegraded = 2,  // no trustworthy histogram: the uniform fallback model,
                  // a quarantined blob, or nothing at all
};

struct ColumnHealthReport {
  ColumnHealth health = ColumnHealth::kDegraded;
  bool exists = false;            // column is known to the shard
  bool breaker_open = false;      // circuit breaker holding rebuilds back
  bool serving_fallback = false;  // estimates come from the uniform fallback
  bool quarantined = false;       // last installed blob failed to parse
  std::uint64_t consecutive_build_failures = 0;
  std::uint64_t total_build_failures = 0;
  // Modifications since the last build as a fraction of the snapshot's row
  // count (0 for unknown or never-built columns) — the DML-pressure signal
  // the fleet's BuildScheduler orders its queue by.
  double modified_fraction = 0.0;
  Status last_error{};  // most recent build or install failure
};

// One shard of the statistics fleet (DESIGN.md §16) — and, before the
// fleet existed, the whole StatisticsManager: a small auto-statistics
// facility in the style of SQL Server's auto-create/auto-update
// statistics (the production context of the paper). Owns per-column
// ColumnStatistics, tracks modification counters, and rebuilds stale
// statistics via the sampling pipeline on demand. StatisticsManager
// (stats/statistics_manager.h) is a thin single-shard facade over this
// class; StatisticsFleet (stats/statistics_fleet.h) hash-partitions
// columns across many of them.
//
// Tables in this library are immutable, so mutation is reported by the
// caller through RecordModifications() — the same contract a storage
// engine's DML layer would fulfil.
//
// Concurrency: the shard is safe for concurrent use from many threads.
// The read-mostly paths (GetOrBuild/EnsureFresh on warm entries, IsStale,
// Has) take a shared lock; builds serialize per column on the entry's own
// mutex (concurrent first accesses to the same column run one build, not
// two) and publish under the exclusive lock. Modification counters are
// atomics, so RecordModifications never blocks a reader. Statistics
// objects are immutable once published and handed out via shared_ptr —
// a reader holding *Shared() results keeps its snapshot alive across
// concurrent rebuilds. The raw-pointer getters keep the historical
// single-threaded contract (valid until the entry is rebuilt or dropped).
//
// Every build's RNG seed is derived from (options.seed, column name,
// per-column generation) via SplitMix, so results do not depend on the
// order in which threads reach the shard — BuildAll over a pool yields
// the same statistics as a serial loop, and a fleet of shards yields the
// same statistics as one shard holding every column.
class StatisticsShard {
 public:
  struct Options {
    std::uint64_t buckets = 200;
    double f = 0.1;            // CVB target error for sampled builds
    double gamma = 0.01;
    // Rebuild when modifications since the last build exceed this fraction
    // of the row count (SQL Server's classical 20% rule).
    double staleness_threshold = 0.2;
    // Build by sampling (CVB) rather than by full scan.
    bool prefer_sampling = true;
    // Histogram family used for builds: `default_backend` unless the
    // column has an entry in `column_backends`. Any backend registered in
    // HistogramBackendRegistry::Global() — built-in or external — works;
    // the serving path is family-agnostic.
    HistogramBackendId default_backend = HistogramBackendId::kEquiHeight;
    std::map<std::string, HistogramBackendId> column_backends{};
    std::uint64_t seed = 99;
    // Worker threads shared by every build issued through this manager
    // (block reads, sample sorting, BuildAll fan-out): 0 = one per
    // hardware thread, 1 = fully sequential (no pool is ever created);
    // larger values are clamped to the hardware thread count — builds are
    // CPU-bound, and over-subscription strictly regresses
    // (BENCH_parallel_scaling.json).
    std::uint64_t threads = 0;

    // -- Incremental maintenance (DESIGN.md §15) -----------------------------

    // Backing-sample capacity for incremental-equi-depth builds (floored
    // at `buckets`). The reservoir persists across refreshes, is
    // serialized with the histogram, and is what makes an EnsureFresh
    // refresh cost O(Δ) instead of a table re-sample.
    std::uint64_t reservoir_capacity = 4096;
    // EnsureFresh repairs incrementally while the DML applied since the
    // reservoir was seeded stays within this fraction of the live row
    // count; beyond it the accumulated drift calls for a full rebuild
    // (which reseeds the reservoir from a fresh block sample).
    double incremental_repair_budget = 0.5;
    // Counted-replacement deletes vacate reservoir slots without refilling
    // them; once the fill fraction drops below this floor the quantiles
    // are too coarse to repair against and the refresh falls back to a
    // full rebuild.
    double reservoir_min_fill = 0.25;

    // -- Fault tolerance & degraded serving (DESIGN.md §11) ------------------

    // Transient-fault retry for every page read a build issues, and the
    // CVB fault budget (blocks permanently skipped before a build fails).
    RetryPolicy retry{};
    std::uint64_t max_skipped_blocks = 64;
    // Circuit breaker: after this many consecutive failed builds of a
    // column, rebuild attempts stop for `breaker_cooldown_micros` and the
    // previous snapshot (or the fallback) keeps serving. After the
    // cooldown one attempt is let through (half-open); success closes the
    // breaker, failure re-opens it.
    std::uint64_t breaker_failure_threshold = 3;
    std::uint64_t breaker_cooldown_micros = 1'000'000;
    // Monotonic microsecond clock driving breaker cooldowns; null uses
    // steady_clock. Tests inject a manual clock so open/half-open
    // transitions are deterministic.
    std::function<std::uint64_t()> clock{};
    // When a column that never built successfully fails on a *storage
    // fault* (kUnavailable / kDataLoss / kResourceExhausted), publish the
    // metadata-only uniform fallback model instead of failing every
    // estimate. Non-fault errors (bad options, empty table) always
    // propagate, fallback or not.
    bool fallback_on_unbuilt = true;
  };

  explicit StatisticsShard(const Options& options);

  // Returns the statistics for `column`, building them on first access.
  // The pointer stays valid until the entry is rebuilt or dropped; for
  // concurrent callers prefer GetOrBuildShared.
  Result<const ColumnStatistics*> GetOrBuild(const std::string& column,
                                             const Table& table);

  // Shared-ownership variant: the returned snapshot stays valid for as
  // long as the caller holds it, across rebuilds and drops.
  Result<std::shared_ptr<const ColumnStatistics>> GetOrBuildShared(
      const std::string& column, const Table& table);

  // Reports DML activity against the column's table. Lock-free on the
  // counter; unknown columns are ignored. Count-only reports carry no
  // values, so the backing reservoir cannot absorb them: a column with
  // any pending count-only modifications always refreshes by full
  // rebuild. Prefer RecordInsert/RecordDelete when the values are known.
  void RecordModifications(const std::string& column, std::uint64_t count);

  // Value-carrying DML reports (DESIGN.md §15): one inserted / deleted
  // row. Besides the staleness counter, these maintain the column's live
  // incremental state — the backing reservoir and the split/merge
  // equi-depth histogram — so the next EnsureFresh can publish an O(Δ)
  // incremental refresh instead of rebuilding from the table. Unknown
  // columns and columns without a warm reservoir just count toward
  // staleness. Thread-safe; concurrent calls for one column serialize on
  // that column's maintenance mutex only.
  void RecordInsert(const std::string& column, Value value);
  void RecordDelete(const std::string& column, Value value);

  // True if statistics exist and the modification counter has crossed the
  // staleness threshold.
  bool IsStale(const std::string& column) const;

  // Returns fresh statistics: rebuilds if stale or missing, otherwise the
  // cached entry.
  Result<const ColumnStatistics*> EnsureFresh(const std::string& column,
                                              const Table& table);
  Result<std::shared_ptr<const ColumnStatistics>> EnsureFreshShared(
      const std::string& column, const Table& table);

  // -- Lock-free serving path ------------------------------------------------
  //
  // The hot optimizer entry points. Estimates run against the column's
  // current immutable snapshot through its HistogramModel (the equi-height
  // family serves via the compiled O(log k) read path, other backends via
  // their own estimators). Each thread keeps a small snapshot cache keyed
  // by (shard, column) and validated by a per-entry publication counter;
  // while statistics are unchanged the whole resolution is lock-free — one
  // string-keyed cache probe, one acquire load and one shared_ptr copy of
  // the model, no mutex. The counter bumps on every publish and on Drop,
  // so a changed column costs one shared-lock snapshot refresh and
  // subsequent calls are lock-free again.
  //
  // Staleness is deliberately not checked here (plan-time estimation must
  // be nearly free); call EnsureFresh* when freshness matters — a rebuild
  // invalidates every thread's cache automatically via the counter.
  Result<double> EstimateRange(const std::string& column, const Table& table,
                               const RangeQuery& query);

  // Batch variant: the planner hands over an entire predicate list —
  // columns freely interleaved — and gets every estimate back in one
  // call. Each distinct column's snapshot resolves once, exactly like
  // EstimateRange (first access may build); its queries then run through
  // the backend's batch path, the compiled estimator on equi-height. With
  // use_pool, per-column sub-batches shard across the shard's pool;
  // results are bitwise-identical to EstimateRange at any thread count.
  // On error (an unbuildable column), estimates already computed are
  // unspecified and the first failure is returned.
  Status EstimateBatch(const Table& table,
                       std::span<const BatchEstimateRequest> requests,
                       BatchEstimateResult* result, bool use_pool = false);

  // Per-column outcome aggregation of a BuildAll sweep: every column that
  // could be built was; the rest are reported here instead of aborting the
  // sweep. A failed column may still be servable (stale snapshot or
  // fallback) — Health() tells.
  struct BuildAllResult {
    std::uint64_t attempted = 0;
    std::uint64_t succeeded = 0;  // fresh after the sweep
    // Columns whose (re)build failed, in input order, with the underlying
    // build error — including failures absorbed by degraded serving.
    std::vector<std::pair<std::string, Status>> failed;

    bool ok() const { return failed.empty(); }
    // The first failure, for Status-style call sites.
    Status status() const {
      return failed.empty() ? Status::OK() : failed.front().second;
    }
  };

  // Builds (or freshens) statistics for every named column of `table`,
  // fanning the builds out across the manager's thread pool — the
  // auto-statistics sweep a server runs after bulk load. Columns already
  // fresh are left untouched. Never gives up early: every column is
  // attempted, and per-column failures are aggregated in the result.
  BuildAllResult BuildAll(const std::vector<std::string>& columns,
                          const Table& table);

  // Installs statistics from a serialized blob (the stats/serialization.h
  // container), as a restore-from-catalog path would. A blob the v2
  // parser rejects quarantines the column: the error is recorded (see
  // Health()), the previous snapshot — if any — keeps serving, and the
  // quarantine clears on the next successful install or live build.
  Status InstallSerializedStatistics(const std::string& column,
                                     std::span<const std::uint8_t> bytes);

  // The column's serving-health report (slow path; takes the shared
  // lock). Unknown columns report exists = false, health = kDegraded.
  ColumnHealthReport Health(const std::string& column) const;

  // Drops a column's statistics (returns true if they existed).
  bool Drop(const std::string& column);

  bool Has(const std::string& column) const;
  std::size_t size() const;
  // Full from-the-table rebuilds completed (incremental refreshes are
  // counted separately below).
  std::uint64_t rebuild_count() const {
    return rebuilds_.load(std::memory_order_relaxed);
  }
  // EnsureFresh calls satisfied by an O(Δ) incremental refresh — a publish
  // from the live reservoir-backed state, with zero storage I/O.
  std::uint64_t incremental_refresh_count() const {
    return incremental_refreshes_.load(std::memory_order_relaxed);
  }

  // Cumulative I/O spent building statistics through this shard.
  IoStats total_build_cost() const;

  // The shard's lock-free metrics plane (DESIGN.md §16): serving and
  // build paths record into it with relaxed atomics only, so it stays on
  // under full traffic. Readers take relaxed snapshots.
  const metrics::MetricsPlane& metrics() const { return metrics_; }

  // Columns currently past the staleness threshold (slow path; takes the
  // shared lock and walks the entry map) — the fleet's staleness export.
  std::uint64_t stale_count() const;

 private:
  // Live incremental-maintenance state of one column (DESIGN.md §15),
  // warm only while the column serves an incremental-equi-depth snapshot.
  // Guarded by its own mutex so RecordInsert/RecordDelete never contend
  // with serving or with other columns' DML. Lock order: maintenance.mu
  // never nests with the manager's mu_ in either direction — every path
  // copies the entry shared_ptr out under mu_, releases, then takes
  // maintenance.mu (the entry node outlives the map row, so this is safe
  // against a concurrent Drop).
  struct MaintenanceState {
    // Leaf rank: holding it, NO ranked lock may be acquired — the
    // enforced half of the never-nests contract above (rank order
    // forbids the mu_-then-maintenance direction).
    Mutex mu{lockrank::kShardMaintenance};
    // The split/merge equi-depth histogram plus its backing reservoir,
    // advanced in O(1) amortized per RecordInsert/RecordDelete. Empty
    // (cold) until a successful incremental build/install warms it.
    std::optional<IncrementalEquiDepth> live GUARDED_BY(mu);
    // Count-only RecordModifications since the last warm-up. The values
    // never reached the reservoir, so any nonzero count makes the live
    // state unrepresentative and disqualifies incremental refresh.
    std::uint64_t opaque_modifications GUARDED_BY(mu) = 0;
  };

  struct Entry {
    // The manager's mu_: every non-atomic field below is guarded by it,
    // and the annotation layer checks that on each Clang build. Entries
    // never outlive their manager (the map and any in-flight build hold
    // them through shared_ptr, and both are manager-scoped).
    explicit Entry(SharedMutex* manager_mu) : mu(manager_mu) {}

    // Zero-cost capability re-binding: callers hold the manager's mu_ —
    // which IS *mu by construction — but the analysis cannot prove that
    // alias, so code about to touch guarded fields through an Entry
    // pointer calls one of these first (with the manager lock held in
    // the matching mode). Compiles to nothing.
    void AssertReaderHeld() const ASSERT_SHARED_CAPABILITY(*mu) {}
    void AssertWriterHeld() const ASSERT_CAPABILITY(*mu) {}

    SharedMutex* const mu;
    // Immutable snapshot (its `model` is what the serving path estimates
    // with), swapped by Publish; null while the first build is in flight.
    std::shared_ptr<const ColumnStatistics> stats GUARDED_BY(*mu);
    std::atomic<std::uint64_t> modifications_since_build{0};
    std::uint64_t generation GUARDED_BY(*mu) = 0;  // # builds completed
    // Serializes builds, refreshes and installs of this column.
    Mutex build_mu{lockrank::kShardBuild};
    // Publication counter for the lock-free serving path: bumped (under
    // mu) by Publish and by Drop, nowhere else. A thread-cached snapshot is
    // current iff this still equals the value captured at caching time;
    // monotone, so there is no ABA.
    std::atomic<std::uint64_t> published{0};
    // -- Degraded-serving state (DESIGN.md §11), written only in slow
    // paths — a failed rebuild never bumps `published`, so serving
    // threads keep their cached snapshot at zero cost.
    CircuitBreaker breaker GUARDED_BY(*mu);
    std::uint64_t total_build_failures GUARDED_BY(*mu) = 0;
    // `stats` is the uniform fallback.
    bool serving_fallback GUARDED_BY(*mu) = false;
    // Last installed blob failed to parse.
    bool quarantined GUARDED_BY(*mu) = false;
    Status last_error GUARDED_BY(*mu){};
    // Live DML-maintained state; self-locked (see MaintenanceState).
    MaintenanceState maintenance;
  };

  // One thread-local cache slot of the serving path: the shared_ptrs keep
  // the model and the Entry node whose counter validates it alive;
  // `published` is the captured publication count.
  struct CachedServing {
    std::uint64_t shard_id = 0;
    std::string column;
    std::uint64_t published = 0;
    std::shared_ptr<Entry> entry;
    HistogramModelPtr model;
  };

  Result<ColumnStatistics> Build(const std::string& column, const Table& table,
                                 std::uint64_t seed, ThreadPool* pool);
  // The entry node for `column` (reader-locked lookup); null if unknown.
  std::shared_ptr<Entry> FindEntry(const std::string& column) const
      EXCLUDES(mu_);
  // Finds or creates the entry node for `column`.
  std::shared_ptr<Entry> GetEntry(const std::string& column) EXCLUDES(mu_);
  // The published snapshot when it satisfies the caller as it stands (a
  // real snapshot, not past the staleness threshold when `require_fresh`),
  // else BuildAndPublish. GetOrBuild*, EnsureFresh* and BuildAll all come
  // through here; `build_error` is as for BuildAndPublish.
  Result<std::shared_ptr<const ColumnStatistics>> AcquireSnapshot(
      const std::string& column, const Table& table, bool require_fresh,
      Status* build_error = nullptr) EXCLUDES(mu_);
  // Serializes on entry->build_mu, re-checks whether a build is still
  // needed (`require_fresh` additionally rebuilds stale snapshots), then
  // builds without locks held and publishes under the exclusive lock.
  // Storage-fault build failures degrade instead of propagating — the
  // previous snapshot keeps serving (stale-while-error), or the uniform
  // fallback publishes for a never-built column; the underlying error is
  // reported through `build_error` (when non-null) and Health().
  Result<std::shared_ptr<const ColumnStatistics>> BuildAndPublish(
      const std::string& column, Entry* entry, const Table& table,
      bool require_fresh, Status* build_error = nullptr)
      EXCLUDES(mu_, entry->build_mu);
  // The one publish step, and with Drop the only writer of `published`:
  // swaps in `snapshot`, bumps the publication counter and subtracts the
  // modifications captured when the build started. A real snapshot also
  // advances the generation and heals breaker, fallback and quarantine
  // state; the uniform `fallback` is the degraded state itself and only
  // marks it.
  void Publish(Entry* entry, std::shared_ptr<const ColumnStatistics> snapshot,
               std::uint64_t modifications_at_capture, bool fallback = false)
      REQUIRES(entry->build_mu) EXCLUDES(mu_);
  // The degrade path of a failed build: breaker bookkeeping plus
  // stale-while-error / fallback-publish.
  Result<std::shared_ptr<const ColumnStatistics>> AbsorbBuildFailure(
      Entry* entry, const Table& table, const Status& error)
      REQUIRES(entry->build_mu) EXCLUDES(mu_);
  // The O(Δ) refresh path: when the column's maintenance state is warm,
  // representative (no opaque modifications) and within the repair budget
  // and fill floor, snapshots it, assembles fresh ColumnStatistics from
  // the reservoir alone (zero storage I/O) and publishes them — healing
  // breaker/fallback/quarantine exactly like a successful full build.
  // Returns null when incremental refresh does not apply and the caller
  // should fall through to the full build. `modifications_at_capture` is
  // subtracted from the staleness counter on publish, mirroring
  // BuildAndPublish's capture discipline.
  std::shared_ptr<const ColumnStatistics> TryRefreshIncremental(
      Entry* entry, std::uint64_t modifications_at_capture)
      REQUIRES(entry->build_mu) EXCLUDES(mu_);
  // Re-arms (or disarms) the column's maintenance state after a publish:
  // an incremental-equi-depth snapshot warms `live` from the published
  // histogram + reservoir, anything else leaves it cold. Always clears
  // opaque_modifications — the new snapshot subsumes them.
  void WarmMaintenance(Entry* entry, const ColumnStatistics& stats)
      EXCLUDES(mu_);
  bool IsStaleLocked(const Entry& entry) const REQUIRES_SHARED(*entry.mu);
  // The AcquireSnapshot fast-path test (see there).
  bool SatisfiesLocked(const Entry& entry, bool require_fresh) const
      REQUIRES_SHARED(*entry.mu);
  // Lazily created pool per options_.threads (null when sequential).
  ThreadPool* pool();

  // The calling thread's serving cache (shared by all managers, keyed by
  // shard_id_ so address reuse across manager lifetimes cannot alias).
  static std::vector<CachedServing>& ServingCache();
  // Cache probe for (this shard, column); null on miss.
  CachedServing* FindCachedServing(const std::string& column);
  // Captures the column's published model and counter through the entry
  // map into this thread's cache; null when the column is unknown or not
  // yet built.
  HistogramModelPtr CaptureServing(const std::string& column) EXCLUDES(mu_);
  // The one serving resolver behind EstimateRange and EstimateBatch: the
  // thread-cached model while its publication counter holds, else a
  // capture through the entry map — building first on first access. If a
  // concurrent Drop detaches the entry before the capture, the snapshot
  // this call built is served uncached.
  Result<HistogramModelPtr> ServingModel(const std::string& column,
                                         const Table& table) EXCLUDES(mu_);

  const Options options_;
  const std::uint64_t shard_id_;  // process-unique, assigned at construction
  // Guards the entries_ map + snapshot/gen fields.
  mutable SharedMutex mu_{lockrank::kShardState};
  // shared_ptr nodes: an in-flight build keeps its Entry alive even if the
  // column is concurrently dropped, and Entry addresses stay stable so
  // per-entry mutexes can be held without the map lock.
  std::map<std::string, std::shared_ptr<Entry>> entries_ GUARDED_BY(mu_);
  IoStats total_build_cost_ GUARDED_BY(mu_){};
  std::atomic<std::uint64_t> rebuilds_{0};
  std::atomic<std::uint64_t> incremental_refreshes_{0};
  metrics::MetricsPlane metrics_;
  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace equihist

#endif  // EQUIHIST_STATS_STATISTICS_SHARD_H_
