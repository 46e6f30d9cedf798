#include "stats/statistics_shard.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "stats/histogram_backends.h"
#include "stats/incremental_backend.h"
#include "stats/serialization.h"

namespace equihist {
namespace {

// Errors that mean "storage misbehaved" and are eligible for degraded
// serving; config and precondition errors always propagate to the caller.
bool IsFaultError(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kDataLoss ||
         code == StatusCode::kResourceExhausted;
}

// The metadata-only snapshot published when a column has no trustworthy
// histogram: a uniform model over an unknown domain (System-R magic
// selectivity), distinct ~ rows so equality estimates degrade to ~1.
std::shared_ptr<const ColumnStatistics> MakeFallbackSnapshot(
    const Table& table) {
  const std::uint64_t n = table.tuple_count();
  ColumnStatistics stats;
  stats.model = std::make_shared<FallbackUniformModel>(n, 0, 0);
  stats.row_count = n;
  stats.density = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  stats.distinct_estimate = static_cast<double>(n);
  stats.from_full_scan = false;
  stats.sample_size = 0;
  return std::make_shared<const ColumnStatistics>(std::move(stats));
}

// Serving-cache slots kept per thread; old slots are evicted FIFO. The
// cache is a linear-scan vector: with realistically few hot (manager,
// column) pairs per thread this beats any hashed structure.
constexpr std::size_t kMaxServingSlots = 64;

std::uint64_t NextShardId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// FNV-1a: a platform-stable column-name hash, so per-column seed streams
// are reproducible everywhere (std::hash is implementation-defined). At
// namespace scope because the fleet routes columns to shards with the
// same hash (stats/statistics_fleet.cc).
std::uint64_t HashColumnName(const std::string& column) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : column) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

StatisticsShard::StatisticsShard(const Options& options)
    : options_(options), shard_id_(NextShardId()) {}

ThreadPool* StatisticsShard::pool() {
  std::call_once(pool_once_, [this]() {
    // Clamped to the core count: builds are CPU-bound and fan-out past the
    // hardware threads strictly regresses (BENCH_parallel_scaling.json).
    const std::size_t threads = ResolveBuildThreadCount(options_.threads);
    if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  });
  return pool_.get();
}

Result<ColumnStatistics> StatisticsShard::Build(const std::string& column,
                                                  const Table& table,
                                                  std::uint64_t seed,
                                                  ThreadPool* build_pool) {
  BackendBuildOptions build;
  build.backend = options_.default_backend;
  const auto it = options_.column_backends.find(column);
  if (it != options_.column_backends.end()) build.backend = it->second;
  build.buckets = options_.buckets;
  build.f = options_.f;
  build.gamma = options_.gamma;
  build.prefer_sampling = options_.prefer_sampling;
  build.seed = seed;
  build.retry = options_.retry;
  build.max_skipped_blocks = options_.max_skipped_blocks;
  build.reservoir_capacity = options_.reservoir_capacity;
  // The equi-height default routes through the CVB / full-scan pipelines
  // exactly as before; other backends sample once and build through the
  // registry.
  return BuildStatisticsWithBackend(table, build, build_pool);
}

std::shared_ptr<StatisticsShard::Entry> StatisticsShard::FindEntry(
    const std::string& column) const {
  ReaderMutexLock lock(mu_);
  const auto it = entries_.find(column);
  return it == entries_.end() ? nullptr : it->second;
}

std::shared_ptr<StatisticsShard::Entry> StatisticsShard::GetEntry(
    const std::string& column) {
  if (std::shared_ptr<Entry> entry = FindEntry(column)) return entry;
  WriterMutexLock lock(mu_);
  auto [it, inserted] = entries_.try_emplace(column);
  if (inserted) it->second = std::make_shared<Entry>(&mu_);
  return it->second;
}

bool StatisticsShard::IsStaleLocked(const Entry& entry) const {
  if (entry.stats == nullptr) return false;
  if (entry.stats->row_count == 0) return true;
  const double modified_fraction =
      static_cast<double>(
          entry.modifications_since_build.load(std::memory_order_relaxed)) /
      static_cast<double>(entry.stats->row_count);
  return modified_fraction > options_.staleness_threshold;
}

bool StatisticsShard::SatisfiesLocked(const Entry& entry,
                                      bool require_fresh) const {
  // A fallback snapshot satisfies neither: the caller falls through to a
  // real build (the breaker inside BuildAndPublish rate-limits it).
  return entry.stats != nullptr && !entry.serving_fallback &&
         (!require_fresh || !IsStaleLocked(entry));
}

void StatisticsShard::Publish(Entry* entry,
                              std::shared_ptr<const ColumnStatistics> snapshot,
                              std::uint64_t modifications_at_capture,
                              bool fallback) {
  WriterMutexLock lock(mu_);
  entry->AssertWriterHeld();
  total_build_cost_ += snapshot->build_cost;
  entry->stats = std::move(snapshot);
  entry->serving_fallback = fallback;
  if (!fallback) {
    // Every publisher holds build_mu, so this is the generation the build
    // captured plus one. A real snapshot heals everything: breaker closed,
    // fallback and quarantine replaced. The fallback is itself the
    // degraded state, so it heals nothing and advances no generation
    // (the next real build keeps its seed).
    entry->generation += 1;
    entry->breaker.RecordSuccess();
    entry->quarantined = false;
    entry->last_error = Status::OK();
  }
  // Release-publish so a serving thread that observes the new counter
  // also observes the snapshot it validates.
  entry->published.fetch_add(1, std::memory_order_release);
  // Subtract the captured count instead of resetting to zero:
  // modifications recorded after the capture raced the build, are not
  // reflected in the snapshot just published, and must survive into the
  // new generation's staleness accounting.
  entry->modifications_since_build.fetch_sub(modifications_at_capture,
                                             std::memory_order_relaxed);
}

Result<std::shared_ptr<const ColumnStatistics>>
StatisticsShard::BuildAndPublish(const std::string& column, Entry* entry,
                                   const Table& table, bool require_fresh,
                                   Status* build_error) {
  // One build per column at a time: a second thread arriving here blocks
  // until the first publishes, then takes the fresh snapshot below.
  MutexLock build_lock(entry->build_mu);
  std::uint64_t generation = 0;
  std::uint64_t modifications_at_capture = 0;
  Status breaker_status = Status::OK();
  std::shared_ptr<const ColumnStatistics> current;
  {
    ReaderMutexLock lock(mu_);
    entry->AssertReaderHeld();
    if (SatisfiesLocked(*entry, require_fresh)) return entry->stats;
    current = entry->stats;
    // Circuit breaker: while open, don't attempt the *storage* build —
    // noted here, acted on below, after the incremental path got its shot.
    if (entry->breaker.IsOpen(options_.clock)) {
      breaker_status = Status::Unavailable(
          "circuit breaker open after " +
          std::to_string(entry->breaker.consecutive_failures) +
          " consecutive build failures; last: " +
          entry->last_error.ToString());
    }
    generation = entry->generation;
    // Captured now, consumed at publish: only modifications that already
    // existed when this build started may be cleared — DML recorded while
    // the build runs is not reflected in the new snapshot and must keep
    // counting toward its staleness.
    modifications_at_capture =
        entry->modifications_since_build.load(std::memory_order_relaxed);
  }
  // O(Δ) refresh first (DESIGN.md §15): when the live maintained state is
  // warm and within budget, publish from it and skip the storage build
  // entirely. Deliberately tried even while the breaker is open — the
  // refresh reads no pages, so the very faults that opened the breaker
  // cannot hurt it, and it is exactly the repair a column on sick storage
  // wants.
  if (std::shared_ptr<const ColumnStatistics> refreshed =
          TryRefreshIncremental(entry, modifications_at_capture)) {
    return refreshed;
  }
  if (!breaker_status.ok()) {
    // Keep serving whatever is published (the stale snapshot or the
    // fallback) until the cooldown lets a build through.
    if (current != nullptr) {
      if (build_error != nullptr) *build_error = breaker_status;
      return current;
    }
    return breaker_status;
  }
  // Seed addressed by (shard seed, column, generation): independent of
  // the order in which threads or BuildAll shards reach this column.
  const std::uint64_t seed =
      DeriveStreamSeed(options_.seed ^ HashColumnName(column), generation);
  const std::uint64_t build_started = ReadClock(options_.clock);
  Result<ColumnStatistics> built = Build(column, table, seed, pool());
  if (!built.ok()) {
    if (build_error != nullptr) *build_error = built.status();
    return AbsorbBuildFailure(entry, table, built.status());
  }
  metrics_.Observe(metrics::Hist::kBuildLatencyMicros,
                   ReadClock(options_.clock) - build_started);
  auto snapshot =
      std::make_shared<const ColumnStatistics>(std::move(built).value());
  // The build factories produce the model (with any compiled read-path
  // state) outside any manager lock; the serving path shares it. A
  // model-less snapshot must never publish — the serving path would have
  // nothing to estimate with.
  if (snapshot->model == nullptr) {
    return Status::Internal("built statistics carry no histogram model");
  }
  Publish(entry, snapshot, modifications_at_capture);
  // Re-arm (or disarm) the live maintenance state from the fresh snapshot.
  // DML that raced the build and landed in the old live state is simply
  // superseded: it still counts toward staleness via the counter above.
  WarmMaintenance(entry, *snapshot);
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
  metrics_.Increment(metrics::Counter::kBuildsCompleted);
  return snapshot;
}

std::shared_ptr<const ColumnStatistics>
StatisticsShard::TryRefreshIncremental(
    Entry* entry, std::uint64_t modifications_at_capture) {
  // Snapshot the live state under its own lock, then assemble and publish
  // with no maintenance lock held — DML keeps flowing while we publish.
  std::optional<Histogram> histogram;
  std::optional<BackingReservoir> reservoir;
  {
    MutexLock lock(entry->maintenance.mu);
    MaintenanceState& m = entry->maintenance;
    if (!m.live.has_value()) return nullptr;  // cold: never warmed, or disarmed
    // Count-only modifications never reached the reservoir; the live state
    // is unrepresentative and only a full rebuild can catch up.
    if (m.opaque_modifications != 0) return nullptr;
    const BackingReservoir& backing = m.live->backing_sample();
    if (backing.population() == 0 || backing.size() == 0) return nullptr;
    // Counted-replacement deletes drain the reservoir without refilling
    // it; below the fill floor its quantiles are too coarse to trust.
    if (backing.fill_fraction() < options_.reservoir_min_fill) return nullptr;
    // Repair budget: past this much absorbed DML (relative to the live row
    // count) the accumulated drift calls for a reseed from the table.
    if (static_cast<double>(backing.ops_since_seed()) >
        options_.incremental_repair_budget *
            static_cast<double>(backing.population())) {
      return nullptr;
    }
    Result<Histogram> snapshot = m.live->Snapshot();
    if (!snapshot.ok()) return nullptr;  // pre-first-insert: nothing to publish
    histogram = std::move(snapshot).value();
    reservoir = backing;  // copy; `live` keeps absorbing DML meanwhile
  }
  Result<ColumnStatistics> built =
      MakeIncrementalStatistics(*histogram, std::move(*reservoir));
  if (!built.ok()) return nullptr;  // fall through to the full build
  auto snapshot =
      std::make_shared<const ColumnStatistics>(std::move(built).value());
  // A successful refresh heals like a successful build: the column is
  // demonstrably servable again.
  Publish(entry, snapshot, modifications_at_capture);
  incremental_refreshes_.fetch_add(1, std::memory_order_relaxed);
  metrics_.Increment(metrics::Counter::kIncrementalRefreshes);
  return snapshot;
}

void StatisticsShard::WarmMaintenance(Entry* entry,
                                        const ColumnStatistics& stats) {
  const auto* incremental =
      dynamic_cast<const IncrementalEquiDepthModel*>(stats.model.get());
  MutexLock lock(entry->maintenance.mu);
  MaintenanceState& m = entry->maintenance;
  // The snapshot subsumes everything recorded so far, opaque or not.
  m.opaque_modifications = 0;
  m.live.reset();
  if (incremental == nullptr) return;  // other families stay cold
  GmpOptions gmp;
  gmp.buckets = incremental->histogram().bucket_count();
  gmp.reservoir_capacity = incremental->reservoir().capacity();
  gmp.seed = options_.seed;
  Result<IncrementalEquiDepth> live = IncrementalEquiDepth::FromState(
      gmp, incremental->histogram(), incremental->reservoir());
  // On failure the state stays cold and every refresh falls back to a
  // full rebuild — degraded but correct.
  if (live.ok()) m.live.emplace(std::move(live).value());
}

void StatisticsShard::RecordInsert(const std::string& column, Value value) {
  metrics_.Increment(metrics::Counter::kDmlRecords);
  const std::shared_ptr<Entry> entry = FindEntry(column);
  if (entry == nullptr) return;
  entry->modifications_since_build.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(entry->maintenance.mu);
  if (entry->maintenance.live.has_value()) {
    entry->maintenance.live->Insert(value);
  }
}

void StatisticsShard::RecordDelete(const std::string& column, Value value) {
  metrics_.Increment(metrics::Counter::kDmlRecords);
  const std::shared_ptr<Entry> entry = FindEntry(column);
  if (entry == nullptr) return;
  entry->modifications_since_build.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(entry->maintenance.mu);
  if (entry->maintenance.live.has_value()) {
    entry->maintenance.live->Delete(value);
  }
}

Result<std::shared_ptr<const ColumnStatistics>>
StatisticsShard::AbsorbBuildFailure(Entry* entry, const Table& table,
                                    const Status& error) {
  metrics_.Increment(metrics::Counter::kBuildsFailed);
  // Non-fault errors (bad options, empty table, internal bugs) are the
  // caller's problem: no breaker, no degradation, just the error.
  if (!IsFaultError(error.code())) return error;
  {
    WriterMutexLock lock(mu_);
    entry->AssertWriterHeld();
    ++entry->total_build_failures;
    entry->last_error = error;
    entry->breaker.RecordFailure(options_.clock,
                                 options_.breaker_failure_threshold,
                                 options_.breaker_cooldown_micros);
    // Stale-while-error: the failed rebuild leaves the published snapshot
    // untouched (`published` is NOT bumped), so every serving thread keeps
    // its cached snapshot with zero extra cost. The staleness that caused
    // the rebuild persists — the modification counter is not reset — so
    // the next EnsureFresh tries again (breaker permitting).
    if (entry->stats != nullptr) return entry->stats;
  }
  if (!options_.fallback_on_unbuilt) return error;
  // Never-built column on faulty storage: publish the metadata-only
  // uniform fallback so estimation stays available. Health reports
  // kDegraded; a later successful build replaces it.
  auto snapshot = MakeFallbackSnapshot(table);
  Publish(entry, snapshot, /*modifications_at_capture=*/0, /*fallback=*/true);
  metrics_.Increment(metrics::Counter::kFallbackPublishes);
  return snapshot;
}

Result<std::shared_ptr<const ColumnStatistics>>
StatisticsShard::AcquireSnapshot(const std::string& column,
                                 const Table& table, bool require_fresh,
                                 Status* build_error) {
  {
    ReaderMutexLock lock(mu_);
    const auto it = entries_.find(column);
    if (it != entries_.end()) {
      const Entry& entry = *it->second;
      entry.AssertReaderHeld();
      if (SatisfiesLocked(entry, require_fresh)) return entry.stats;
    }
  }
  const std::shared_ptr<Entry> entry = GetEntry(column);
  return BuildAndPublish(column, entry.get(), table, require_fresh,
                         build_error);
}

Result<std::shared_ptr<const ColumnStatistics>>
StatisticsShard::GetOrBuildShared(const std::string& column,
                                    const Table& table) {
  return AcquireSnapshot(column, table, /*require_fresh=*/false);
}

Result<const ColumnStatistics*> StatisticsShard::GetOrBuild(
    const std::string& column, const Table& table) {
  EQUIHIST_ASSIGN_OR_RETURN(const std::shared_ptr<const ColumnStatistics> s,
                            GetOrBuildShared(column, table));
  // The entry keeps a reference; the raw pointer stays valid until the
  // column is rebuilt or dropped, as before.
  return s.get();
}

void StatisticsShard::RecordModifications(const std::string& column,
                                          std::uint64_t count) {
  metrics_.Increment(metrics::Counter::kDmlRecords);
  const std::shared_ptr<Entry> entry = FindEntry(column);
  if (entry == nullptr) return;
  entry->modifications_since_build.fetch_add(count,
                                             std::memory_order_relaxed);
  if (count == 0) return;
  // Opaque DML disqualifies incremental refresh until the next warm-up:
  // the values never reached the reservoir (see TryRefreshIncremental).
  MutexLock lock(entry->maintenance.mu);
  entry->maintenance.opaque_modifications += count;
}

bool StatisticsShard::IsStale(const std::string& column) const {
  ReaderMutexLock lock(mu_);
  const auto it = entries_.find(column);
  if (it == entries_.end()) return false;
  const Entry& entry = *it->second;
  entry.AssertReaderHeld();
  return IsStaleLocked(entry);
}

Result<std::shared_ptr<const ColumnStatistics>>
StatisticsShard::EnsureFreshShared(const std::string& column,
                                     const Table& table) {
  return AcquireSnapshot(column, table, /*require_fresh=*/true);
}

Result<const ColumnStatistics*> StatisticsShard::EnsureFresh(
    const std::string& column, const Table& table) {
  EQUIHIST_ASSIGN_OR_RETURN(const std::shared_ptr<const ColumnStatistics> s,
                            EnsureFreshShared(column, table));
  return s.get();
}

StatisticsShard::BuildAllResult StatisticsShard::BuildAll(
    const std::vector<std::string>& columns, const Table& table) {
  // Per-column outcome: the build error even when degraded serving
  // absorbed it, or the propagated error for non-fault failures.
  auto build_one = [this, &table](const std::string& column) -> Status {
    Status build_error = Status::OK();
    const auto result = AcquireSnapshot(column, table,
                                        /*require_fresh=*/true, &build_error);
    if (!result.ok()) return result.status();
    return build_error;
  };

  BuildAllResult result;
  result.attempted = columns.size();
  std::vector<Status> outcomes(columns.size());
  ThreadPool* fan_out = pool();
  if (fan_out == nullptr) {
    for (std::size_t i = 0; i < columns.size(); ++i) {
      outcomes[i] = build_one(columns[i]);
    }
  } else {
    // Each column is one pool task; its build then uses the same pool for
    // its internal stages (ParallelFor callers participate, so the nesting
    // cannot starve). Every column is attempted regardless of failures.
    std::vector<std::future<Status>> pending;
    pending.reserve(columns.size());
    for (const std::string& column : columns) {
      pending.push_back(fan_out->Submit(
          [&build_one, column]() -> Status { return build_one(column); }));
    }
    for (std::size_t i = 0; i < pending.size(); ++i) {
      outcomes[i] = pending[i].get();
    }
  }
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (outcomes[i].ok()) {
      ++result.succeeded;
    } else {
      result.failed.emplace_back(columns[i], outcomes[i]);
    }
  }
  return result;
}

Status StatisticsShard::InstallSerializedStatistics(
    const std::string& column, std::span<const std::uint8_t> bytes) {
  const std::shared_ptr<Entry> node = GetEntry(column);
  Entry* const entry = node.get();
  // Installs serialize against live builds of the same column.
  MutexLock build_lock(entry->build_mu);
  // Same race-free accounting as BuildAndPublish: the blob reflects DML
  // up to (at most) this point, so only modifications already recorded
  // may be cleared when it publishes.
  const std::uint64_t modifications_at_capture =
      entry->modifications_since_build.load(std::memory_order_relaxed);
  Result<ColumnStatistics> parsed = DeserializeColumnStatistics(bytes);
  if (parsed.ok() && parsed->model == nullptr) {
    parsed = Status::DataLoss("serialized statistics carry no histogram");
  }
  if (!parsed.ok()) {
    // Quarantine: reject the blob, record why, keep serving whatever was
    // published before. The flag clears on the next successful install or
    // live build.
    WriterMutexLock lock(mu_);
    entry->AssertWriterHeld();
    entry->quarantined = true;
    entry->last_error = parsed.status();
    return parsed.status();
  }
  auto snapshot =
      std::make_shared<const ColumnStatistics>(std::move(parsed).value());
  Publish(entry, snapshot, modifications_at_capture);
  // An installed incremental-equi-depth blob carries its reservoir, so
  // restore-from-catalog re-arms O(Δ) maintenance just like a live build.
  WarmMaintenance(entry, *snapshot);
  return Status::OK();
}

ColumnHealthReport StatisticsShard::Health(const std::string& column) const {
  ColumnHealthReport report;
  ReaderMutexLock lock(mu_);
  const auto it = entries_.find(column);
  if (it == entries_.end()) return report;  // unknown: kDegraded, !exists
  const Entry& entry = *it->second;
  entry.AssertReaderHeld();
  report.exists = true;
  report.serving_fallback = entry.serving_fallback;
  report.quarantined = entry.quarantined;
  report.consecutive_build_failures = entry.breaker.consecutive_failures;
  report.total_build_failures = entry.total_build_failures;
  if (entry.stats != nullptr && entry.stats->row_count > 0) {
    report.modified_fraction =
        static_cast<double>(entry.modifications_since_build.load(
            std::memory_order_relaxed)) /
        static_cast<double>(entry.stats->row_count);
  }
  report.last_error = entry.last_error;
  report.breaker_open = entry.breaker.IsOpen(options_.clock);
  if (entry.stats == nullptr || entry.serving_fallback || entry.quarantined) {
    report.health = ColumnHealth::kDegraded;
  } else if (IsStaleLocked(entry) || entry.breaker.consecutive_failures > 0) {
    report.health = ColumnHealth::kStale;
  } else {
    report.health = ColumnHealth::kFresh;
  }
  return report;
}

bool StatisticsShard::Drop(const std::string& column) {
  WriterMutexLock lock(mu_);
  const auto it = entries_.find(column);
  if (it == entries_.end()) return false;
  it->second->AssertWriterHeld();
  // A placeholder whose first build failed never became visible.
  const bool existed = it->second->stats != nullptr;
  // Invalidate every thread's serving cache: the bump makes any cached
  // publication count stale, and the refresh goes through the map — where
  // the column no longer exists — rather than the detached entry node.
  it->second->published.fetch_add(1, std::memory_order_release);
  entries_.erase(it);
  return existed;
}

// -- Lock-free serving path --------------------------------------------------

std::vector<StatisticsShard::CachedServing>&
StatisticsShard::ServingCache() {
  thread_local std::vector<CachedServing> cache;
  return cache;
}

StatisticsShard::CachedServing* StatisticsShard::FindCachedServing(
    const std::string& column) {
  for (CachedServing& slot : ServingCache()) {
    if (slot.shard_id == shard_id_ && slot.column == column) return &slot;
  }
  return nullptr;
}

HistogramModelPtr StatisticsShard::CaptureServing(const std::string& column) {
  CachedServing fresh;
  {
    ReaderMutexLock lock(mu_);
    const auto it = entries_.find(column);
    if (it == entries_.end()) return nullptr;
    it->second->AssertReaderHeld();
    if (it->second->stats == nullptr) return nullptr;
    // Counter and snapshot are mutually consistent here: Publish mutates
    // both under the exclusive lock we are sharing against.
    fresh.published = it->second->published.load(std::memory_order_acquire);
    fresh.model = it->second->stats->model;
    fresh.entry = it->second;
  }
  fresh.shard_id = shard_id_;
  fresh.column = column;
  std::vector<CachedServing>& cache = ServingCache();
  CachedServing* slot = FindCachedServing(column);
  if (slot == nullptr) {
    if (cache.size() >= kMaxServingSlots) cache.erase(cache.begin());
    slot = &cache.emplace_back();
  }
  *slot = std::move(fresh);
  return slot->model;
}

Result<HistogramModelPtr> StatisticsShard::ServingModel(
    const std::string& column, const Table& table) {
  const CachedServing* slot = FindCachedServing(column);
  if (slot != nullptr && slot->entry->published.load(
                             std::memory_order_acquire) == slot->published) {
    return slot->model;
  }
  metrics_.Increment(metrics::Counter::kServingCacheRefreshes);
  // Capture always resolves through the entry map, never through a cached
  // entry pointer: an entry detached by Drop must not be re-validated, or
  // a thread could serve a dropped column forever.
  if (HistogramModelPtr model = CaptureServing(column)) return model;
  // Missing or never-built column: build through the normal path, then
  // capture what it published.
  EQUIHIST_ASSIGN_OR_RETURN(const std::shared_ptr<const ColumnStatistics> built,
                            GetOrBuildShared(column, table));
  if (HistogramModelPtr model = CaptureServing(column)) return model;
  // A concurrent Drop detached the entry before the capture: serve the
  // snapshot this call built, uncached, so the next call resolves through
  // the map again.
  return built->model;
}

Result<double> StatisticsShard::EstimateRange(const std::string& column,
                                              const Table& table,
                                              const RangeQuery& query) {
  metrics_.Increment(metrics::Counter::kEstimateQueries);
  EQUIHIST_ASSIGN_OR_RETURN(const HistogramModelPtr model,
                            ServingModel(column, table));
  return model->EstimateRangeCount(query);
}

Status StatisticsShard::EstimateBatch(
    const Table& table, std::span<const BatchEstimateRequest> requests,
    BatchEstimateResult* result, bool use_pool) {
  if (result == nullptr) {
    return Status::InvalidArgument("null batch result");
  }
  const std::size_t n = requests.size();
  result->estimates.assign(n, 0.0);
  if (n == 0) return Status::OK();
  metrics_.Increment(metrics::Counter::kEstimateBatches);
  metrics_.Increment(metrics::Counter::kEstimateQueries, n);
  metrics_.Observe(metrics::Hist::kEstimateBatchSize, n);
  // Group the interleaved requests by column, resolving each distinct
  // column's serving model exactly once through the lock-free cache. The
  // returned shared_ptr pins the snapshot for the rest of the batch, so a
  // concurrent rebuild cannot pull it out from under the later
  // estimation pass.
  //
  // A predicate list names a handful of columns, so the group table is a
  // flat linear-scanned vector, and the per-group query lists live in one
  // shared gather buffer (counting-sort layout) — the whole batch costs a
  // fixed number of allocations regardless of column interleaving.
  struct ColumnGroup {
    const std::string* column = nullptr;  // borrowed from requests[]
    HistogramModelPtr model;
    std::size_t count = 0;
    std::size_t offset = 0;
  };
  std::vector<ColumnGroup> groups;
  std::vector<std::size_t> group_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t g = 0;
    while (g < groups.size() && *groups[g].column != requests[i].column) ++g;
    if (g == groups.size()) {
      EQUIHIST_ASSIGN_OR_RETURN(HistogramModelPtr model,
                                ServingModel(requests[i].column, table));
      groups.push_back(
          ColumnGroup{&requests[i].column, std::move(model), 0, 0});
    }
    ++groups[g].count;
    group_of[i] = g;
  }
  ThreadPool* fan_out = use_pool ? pool() : nullptr;
  // Single-column batch (the common planner case): the grouped layout is
  // the request order, so estimate straight into the result.
  if (groups.size() == 1) {
    std::vector<RangeQuery> queries(n);
    for (std::size_t i = 0; i < n; ++i) queries[i] = requests[i].query;
    groups[0].model->EstimateRangeCounts(
        queries, std::span<double>(result->estimates), fan_out);
    return Status::OK();
  }
  // Multi-column: stable counting sort of the queries into per-group runs
  // of one shared buffer, one batch estimation per run (all snapshots
  // pinned above, so the answers are a consistent cut across columns),
  // then one scatter back to request order.
  std::size_t offset = 0;
  for (ColumnGroup& group : groups) {
    group.offset = offset;
    offset += group.count;
  }
  std::vector<RangeQuery> queries(n);
  std::vector<std::size_t> cursor(groups.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    queries[groups[group_of[i]].offset + cursor[group_of[i]]++] =
        requests[i].query;
  }
  std::vector<double> scratch(n);
  for (const ColumnGroup& group : groups) {
    group.model->EstimateRangeCounts(
        std::span<const RangeQuery>(queries.data() + group.offset,
                                    group.count),
        std::span<double>(scratch.data() + group.offset, group.count),
        fan_out);
  }
  // Replaying the cursor walk inverts the counting sort without a
  // positions side table.
  std::fill(cursor.begin(), cursor.end(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    result->estimates[i] =
        scratch[groups[group_of[i]].offset + cursor[group_of[i]]++];
  }
  return Status::OK();
}

bool StatisticsShard::Has(const std::string& column) const {
  ReaderMutexLock lock(mu_);
  const auto it = entries_.find(column);
  if (it == entries_.end()) return false;
  it->second->AssertReaderHeld();
  return it->second->stats != nullptr;
}

std::size_t StatisticsShard::size() const {
  ReaderMutexLock lock(mu_);
  std::size_t count = 0;
  for (const auto& [name, entry] : entries_) {
    entry->AssertReaderHeld();
    if (entry->stats != nullptr) ++count;
  }
  return count;
}

IoStats StatisticsShard::total_build_cost() const {
  ReaderMutexLock lock(mu_);
  return total_build_cost_;
}

std::uint64_t StatisticsShard::stale_count() const {
  ReaderMutexLock lock(mu_);
  std::uint64_t stale = 0;
  for (const auto& [name, entry] : entries_) {
    entry->AssertReaderHeld();
    if (IsStaleLocked(*entry)) ++stale;
  }
  return stale;
}

}  // namespace equihist
