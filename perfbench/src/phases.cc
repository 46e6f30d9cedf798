#include "phases.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

using namespace equihist;

void Tally::Fail(const std::string& what) {
  if (failed_.fetch_add(1) < 5) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// -- Closed-loop estimate client ---------------------------------------------

namespace {

// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

// Restricts the calling thread to `cpus`.
void PinCurrentThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace

ServeClient::ServeClient(Fixture& fixture,
                         metrics::MetricsPlane* client_metrics,
                         Tracer& tracer)
    : fixture_(fixture),
      client_([&]() {
        transport::TransportClient::Options options;
        options.metrics = client_metrics;
        options.jitter_seed = DeriveStreamSeed(fixture.seed, 50);
        return options;
      }()),
      lane_(tracer.NewLane()),
      rng_(DeriveStreamSeed(fixture.seed, 100)),
      cpus_(AllowedCpus()) {
  StatisticsFleet* fleet = fixture.fleet.get();
  const Table* table = &*fixture.table;
  client_.AddPeer({"in-process",
                   [fleet, table](std::uint64_t)
                       -> Result<std::unique_ptr<transport::Transport>> {
                     return std::unique_ptr<transport::Transport>(
                         std::make_unique<transport::InProcessTransport>(
                             fleet, table));
                   }});
}

void ServeClient::Serve(std::int64_t deadline_ns, ServeStats& stats,
                        Tally& tally) {
  const SlicedDistribution& slices = stats.latency_ns;
  const std::int64_t start = NowNs();
  std::int64_t slice = -1;
  for (std::int64_t t0 = start; t0 < deadline_ns; t0 = NowNs()) {
    // Each slice runs on the next CPU in turn (see kServeSliceNs).
    const std::int64_t now_slice = (t0 - slices.start_ns()) / slices.width_ns();
    if (!cpus_.empty() && now_slice != slice) {
      slice = now_slice;
      PinCurrentThread(
          {cpus_[static_cast<std::size_t>(slice) % cpus_.size()]});
    }
    const std::size_t b = rng_.Next() % kPoolBatches;
    Result<std::vector<double>> got = Status::Internal("not called");
    {
      ScopedSpan span(lane_, "transport_client.estimate_batch");
      got = client_.EstimateBatch(fixture_.batches[b]);
    }
    stats.latency_ns.Add(t0, NowNs() - t0);
    tally.Attempt();
    if (!got.ok()) {
      tally.Fail("estimate batch: " + got.status().ToString());
      continue;
    }
    bool right = got->size() == kBatchSize;
    for (std::size_t i = 0; right && i < kBatchSize; ++i) {
      right = SameBits((*got)[i], fixture_.expected[b][i]);
    }
    if (!right) {
      tally.Fail("estimate batch " + std::to_string(b) +
                 " differs from the direct shard answer");
    }
  }
  if (!cpus_.empty()) PinCurrentThread(cpus_);  // every CPU back
  stats.seconds += static_cast<double>(NowNs() - start) / 1e9;
}

// -- Refresher ------------------------------------------------------------------

Refresher::Refresher(Fixture& fixture, Tracer& tracer)
    : fixture_(fixture), lane_(tracer.NewLane()) {
  for (const std::string& column : fixture.equi_height_columns) {
    probes_.push_back(ProbeBatch(fixture, column));
  }
}

void Refresher::Refresh(std::int64_t deadline_ns, RefreshStats& stats,
                        Tally& tally) {
  const Table& table = *fixture_.table;
  const auto& columns = fixture_.equi_height_columns;
  const std::int64_t start = NowNs();
  while (NowNs() < deadline_ns) {
    const std::size_t c = checks_.size() % columns.size();
    const std::string& column = columns[c];
    tally.Attempt();
    checks_.push_back({.column = c, .ok = false, .answers = {}});
    fixture_.fleet->RecordModifications(column, kStaleCount);
    Result<const ColumnStatistics*> fresh = Status::Internal("not called");
    const std::int64_t t0 = NowNs();
    {
      ScopedSpan span(lane_, "statistics_fleet.ensure_fresh");
      fresh = fixture_.fleet->EnsureFresh(column, table);
    }
    stats.latency_ns.Add(t0, NowNs() - t0);
    if (!fresh.ok()) {
      tally.Fail("EnsureFresh(" + column + "): " + fresh.status().ToString());
      continue;
    }
    const ColumnStatistics& built = **fresh;
    ++stats.refreshes;
    stats.pages_read += built.build_cost.pages_read;
    stats.rows_sampled += built.sample_size;
    // Paper-regime guard: a refresh must rebuild by sampling, and CVB must
    // converge before it has read (or exhausted) the whole table.
    if (built.build_cost.pages_read == 0 || built.from_full_scan ||
        built.build_cost.pages_read >= table.page_count() ||
        built.sample_size >= table.tuple_count() ||
        built.equi_height() == nullptr) {
      tally.Fail("refresh of " + column + " left the paper's regime: read " +
                 std::to_string(built.build_cost.pages_read) + " of " +
                 std::to_string(table.page_count()) + " pages");
      continue;
    }
    BatchEstimateResult served;
    if (!fixture_.fleet->EstimateBatch(table, probes_[c], &served).ok()) {
      tally.Fail("probe estimate after refreshing " + column);
      continue;
    }
    checks_.back().ok = true;
    checks_.back().answers = std::move(served.estimates);
  }
  stats.seconds += static_cast<double>(NowNs() - start) / 1e9;
  if (std::string error; !ComputeExpected(fixture_, &error)) tally.Fail(error);
}

void Refresher::Verify(StatisticsFleet& reference, Tally& tally) {
  // Columns replay in parallel, each in order (each reference build
  // itself stays sequential).
  const auto& columns = fixture_.equi_height_columns;
  const std::size_t lanes = std::min<std::size_t>(
      columns.size(), std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> replayers;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    replayers.emplace_back([&, lane]() {
      for (std::size_t i = 0; i < checks_.size(); ++i) {
        const Check& check = checks_[i];
        if (check.column % lanes != lane) continue;
        const std::string& column = columns[check.column];
        reference.RecordModifications(column, kStaleCount);
        const auto rebuilt = reference.EnsureFresh(column, *fixture_.table);
        if (!check.ok) continue;
        BatchEstimateResult want;
        bool same = rebuilt.ok() &&
                    reference
                        .EstimateBatch(*fixture_.table, probes_[check.column],
                                       &want)
                        .ok() &&
                    want.estimates.size() == check.answers.size();
        for (std::size_t q = 0; same && q < want.estimates.size(); ++q) {
          same = SameBits(check.answers[q], want.estimates[q]);
        }
        if (!same) {
          tally.Fail("refresh " + std::to_string(i) + " of " + column +
                     " differs from the 1-thread reference fleet");
        }
      }
    });
  }
  for (std::thread& replayer : replayers) replayer.join();
}

// -- Open-loop DML generator ---------------------------------------------------

namespace {

// State shared between the generator thread and the scheduler's build
// threads; the builds finish (DrainBuilds) before it goes out of scope.
struct RefreshLedger {
  std::mutex mu;
  std::vector<const ColumnStatistics*> last_published;
  Tracer::Lane* lane = nullptr;  // written under mu only
  // Per column: when its oldest not-yet-started refresh request was
  // enqueued (0 = none pending).
  std::array<std::atomic<std::int64_t>, kIncrementalColumns> pending_since{};
};

}  // namespace

Distribution RunDmlGenerator(Fixture& fixture, std::int64_t duration_ns,
                             Tracer& tracer, Tally& tally) {
  StatisticsFleet& fleet = *fixture.fleet;
  const Table& table = *fixture.table;
  const auto& columns = fixture.incremental_columns;
  RefreshLedger ledger;
  ledger.last_published.assign(columns.size(), nullptr);
  ledger.lane = tracer.NewLane();
  Tracer::Lane* lane = tracer.NewLane();

  const auto enqueue = [&](std::size_t c) {
    std::int64_t none = 0;
    ledger.pending_since[c].compare_exchange_strong(none, NowNs());
    const ColumnHealthReport health = fleet.Health(columns[c]);
    BuildScheduler::Request request;
    request.table = "t";
    request.column = columns[c];
    request.health = health.health;
    request.pressure = health.modified_fraction;
    request.build = [&, c]() -> Status {
      const std::int64_t since = ledger.pending_since[c].exchange(0);
      const std::int64_t start = NowNs();
      const auto fresh = fleet.EnsureFresh(columns[c], table);
      const std::int64_t end = NowNs();
      std::lock_guard<std::mutex> lock(ledger.mu);
      tally.Attempt();
      if (!fresh.ok()) {
        tally.Fail("scheduled refresh of " + columns[c] + ": " +
                   fresh.status().ToString());
        return fresh.status();
      }
      // A request that found the column already fresh published nothing.
      if (*fresh == ledger.last_published[c]) return Status::OK();
      ledger.last_published[c] = *fresh;
      if (since != 0 && ledger.lane != nullptr) {
        ledger.lane->Record("build_scheduler.enqueue_to_publish", end - since);
      }
      const std::uint64_t pages = (*fresh)->build_cost.pages_read;
      if (pages >= table.page_count()) {
        tally.Fail("full rebuild of " + columns[c] + " read the whole table");
      }
      if (ledger.lane != nullptr) {
        ledger.lane->Record(pages == 0 ? "incremental_backend.refresh"
                                       : "build_scheduler.full_rebuild",
                            end - start);
      }
      return Status::OK();
    };
    fleet.scheduler().Enqueue(std::move(request));
  };

  Distribution lag_ns;
  Rng rng(DeriveStreamSeed(fixture.seed, 200));
  std::vector<std::deque<Value>> inserted(columns.size());
  std::vector<std::uint64_t> since_enqueue(columns.size(), 0);
  constexpr std::int64_t kTickNs = 1'000'000;
  constexpr std::uint64_t kOpsPerTick = kDmlOpsPerSecond / 1000;
  const std::int64_t start = NowNs();
  const std::int64_t deadline = start + duration_ns;
  std::uint64_t op = 0;
  for (std::int64_t tick = 0;; ++tick) {
    const std::int64_t due = start + tick * kTickNs;
    if (due >= deadline) break;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    for (std::uint64_t j = 0; j < kOpsPerTick; ++j, ++op) {
      const std::size_t c = op % columns.size();
      const std::int64_t began = NowNs();
      lag_ns.Add(began - due);
      // Alternate inserts of values drawn from the data with deletes of
      // earlier inserts, so the live row count stays near n.
      if ((op / columns.size()) % 2 == 0 || inserted[c].empty()) {
        const Value value =
            fixture.truth.ValueAtRank(rng.Next() % fixture.truth.size());
        ScopedSpan span(lane, "reservoir.dml");
        fleet.RecordInsert(columns[c], value);
        inserted[c].push_back(value);
      } else {
        ScopedSpan span(lane, "reservoir.dml");
        fleet.RecordDelete(columns[c], inserted[c].front());
        inserted[c].pop_front();
      }
      if (++since_enqueue[c] >= kStaleCount) {
        since_enqueue[c] = 0;
        enqueue(c);
      }
      if (op % kFullRebuildEveryOps == kFullRebuildEveryOps - 1) {
        // Count-only DML carries no values, so the reservoir cannot absorb
        // it: the next refresh of this column is a full rebuild.
        const std::size_t full = (op / kFullRebuildEveryOps) % columns.size();
        fleet.RecordModifications(columns[full], kStaleCount);
        enqueue(full);
      }
    }
  }
  fleet.DrainBuilds();
  (void)fleet.scheduler().TakeFailures();  // the closures counted them
  return lag_ns;
}

}  // namespace perfbench
