#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "distribution.h"
#include "equihist/equihist.h"
#include "fixture.h"
#include "stats/transport_client.h"
#include "trace.h"

namespace perfbench {

// Operations attempted and failed (an error or a wrong answer) across a
// run. The first few failures are printed to stderr.
class Tally {
 public:
  void Attempt() { attempted_.fetch_add(1); }
  void Fail(const std::string& what);
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

// True when the two doubles have the same bits.
bool SameBits(double a, double b);

// -- Closed-loop estimate client -------------------------------------------

// One closed-loop client. With two, the fleet's BatchCoalescer makes one
// client wait for the other's wave, and the cost of that cross-thread
// wake-up flipped between ~7 and ~12 us per call from one run to the next
// on a 4-vCPU VM: one client keeps the read stack on the caller's thread.
//
// Timings are kept per time slice of the whole run (SlicedDistribution):
// kServeSliceNs for the client, kRefreshSliceNs for refreshes (a slice
// holds about 40 of them). The client moves to the next CPU at every
// slice: a lone busy thread otherwise stays on one vCPU for the whole
// run, however busy that vCPU's host core is.
inline constexpr std::int64_t kServeSliceNs = 100'000'000;
inline constexpr std::int64_t kRefreshSliceNs = 250'000'000;

struct ServeStats {
  SlicedDistribution latency_ns;  // one 16-predicate TransportClient call
  double seconds = 0.0;           // spent serving
};

// A TransportClient over InProcessTransport sending batches from the
// fixture's pool in a seeded order. Every answer must match the fixture's
// expected (direct shard) answer bit for bit.
class ServeClient {
 public:
  ServeClient(Fixture& fixture,
              equihist::metrics::MetricsPlane* client_metrics,
              Tracer& tracer);

  // Serves until `deadline_ns`, adding to `stats`.
  void Serve(std::int64_t deadline_ns, ServeStats& stats, Tally& tally);

 private:
  Fixture& fixture_;
  equihist::transport::TransportClient client_;
  Tracer::Lane* lane_;
  equihist::Rng rng_;
  std::vector<int> cpus_;  // the CPUs this process may run on
};

// -- Refresher: staleness past the threshold, then EnsureFresh -----------

struct RefreshStats {
  SlicedDistribution latency_ns;  // EnsureFresh of a stale column
  std::uint64_t refreshes = 0;
  std::uint64_t pages_read = 0;
  std::uint64_t rows_sampled = 0;
  double seconds = 0.0;  // spent refreshing
};

// Loops over the equi-height columns: RecordModifications past the
// staleness threshold, then StatisticsFleet::EnsureFresh. Every refresh
// must stay in the paper's regime (sampled, converged before reading the
// whole table). Its probe answers are kept for Verify().
class Refresher {
 public:
  Refresher(Fixture& fixture, Tracer& tracer);

  // Refreshes until `deadline_ns`, adding to `stats`, then brings the
  // fixture's expected answers up to date for the client.
  void Refresh(std::int64_t deadline_ns, RefreshStats& stats, Tally& tally);

  // Once, after the last Refresh(): replays every refresh on `reference`
  // (a 1-thread, 1-shard fleet built from the same seed) and compares the
  // probe answers bit for bit. Runs outside the timed blocks, so it costs
  // no samples.
  void Verify(equihist::StatisticsFleet& reference, Tally& tally);

 private:
  // One refresh's outcome as served right after it: the probe answers the
  // reference fleet must reproduce for the same column and generation.
  struct Check {
    std::size_t column = 0;
    bool ok = false;
    std::vector<double> answers;
  };

  Fixture& fixture_;
  Tracer::Lane* lane_;
  std::vector<std::vector<equihist::BatchEstimateRequest>> probes_;
  std::vector<Check> checks_;
};

// -- Open-loop DML generator with scheduled refreshes -----------------------

// The traced run's last rung. The DML rate and the full-rebuild cadence
// are not taken from a measurement: they are set so that a few seconds
// hold hundreds of scheduled incremental refreshes (25 a second per
// column at kStaleCount ops each) and one full rebuild per 25,000 ops,
// about 6% of the refreshes. The generator's lag
// (dml_generator.lag_ms_p99) shows that one thread keeps the rate.
inline constexpr std::uint64_t kDmlOpsPerSecond = 100'000;
inline constexpr std::uint64_t kFullRebuildEveryOps = 25'000;

// Applies value-carrying RecordInsert/RecordDelete to the incremental
// columns at kDmlOpsPerSecond, enqueues a refresh through
// fleet.scheduler() whenever a column has taken a staleness threshold of
// DML, and every kFullRebuildEveryOps ops forces a full rebuild with a
// count-only RecordModifications. Returns how late each op started, once
// `duration_ns` has passed and every queued refresh has published. Spans:
// build_scheduler.enqueue_to_publish, incremental_backend.refresh,
// build_scheduler.full_rebuild and reservoir.dml.
Distribution RunDmlGenerator(Fixture& fixture, std::int64_t duration_ns,
                             Tracer& tracer, Tally& tally);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
