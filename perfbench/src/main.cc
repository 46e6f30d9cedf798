// equihist end-to-end benchmark: one workload per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>]
//
// Workloads (both on one seeded 1M-row Zipf table and a 4-shard fleet).
// A measured run is a timeline of 3 s rounds; each round runs a
// closed-loop TransportClient over InProcessTransport, then a refresher
// (staleness past the threshold, EnsureFresh):
//   serve_inproc     2 s of client, 1 s of refresher per round
//   rebuild_cvb      1 s of client, 2 s of refresher per round
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload's
// main stream (the client; the refresher for rebuild_cvb) half untraced
// and half traced, then the layer ladder, and prints the per-layer
// metrics. The last stdout line is the result object; the line
// before it records the host and configuration. Every answer is checked;
// any failure makes "correct" false and the exit code 1.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "distribution.h"
#include "equihist/equihist.h"
#include "fixture.h"
#include "ladder.h"
#include "phases.h"
#include "stats/transport.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace equihist;

constexpr int kSetupRepeats = 9;
// The measured run's rounds, and the client's share of each.
constexpr std::int64_t kRoundNs = 3'000'000'000;
constexpr std::int64_t kServeInprocServeNs = 2'000'000'000;
constexpr std::int64_t kRebuildCvbServeNs = 1'000'000'000;
// Timed figures are read on the fast side over the run's slices
// (SlicedDistribution): the fastest twentieth of the slices.
constexpr double kFastSide = 0.05;
constexpr int kServingLadderRounds = 4;
constexpr int kBuildLadderBuilds = 24;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string scratch = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
  }
  const bool known =
      args->workload == "serve_inproc" || args->workload == "rebuild_cvb";
  return known && args->seconds >= 1 && argc % 2 == 1;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.12g", value);
  return buffer;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Jiffies summed over the CPUs, from the first line of /proc/stat: all of
// them, and those the hypervisor ran something else on this guest's
// vCPUs (steal). Zero when unreadable.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(stat >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double Ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Host and configuration of this run (the line before the result).
using Fields = std::vector<std::pair<std::string, double>>;

std::string Record(const Args& args, const Fields& extra) {
  std::ostringstream os;
  os << "{\"record\": {\"workload\": \"" << args.workload
     << "\", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
     << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\""
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
#ifdef EQUIHIST_LOCK_RANK_CHECK
     << ", \"lock_rank_check\": \"ON\""
#else
     << ", \"lock_rank_check\": \"OFF\""
#endif
     << ", \"rows\": " << kRows << ", \"domain\": " << kDomain
     << ", \"zipf_skew\": " << Number(kZipfSkew)
     << ", \"buckets\": " << kBuckets << ", \"f\": " << Number(kTargetF)
     << ", \"gamma\": " << Number(kGamma) << ", \"shards\": " << kShards
     << ", \"batch_size\": " << kBatchSize
     << ", \"staleness_threshold\": " << Number(kStalenessThreshold)
     << ", \"dml_ops_per_s\": " << kDmlOpsPerSecond
     << ", \"full_rebuild_every_ops\": " << kFullRebuildEveryOps;
  for (const auto& [name, value] : extra) {
    os << ", \"" << name << "\": " << Number(value);
  }
  os << "}}";
  return os.str();
}

std::string Result(bool correct, const Tally& tally,
                   const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << tally.attempted()
     << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << Number(metrics[i].value) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

std::int64_t SecondsNs(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

// A unix-socket server over the fixture's fleet, in the scratch directory.
std::unique_ptr<transport::SocketTransportServer> StartServer(
    Fixture& fixture, const Args& args, metrics::MetricsPlane* metrics,
    Tally& tally) {
  transport::SocketTransportServer::Options options;
  options.endpoint.kind = transport::Endpoint::Kind::kUnix;
  options.endpoint.path =
      args.scratch + "/perfbench-" + std::to_string(getpid()) + ".sock";
  options.metrics = metrics;
  auto server = std::make_unique<transport::SocketTransportServer>(
      fixture.fleet.get(), &*fixture.table, options);
  const Status started = server->Start();
  if (!started.ok()) {
    tally.Fail("socket server: " + started.ToString());
    return nullptr;
  }
  return server;
}

// What one run of a workload's stream measured.
struct Phase {
  ServeStats serve;
  RefreshStats refresh;

  // Refreshes per second when the refresher ran, else client batches per
  // second.
  double Rate() const {
    return refresh.seconds > 0.0
               ? static_cast<double>(refresh.refreshes) / refresh.seconds
               : static_cast<double>(serve.latency_ns.Pooled().count()) /
                     serve.seconds;
  }
};

// Slices of `width_ns` from `start_ns` covering `duration_ns` (at least
// one; a trailing partial slice is folded into the last).
SlicedDistribution Slices(std::int64_t start_ns, std::int64_t width_ns,
                          std::int64_t duration_ns) {
  return SlicedDistribution(
      start_ns, width_ns,
      static_cast<std::size_t>(std::max<std::int64_t>(1, duration_ns / width_ns)));
}

// The traced run's main stream for `duration_ns`: the refresher (checked
// against `reference` right after) for rebuild_cvb, the client otherwise.
Phase RunMainStream(const Args& args, ServeClient& client,
                    Refresher& refresher, StatisticsFleet* reference,
                    std::int64_t duration_ns, Tally& tally) {
  Phase phase;
  const std::int64_t start = NowNs();
  if (args.workload == "rebuild_cvb") {
    phase.refresh.latency_ns = Slices(start, kRefreshSliceNs, duration_ns);
    refresher.Refresh(start + duration_ns, phase.refresh, tally);
    refresher.Verify(*reference, tally);
  } else {
    phase.serve.latency_ns = Slices(start, kServeSliceNs, duration_ns);
    client.Serve(start + duration_ns, phase.serve, tally);
  }
  return phase;
}

std::unique_ptr<Fixture> Setup(const Args& args, int repeats,
                               std::vector<double>* setup_seconds,
                               Tally& tally) {
  std::unique_ptr<Fixture> fixture;
  for (int r = 0; r < repeats; ++r) {
    fixture.reset();  // one dataset in memory at a time
    std::string error;
    fixture = BuildFixture(args.seed, &error);
    if (fixture == nullptr) {
      tally.Fail("setup: " + error);
      return nullptr;
    }
    setup_seconds->push_back(fixture->setup_seconds);
  }
  return fixture;
}

// --trace 0: the end-to-end metrics.
int RunMeasured(const Args& args) {
  Tally tally;
  Tracer off(false);
  std::vector<double> setup_seconds;
  auto fixture = Setup(args, kSetupRepeats, &setup_seconds, tally);
  if (fixture == nullptr) return 1;
  std::string error;
  auto reference = BuildReferenceFleet(*fixture, &error);
  if (reference == nullptr) {
    tally.Fail(error);
    return 1;
  }
  metrics::MetricsPlane client_metrics;
  ServeClient client(*fixture, &client_metrics, off);
  Refresher refresher(*fixture, off);

  // Every workload reports every end-to-end metric, so both run the
  // client and the refresher, in alternating blocks spread over the
  // whole run: each figure then samples the whole run, and the workload
  // only sets the weights. The client serves first in each round.
  const std::int64_t window = SecondsNs(args.seconds);
  const std::int64_t serve_share = args.workload == "serve_inproc"
                                       ? kServeInprocServeNs
                                       : kRebuildCvbServeNs;
  const CpuTicks ticks_before = ReadCpuTicks();
  const std::int64_t start = NowNs();
  const std::int64_t end = start + window;
  Phase phase;
  phase.serve.latency_ns = Slices(start, kServeSliceNs, window);
  phase.refresh.latency_ns = Slices(start, kRefreshSliceNs, window);
  for (std::int64_t round = start; round < end; round += kRoundNs) {
    const std::int64_t round_end = std::min(end, round + kRoundNs);
    client.Serve(std::min(round_end, round + serve_share), phase.serve, tally);
    refresher.Refresh(round_end, phase.refresh, tally);
  }
  const CpuTicks ticks_after = ReadCpuTicks();
  refresher.Verify(*reference, tally);

  std::vector<Metric> metrics;
  Fields extra;
  const SlicedDistribution& estimate = phase.serve.latency_ns;
  const SlicedDistribution& refresh = phase.refresh.latency_ns;
  const Distribution pooled_estimate = estimate.Pooled();
  const Distribution pooled_refresh = refresh.Pooled();
  const double refreshes = static_cast<double>(
      std::max<std::uint64_t>(1, phase.refresh.refreshes));
  const double pages_per_refresh =
      static_cast<double>(phase.refresh.pages_read) / refreshes;
  if (pooled_estimate.empty() || pooled_refresh.empty() ||
      pages_per_refresh <= 0.0) {
    tally.Fail("a phase produced no samples");
  }
  QualityPanel panel;
  if (std::string error; !BuildQualityPanel(*fixture, &panel, &error)) {
    tally.Fail(error);
  }
  if (tally.failed() == 0) {
    metrics = {
        {"estimate_p50_us",
         estimate.QuantileOfSliceQuantiles(0.5, kFastSide) / 1e3, "us"},
        {"estimate_p99_us",
         estimate.QuantileOfSliceQuantiles(0.99, kFastSide) / 1e3, "us"},
        {"estimates_per_s",
         estimate.QuantileOfSliceRates(1.0 - kFastSide) *
             static_cast<double>(kBatchSize),
         "predicates/s"},
        {"refresh_p50_ms",
         refresh.QuantileOfSliceQuantiles(0.5, kFastSide) / 1e6, "ms"},
        {"pages_per_refresh", pages_per_refresh, "pages"},
        {"error_f_p90", panel.p90, "ratio"},
        {"setup_s", Median(setup_seconds), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    const auto r = DeviationSampleSize(kRows, kBuckets, kTargetF, kGamma);
    extra = {
        {"max_error_f", panel.max},
        {"quality_panel_histograms", static_cast<double>(panel.histograms)},
        {"estimate_samples", static_cast<double>(pooled_estimate.count())},
        {"estimate_pooled_p50_us", Us(pooled_estimate.Quantile(0.5))},
        {"estimate_pooled_p99_us", Us(pooled_estimate.Quantile(0.99))},
        {"refresh_samples", static_cast<double>(pooled_refresh.count())},
        {"refresh_pooled_p50_ms", Ms(pooled_refresh.Quantile(0.5))},
        {"refresh_pooled_p99_ms", Ms(pooled_refresh.Quantile(0.99))},
        // The share of the guest's CPU time the host took during the
        // timed phases: a run with much of it reads slower.
        {"host_steal_pct",
         100.0 * Ratio(static_cast<double>(ticks_after.steal -
                                           ticks_before.steal),
                       static_cast<double>(ticks_after.total -
                                           ticks_before.total))},
        {"corollary1_r", r.ok() ? static_cast<double>(*r) : 0.0},
        {"corollary1_fraction",
         r.ok() ? static_cast<double>(*r) / static_cast<double>(kRows) : 0.0},
        {"measured_sampling_fraction",
         static_cast<double>(phase.refresh.rows_sampled) / refreshes /
             static_cast<double>(kRows)},
    };
  }
  const bool correct = tally.failed() == 0;
  std::printf("%s\n%s\n", Record(args, extra).c_str(),
              Result(correct, tally, metrics).c_str());
  return correct ? 0 : 1;
}

struct CounterSnapshot {
  std::uint64_t shard_cache_refreshes = 0;
  std::uint64_t shard_batches = 0;
  std::uint64_t fleet_coalesced_requests = 0;
  std::uint64_t fleet_batches = 0;
  std::uint64_t queue_wait_sum = 0;
  std::uint64_t queue_wait_count = 0;
  std::uint64_t server_rejects = 0;
  std::uint64_t client_retries = 0;
  std::uint64_t scheduler_enqueued = 0;
  std::uint64_t scheduler_coalesced = 0;
};

CounterSnapshot Snapshot(StatisticsFleet& fleet,
                         const metrics::MetricsPlane& client,
                         const metrics::MetricsPlane& server) {
  CounterSnapshot s;
  for (std::size_t i = 0; i < fleet.shard_count(); ++i) {
    const auto& plane = fleet.shard(i).metrics();
    s.shard_cache_refreshes +=
        plane.counter(metrics::Counter::kServingCacheRefreshes);
    s.shard_batches += plane.counter(metrics::Counter::kEstimateBatches);
  }
  const auto& fleet_plane = fleet.fleet_metrics();
  s.fleet_coalesced_requests =
      fleet_plane.counter(metrics::Counter::kCoalescedRequests);
  s.fleet_batches = fleet_plane.counter(metrics::Counter::kEstimateBatches);
  s.queue_wait_sum = server.hist_sum(metrics::Hist::kServerQueueWaitMicros);
  s.queue_wait_count = server.hist_count(metrics::Hist::kServerQueueWaitMicros);
  s.server_rejects = server.counter(metrics::Counter::kServerRejects);
  s.client_retries = client.counter(metrics::Counter::kTransportRetries);
  const auto counts = fleet.scheduler().counts();
  s.scheduler_enqueued = counts.enqueued;
  s.scheduler_coalesced = counts.coalesced;
  return s;
}

// --trace 1: the per-layer metrics and the tracing overhead.
int RunTraced(const Args& args) {
  Tally tally;
  std::vector<double> setup_seconds;
  auto fixture = Setup(args, 1, &setup_seconds, tally);
  if (fixture == nullptr) return 1;
  metrics::MetricsPlane client_metrics;
  metrics::MetricsPlane server_metrics;
  auto server = StartServer(*fixture, args, &server_metrics, tally);
  if (server == nullptr) return 1;
  std::string error;
  auto reference = BuildReferenceFleet(*fixture, &error);
  if (reference == nullptr) {
    tally.Fail(error);
    return 1;
  }
  const std::int64_t half = SecondsNs(args.seconds) / 2;

  // The same stream untraced, then traced: the rate ratio is the
  // overhead of recording spans.
  Tracer off(false);
  Tracer tracer(true);
  ServeClient untraced_client(*fixture, &client_metrics, off);
  ServeClient traced_client(*fixture, &client_metrics, tracer);
  Refresher untraced_refresher(*fixture, off);
  Refresher traced_refresher(*fixture, tracer);
  const Phase untraced = RunMainStream(args, untraced_client,
                                       untraced_refresher, reference.get(),
                                       half, tally);
  const CounterSnapshot before =
      Snapshot(*fixture->fleet, client_metrics, server_metrics);
  const Phase traced = RunMainStream(args, traced_client, traced_refresher,
                                     reference.get(), half, tally);

  const ServingLadder serving =
      RunServingLadder(*fixture, server->endpoint(), &client_metrics,
                       kServingLadderRounds, tally);
  const BuildLadder builds = RunBuildLadder(*fixture, kBuildLadderBuilds, tally);
  const Distribution dml_lag_ns =
      RunDmlGenerator(*fixture, SecondsNs(args.seconds) / 5, tracer, tally);
  const CounterSnapshot after =
      Snapshot(*fixture->fleet, client_metrics, server_metrics);
  server->Stop();

  const auto spans = tracer.Durations();
  const auto span = [&](const char* name) -> const Distribution& {
    static const Distribution kEmpty;
    const auto it = spans.find(name);
    return it == spans.end() ? kEmpty : it->second;
  };
  const double incremental =
      static_cast<double>(span("incremental_backend.refresh").count());
  const double full =
      static_cast<double>(span("build_scheduler.full_rebuild").count());
  const double built = static_cast<double>(std::max<std::uint64_t>(1, builds.builds));

  std::vector<Metric> metrics;
  const bool complete =
      !serving.client_overhead_ns.empty() && !builds.cvb_ns.empty() &&
      !builds.full_sort_ns.empty() && !dml_lag_ns.empty() &&
      !span("build_scheduler.enqueue_to_publish").empty() &&
      !span("incremental_backend.refresh").empty() &&
      !span("reservoir.dml").empty();
  if (!complete) tally.Fail("the layer ladder produced no samples");
  if (tally.failed() == 0) {
    const double ensure_fresh_ms = Ms(builds.ensure_fresh_ns.Quantile(0.5));
    const double cvb_ms = Ms(builds.cvb_ns.Quantile(0.5));
    metrics = {
        {"compiled_estimator.ns_per_predicate",
         static_cast<double>(serving.kernel_ns.Quantile(0.5)) / kBatchSize, "ns"},
        {"statistics_shard.estimate_batch_us_p50",
         Us(serving.shard_ns.Quantile(0.5)), "us"},
        {"statistics_shard.cache_refresh_ratio",
         Ratio(static_cast<double>(after.shard_cache_refreshes -
                                   before.shard_cache_refreshes),
               static_cast<double>(after.shard_batches - before.shard_batches)),
         "ratio"},
        {"statistics_shard.ensure_fresh_ms_p50", ensure_fresh_ms, "ms"},
        {"statistics_shard.publish_overhead_ms", ensure_fresh_ms - cvb_ms, "ms"},
        {"statistics_fleet.estimate_batch_us_p50",
         Us(serving.fleet_ns.Quantile(0.5)), "us"},
        {"statistics_fleet.serve_frame_us_p50",
         Us(serving.serve_frame_ns.Quantile(0.5)), "us"},
        {"statistics_fleet.coalesced_ratio",
         Ratio(static_cast<double>(after.fleet_coalesced_requests -
                                   before.fleet_coalesced_requests),
               static_cast<double>(after.fleet_batches - before.fleet_batches)),
         "ratio"},
        {"fleet_wire.encode_decode_us_p50", Us(serving.codec_ns.Quantile(0.5)),
         "us"},
        {"transport.inprocess_rtt_us_p50",
         Us(serving.inprocess_rtt_ns.Quantile(0.5)), "us"},
        {"transport.socket_rtt_us_p50", Us(serving.socket_rtt_ns.Quantile(0.5)),
         "us"},
        {"transport.socket_rtt_us_p99",
         Us(serving.socket_rtt_ns.Quantile(0.99)), "us"},
        {"transport.server_queue_wait_us_mean",
         Ratio(static_cast<double>(after.queue_wait_sum - before.queue_wait_sum),
               static_cast<double>(after.queue_wait_count -
                                   before.queue_wait_count)),
         "us"},
        {"transport.server_rejects",
         static_cast<double>(after.server_rejects - before.server_rejects),
         "count"},
        {"transport_client.call_overhead_us_p50",
         Us(serving.client_overhead_ns.Quantile(0.5)), "us"},
        {"transport_client.retries",
         static_cast<double>(after.client_retries - before.client_retries),
         "count"},
        {"storage.pages_read_per_build",
         static_cast<double>(builds.pages_read) / built, "pages"},
        {"sampling.block_read_ms", Ms(builds.block_read_ns.Quantile(0.5)), "ms"},
        {"parallel_sort.sample_sort_ms", Ms(builds.sample_sort_ns.Quantile(0.5)),
         "ms"},
        {"parallel_sort.full_column_sort_ms",
         Ms(builds.full_sort_ns.Quantile(0.5)), "ms"},
        {"histogram_builder.partition_ms", Ms(builds.partition_ns.Quantile(0.5)),
         "ms"},
        {"cvb.run_ms_p50", cvb_ms, "ms"},
        {"cvb.rounds_per_build", static_cast<double>(builds.cvb_rounds) / built,
         "rounds"},
        {"cvb.blocks_per_build", static_cast<double>(builds.cvb_blocks) / built,
         "blocks"},
        {"cvb.sampling_fraction", builds.cvb_sampling_fraction_sum / built,
         "ratio"},
        {"cvb.corollary1_r", static_cast<double>(builds.corollary1_r), "rows"},
        {"build_scheduler.enqueue_to_publish_ms_p50",
         Ms(span("build_scheduler.enqueue_to_publish").Quantile(0.5)), "ms"},
        {"build_scheduler.coalesced_ratio",
         Ratio(static_cast<double>(after.scheduler_coalesced -
                                   before.scheduler_coalesced),
               static_cast<double>(after.scheduler_enqueued -
                                   before.scheduler_enqueued)),
         "ratio"},
        {"incremental_backend.refresh_us_p50",
         Us(span("incremental_backend.refresh").Quantile(0.5)), "us"},
        {"incremental_backend.incremental_ratio",
         Ratio(incremental, incremental + full), "ratio"},
        {"reservoir.dml_ns_per_op", span("reservoir.dml").Mean(), "ns"},
        {"dml_generator.lag_ms_p99", Ms(dml_lag_ns.Quantile(0.99)), "ms"},
        {"trace.overhead_ratio",
         Ratio(untraced.Rate(), traced.Rate()), "ratio"},
    };
  }
  const bool correct = tally.failed() == 0;
  std::printf("%s\n%s\n",
              Record(args, {{"setup_s", setup_seconds.front()}}).c_str(),
              Result(correct, tally, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload serve_inproc|rebuild_cvb "
                 "--seed N --seconds S --trace 0|1 "
                 "[--scratch DIR]\n",
                 argv[0]);
    return 2;
  }
  return args.trace ? perfbench::RunTraced(args) : perfbench::RunMeasured(args);
}
