#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <cstdint>

#include "distribution.h"
#include "equihist/equihist.h"
#include "fixture.h"
#include "phases.h"
#include "stats/transport.h"

namespace perfbench {

// The traced run's layer ladder: one fixed stream replayed at each seam
// in turn, so a layer's cost is the difference between adjacent rungs.
// Every rung's answers are checked against the first rung's.

struct ServingLadder {
  Distribution kernel_ns;         // ColumnStatistics::EstimateRangeCount x16
  Distribution shard_ns;          // StatisticsShard::EstimateBatch per shard
  Distribution fleet_ns;          // StatisticsFleet::EstimateBatch
  Distribution serve_frame_ns;    // StatisticsFleet::ServeFrame
  Distribution codec_ns;          // fleetwire encode+decode, both directions
  Distribution inprocess_rtt_ns;  // InProcessTransport::RoundTrip
  Distribution socket_rtt_ns;     // SocketTransport::RoundTrip
  // Per request: TransportClient::EstimateBatch (in-process) minus the
  // in-process round trip minus the client-side codec.
  Distribution client_overhead_ns;
};

// Replays every pool batch `rounds` times. `socket` is a running
// SocketTransportServer's endpoint.
ServingLadder RunServingLadder(Fixture& fixture,
                               const equihist::transport::Endpoint& socket,
                               equihist::metrics::MetricsPlane* client_metrics,
                               int rounds, Tally& tally);

struct BuildLadder {
  Distribution ensure_fresh_ns;     // StatisticsShard::EnsureFresh (stale)
  Distribution cvb_ns;              // RunCvb, same options
  Distribution block_read_ns;       // IncrementalBlockSampler::NextBatch
  Distribution sample_sort_ns;      // ParallelSort of that sample
  Distribution partition_ns;        // BuildHistogramFromSample
  Distribution full_sort_ns;        // ParallelSort of the whole column
  std::uint64_t builds = 0;
  std::uint64_t pages_read = 0;     // by the EnsureFresh rebuilds
  std::uint64_t cvb_rounds = 0;
  std::uint64_t cvb_blocks = 0;
  double cvb_sampling_fraction_sum = 0.0;
  std::uint64_t corollary1_r = 0;   // DeviationSampleSize(n, k, f, gamma)
};

BuildLadder RunBuildLadder(Fixture& fixture, int builds, Tally& tally);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
