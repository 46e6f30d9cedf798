#include "ladder.h"

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel_sort.h"
#include "stats/transport_client.h"

namespace perfbench {

using namespace equihist;

namespace {

// Runs `call` and returns its duration in nanoseconds: one span of the
// ladder, kept in the rung's own Distribution.
template <typename F>
std::int64_t Timed(F&& call) {
  const std::int64_t start = NowNs();
  call();
  return NowNs() - start;
}

bool SameAnswers(const std::vector<double>& got,
                 const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!SameBits(got[i], want[i])) return false;
  }
  return true;
}

// One pool batch split into its owning shards' sub-batches.
struct ShardSplit {
  std::vector<std::size_t> shard;
  std::vector<std::vector<BatchEstimateRequest>> requests;
  std::vector<std::vector<std::size_t>> positions;  // into the batch
};

ShardSplit SplitByShard(const StatisticsFleet& fleet,
                        const std::vector<BatchEstimateRequest>& batch) {
  ShardSplit split;
  std::map<std::size_t, std::size_t> slot;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::size_t s = fleet.ShardIndex(batch[i].column);
    auto [it, added] = slot.try_emplace(s, split.shard.size());
    if (added) {
      split.shard.push_back(s);
      split.requests.emplace_back();
      split.positions.emplace_back();
    }
    split.requests[it->second].push_back(batch[i]);
    split.positions[it->second].push_back(i);
  }
  return split;
}

}  // namespace

ServingLadder RunServingLadder(Fixture& fixture,
                               const transport::Endpoint& socket,
                               metrics::MetricsPlane* client_metrics,
                               int rounds, Tally& tally) {
  StatisticsFleet& fleet = *fixture.fleet;
  const Table& table = *fixture.table;
  ServingLadder ladder;

  // Snapshots pinned once, outside every span: rung 1 is the estimator
  // alone.
  std::map<std::string, std::shared_ptr<const ColumnStatistics>> pinned;
  std::vector<ShardSplit> splits;
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& batch : fixture.batches) {
    for (const auto& request : batch) {
      if (pinned.count(request.column) == 0) {
        auto stats = fleet.shard(fleet.ShardIndex(request.column))
                         .GetOrBuildShared(request.column, table);
        if (!stats.ok()) {
          tally.Fail("pin " + request.column + ": " + stats.status().ToString());
          return ladder;
        }
        pinned[request.column] = *stats;
      }
    }
    splits.push_back(SplitByShard(fleet, batch));
    frames.push_back(
        fleetwire::Encode(fleetwire::EstimateBatchRequestFrame{batch}));
  }

  transport::InProcessTransport in_process(&fleet, &table);
  auto socket_link = transport::SocketTransport::Connect(socket, 1'000'000);
  if (!socket_link.ok()) {
    tally.Fail("ladder socket connect: " + socket_link.status().ToString());
    return ladder;
  }
  transport::TransportClient::Options client_options;
  client_options.metrics = client_metrics;
  client_options.jitter_seed = DeriveStreamSeed(fixture.seed, 60);
  transport::TransportClient client(client_options);
  client.AddPeer({"in-process",
                  [&fleet, &table](std::uint64_t)
                      -> Result<std::unique_ptr<transport::Transport>> {
                    return std::unique_ptr<transport::Transport>(
                        std::make_unique<transport::InProcessTransport>(
                            &fleet, &table));
                  }});
  constexpr std::uint64_t kBudget = 1'000'000;

  for (int round = 0; round < rounds; ++round) {
    for (std::size_t b = 0; b < fixture.batches.size(); ++b) {
      const auto& batch = fixture.batches[b];
      tally.Attempt();

      std::vector<double> want(batch.size());
      ladder.kernel_ns.Add(Timed([&]() {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          want[i] = pinned[batch[i].column]->EstimateRangeCount(batch[i].query);
        }
      }));
      bool same = true;

      const ShardSplit& split = splits[b];
      std::vector<BatchEstimateResult> per_shard(split.shard.size());
      ladder.shard_ns.Add(Timed([&]() {
        for (std::size_t s = 0; s < split.shard.size(); ++s) {
          same &= fleet.shard(split.shard[s])
                      .EstimateBatch(table, split.requests[s], &per_shard[s])
                      .ok();
        }
      }));
      std::vector<double> got(batch.size());
      for (std::size_t s = 0; same && s < split.shard.size(); ++s) {
        for (std::size_t j = 0; j < split.positions[s].size(); ++j) {
          got[split.positions[s][j]] = per_shard[s].estimates[j];
        }
      }
      same = same && SameAnswers(got, want);

      BatchEstimateResult fleet_result;
      ladder.fleet_ns.Add(Timed([&]() {
        same &= fleet.EstimateBatch(table, batch, &fleet_result).ok();
      }));
      same = same && SameAnswers(fleet_result.estimates, want);

      Result<std::vector<std::uint8_t>> served = Status::Internal("not run");
      ladder.serve_frame_ns.Add(
          Timed([&]() { served = fleet.ServeFrame(frames[b], table); }));
      same = same && served.ok();

      // The four codec steps of one exchange; the client-side half
      // (encode request, decode response) is also kept on its own.
      std::int64_t client_codec = 0;
      Result<fleetwire::EstimateBatchResponseFrame> decoded =
          Status::Internal("not run");
      ladder.codec_ns.Add(Timed([&]() {
        const std::int64_t t0 = NowNs();
        const auto frame =
            fleetwire::Encode(fleetwire::EstimateBatchRequestFrame{batch});
        const std::int64_t t1 = NowNs();
        const auto server_side = fleetwire::DecodeEstimateBatchRequest(frame);
        const auto response = fleetwire::Encode(
            fleetwire::EstimateBatchResponseFrame{want});
        const std::int64_t t2 = NowNs();
        decoded = fleetwire::DecodeEstimateBatchResponse(response);
        client_codec = (t1 - t0) + (NowNs() - t2);
        same &= server_side.ok() && server_side->requests.size() == batch.size();
      }));
      same = same && decoded.ok() && SameAnswers(decoded->estimates, want);
      same = same && *served == fleetwire::Encode(
                                    fleetwire::EstimateBatchResponseFrame{want});

      Result<std::vector<std::uint8_t>> reply = Status::Internal("not run");
      const std::int64_t rtt =
          Timed([&]() { reply = in_process.RoundTrip(frames[b], kBudget); });
      ladder.inprocess_rtt_ns.Add(rtt);
      same = same && reply.ok() && *reply == *served;

      ladder.socket_rtt_ns.Add(Timed(
          [&]() { reply = (*socket_link)->RoundTrip(frames[b], kBudget); }));
      same = same && reply.ok() && *reply == *served;

      Result<std::vector<double>> called = Status::Internal("not run");
      const std::int64_t call =
          Timed([&]() { called = client.EstimateBatch(batch); });
      ladder.client_overhead_ns.Add(call - rtt - client_codec);
      same = same && called.ok() && SameAnswers(*called, want);

      if (!same) {
        tally.Fail("ladder rungs disagree on batch " + std::to_string(b));
      }
    }
  }
  return ladder;
}

BuildLadder RunBuildLadder(Fixture& fixture, int builds, Tally& tally) {
  StatisticsFleet& fleet = *fixture.fleet;
  const Table& table = *fixture.table;
  BuildLadder ladder;
  const auto r = DeviationSampleSize(kRows, kBuckets, kTargetF, kGamma);
  ladder.corollary1_r = r.ok() ? *r : 0;

  // The shard's default build pool has one thread per core; the replays
  // use a pool of the same size.
  ThreadPool pool(ResolveBuildThreadCount(0));
  IoStats scan_io;
  const std::vector<Value> column = FullScan(table, &scan_io, &pool);

  for (int i = 0; i < builds; ++i) {
    const auto replay = static_cast<std::uint64_t>(i);
    const std::string& name =
        fixture.equi_height_columns[replay % fixture.equi_height_columns.size()];
    StatisticsShard& shard = fleet.shard(fleet.ShardIndex(name));
    tally.Attempt();

    shard.RecordModifications(name, kStaleCount);
    Result<const ColumnStatistics*> fresh = Status::Internal("not run");
    ladder.ensure_fresh_ns.Add(
        Timed([&]() { fresh = shard.EnsureFresh(name, table); }));
    if (!fresh.ok() || (*fresh)->build_cost.pages_read == 0 ||
        (*fresh)->build_cost.pages_read >= table.page_count()) {
      tally.Fail("ladder refresh of " + name + " failed or left the regime");
      continue;
    }
    ladder.pages_read += (*fresh)->build_cost.pages_read;

    CvbOptions options;
    options.k = kBuckets;
    options.f = kTargetF;
    options.gamma = kGamma;
    options.seed = DeriveStreamSeed(fixture.seed, 300 + replay);
    options.threads = 1;  // the pool below is passed explicitly
    Result<CvbResult> cvb = Status::Internal("not run");
    ladder.cvb_ns.Add(Timed([&]() { cvb = RunCvb(table, options, &pool); }));
    if (!cvb.ok() || cvb->exhausted_table ||
        cvb->blocks_sampled >= table.page_count()) {
      tally.Fail("CVB replay " + std::to_string(i) +
                 " exhausted the table or failed");
      continue;
    }
    ++ladder.builds;
    ladder.cvb_rounds += cvb->iterations;
    ladder.cvb_blocks += cvb->blocks_sampled;
    ladder.cvb_sampling_fraction_sum += cvb->sampling_fraction;

    // The stages of one CVB round at the size this build reached.
    IncrementalBlockSampler sampler(&table, options.seed, &pool);
    IoStats io;
    std::vector<Value> sample;
    ladder.block_read_ns.Add(Timed([&]() {
      sample = sampler.NextBatch(cvb->blocks_sampled, &io);
    }));
    ladder.sample_sort_ns.Add(Timed([&]() { ParallelSort(sample, &pool); }));
    Result<Histogram> histogram = Status::Internal("not run");
    ladder.partition_ns.Add(Timed([&]() {
      histogram = BuildHistogramFromSample(sample, kBuckets, kRows, &pool);
    }));
    if (sample.empty() || !histogram.ok()) {
      tally.Fail("ladder sample/partition failed");
    }
    if (i % 8 == 0) {
      std::vector<Value> copy = column;
      ladder.full_sort_ns.Add(Timed([&]() { ParallelSort(copy, &pool); }));
      if (!std::is_sorted(copy.begin(), copy.end())) {
        tally.Fail("full-column sort is not sorted");
      }
    }
  }
  return ladder;
}

}  // namespace perfbench
