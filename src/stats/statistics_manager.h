#ifndef EQUIHIST_STATS_STATISTICS_MANAGER_H_
#define EQUIHIST_STATS_STATISTICS_MANAGER_H_

#include "stats/statistics_shard.h"

namespace equihist {

// The historical single-process entry point, now a thin single-shard
// facade (DESIGN.md §16): every member — construction, build/refresh,
// DML accounting, the lock-free serving path, degraded serving, install,
// health — is inherited unchanged from StatisticsShard, so existing
// callers and tests see exactly the pre-fleet API and behavior.
//
// New multi-shard deployments should hold a StatisticsFleet
// (stats/statistics_fleet.h), which hash-partitions columns across many
// shards and adds shard-partitioned batch routing, the async
// BuildScheduler, and the wire protocol on top of the same shard type.
class StatisticsManager : public StatisticsShard {
 public:
  using StatisticsShard::StatisticsShard;
};

}  // namespace equihist

#endif  // EQUIHIST_STATS_STATISTICS_MANAGER_H_
