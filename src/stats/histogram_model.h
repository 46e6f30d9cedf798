#ifndef EQUIHIST_STATS_HISTOGRAM_MODEL_H_
#define EQUIHIST_STATS_HISTOGRAM_MODEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/range_estimator.h"
#include "data/value_set.h"
#include "data/workload.h"

namespace equihist {

// The backend-polymorphic statistics layer: every histogram family the
// system can serve — plain equi-height, duplicate-compressed (Section 5),
// the equi-width baseline, the GMP incremental baseline (Section 3.4), the
// uniform fallback of degraded serving, the reservoir-backed incremental
// equi-depth histogram, and anything registered from outside — implements
// this one interface, and
// every consumer (ColumnStatistics, StatisticsManager, the planner,
// workload evaluation, serialization framing) talks only to it. Adding a
// seventh family means registering a backend; no consumer changes.

// Identifies a histogram family in the registry and on the wire (the one
// tag byte of the serialized container, format version 2).
enum class HistogramBackendId : std::uint8_t {
  kEquiHeight = 0,       // core/histogram + core/compiled_estimator read path
  kEquiWidth = 1,        // baseline/equi_width
  kCompressed = 2,       // core/compressed_histogram (Section 5)
  kGmpIncremental = 3,   // baseline/gmp_incremental snapshot (Section 3.4)
  kFallbackUniform = 4,  // metadata-only uniform model (degraded serving)
  // Equi-height histogram carrying its live backing reservoir, maintained
  // under DML by bucket split/merge instead of full rebuild (DESIGN.md §15).
  kIncrementalEquiDepth = 5,  // stats/incremental_backend
  // Ids 6..127 are reserved for future built-ins; 128..255 are free for
  // externally registered backends.
};

// An immutable, servable histogram. Implementations must be safe for
// concurrent const use from any number of threads with no synchronization —
// the StatisticsManager lock-free serving path hands the same instance to
// every serving thread.
class HistogramModel {
 public:
  virtual ~HistogramModel() = default;

  virtual HistogramBackendId backend_id() const = 0;

  // Estimated output size of "lo < X <= hi" (Section 2.2 strategy).
  virtual double EstimateRangeCount(const RangeQuery& query) const = 0;

  // Batch variant: out[i] = EstimateRangeCount(queries[i]) for every i,
  // bitwise-identical at any thread count. The default loops sequentially
  // (`pool` is a pure throughput knob that backends may ignore); backends
  // with a compiled batch path override. Requires out.size() >=
  // queries.size().
  virtual void EstimateRangeCounts(std::span<const RangeQuery> queries,
                                   std::span<double> out,
                                   ThreadPool* pool = nullptr) const;

  // Estimated selectivity in [0, 1]: EstimateRangeCount / total.
  virtual double EstimateSelectivity(const RangeQuery& query) const;

  virtual std::uint64_t bucket_count() const = 0;
  virtual std::uint64_t total() const = 0;

  // Finite domain fences: the exclusive lower / inclusive upper end of the
  // covered domain (no mass lives outside (lower_fence, upper_fence]).
  virtual Value lower_fence() const = 0;
  virtual Value upper_fence() const = 0;

  // Heap footprint of the model, including derived read-path structures.
  virtual std::size_t MemoryBytes() const = 0;

  // One-line human-readable rendering (family, k, n, domain).
  virtual std::string Describe() const = 0;

  // Appends this model's backend payload — everything after the container
  // header `magic | version | backend id` — to `out`. The matching parser
  // is the backend's registered deserialize_payload hook.
  virtual void SerializePayload(std::vector<std::uint8_t>* out) const = 0;
};

using HistogramModelPtr = std::shared_ptr<const HistogramModel>;

// The process-wide backend registry, keyed by HistogramBackendId. The six
// built-in families are registered on first use; external code may register
// additional backends at any time (thread-safe) and they immediately become
// buildable through StatisticsManager and round-trippable through
// stats/serialization without any changes there.
class HistogramBackendRegistry {
 public:
  struct Backend {
    // Short stable name, e.g. "equi-height" (usable in configs/logs).
    std::string name;
    // Builds a model from a sorted random sample of `population_size`
    // tuples with a budget of `buckets` buckets, counts scaled to the
    // population. Deterministic in its inputs.
    std::function<Result<HistogramModelPtr>(
        std::span<const Value> sorted_sample, std::uint64_t buckets,
        std::uint64_t population_size)>
        build_from_sample;
    // Parses the backend payload of the serialized container; advances
    // *consumed (never null) by the bytes read. Must validate everything:
    // corrupted bytes yield Status, never UB.
    std::function<Result<HistogramModelPtr>(
        std::span<const std::uint8_t> payload, std::size_t* consumed)>
        deserialize_payload;
  };

  // The global registry with the built-in families pre-registered.
  static HistogramBackendRegistry& Global();

  // Registers a backend; FailedPrecondition if the id or name is taken.
  // Both hooks are required.
  Status Register(HistogramBackendId id, Backend backend);

  // Looks up a backend (a copy, so no lock outlives the call); NotFound if
  // the id is unknown.
  Result<Backend> Find(HistogramBackendId id) const;

  // Resolves a backend name ("equi-width", ...) to its id; NotFound if no
  // backend has that name.
  Result<HistogramBackendId> IdForName(std::string_view name) const;

  bool Has(HistogramBackendId id) const;

  // All registered ids, ascending. (Snapshot; concurrent registrations may
  // land after the copy.)
  std::vector<HistogramBackendId> Ids() const;

 private:
  mutable Mutex mu_{lockrank::kBackendRegistry};
  std::map<HistogramBackendId, Backend> backends_ GUARDED_BY(mu_);
};

// Scores `model` against true counts over `truth` — the backend-polymorphic
// face of core/range_estimator's EvaluateRangeWorkload. Equi-height models
// estimate through their compiled read path, so on that backend the report
// matches the core overload exactly.
Result<RangeWorkloadReport> EvaluateRangeWorkload(
    const HistogramModel& model, std::span<const RangeQuery> queries,
    const ValueSet& truth);

namespace internal {
// Defined in histogram_backends.cc; called once by Global().
void RegisterBuiltinHistogramBackends(HistogramBackendRegistry& registry);
}  // namespace internal

}  // namespace equihist

#endif  // EQUIHIST_STATS_HISTOGRAM_MODEL_H_
