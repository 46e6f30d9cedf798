#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>

#include "distribution.h"

namespace perfbench {

// Monotonic nanoseconds (steady_clock).
std::int64_t NowNs();

// Span recorder: the duration of each timed call from the benchmark into
// a layer's public function, grouped by span name. Each thread records
// into its own Lane (no sharing on the hot path); the tracer owns every
// lane and reads them only after the recording threads are joined. A
// disabled tracer hands out null lanes, and every recording call below is
// a no-op on a null lane, so the untraced run executes the same loop
// minus the recording.
class Tracer {
 public:
  class Lane {
   public:
    // `name` must be a string literal (lanes key by its address).
    void Record(const char* name, std::int64_t duration_ns) {
      durations_[name].Add(duration_ns);
    }

   private:
    friend class Tracer;
    std::unordered_map<const char*, Distribution> durations_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // A lane for the calling thread; null when tracing is off. Thread-safe.
  Lane* NewLane();

  // After all lanes are quiescent: span durations (ns) grouped by name.
  std::map<std::string, Distribution> Durations() const;

 private:
  const bool enabled_;
  std::mutex mu_;
  std::deque<Lane> lanes_;  // deque: lane addresses stay stable
};

// RAII span on a lane: timed from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Lane* lane, const char* name)
      : lane_(lane), name_(name), start_ns_(lane ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (lane_ != nullptr) lane_->Record(name_, NowNs() - start_ns_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Lane* lane_;
  const char* name_;
  std::int64_t start_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
