#include "trace.h"

#include <chrono>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Lane* Tracer::NewLane() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  return &lanes_.emplace_back();
}

std::map<std::string, Distribution> Tracer::Durations() const {
  std::map<std::string, Distribution> by_name;
  for (const Lane& lane : lanes_) {
    for (const auto& [name, durations] : lane.durations_) {
      by_name[name].Merge(durations);
    }
  }
  return by_name;
}

}  // namespace perfbench
