#ifndef EQUIHIST_COMMON_CIRCUIT_BREAKER_H_
#define EQUIHIST_COMMON_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <functional>

#include "common/timer.h"

namespace equihist {

// An injectable monotonic microsecond clock; null reads SteadyMicros().
// Tests inject a manual clock so breaker transitions are deterministic.
using MicrosClock = std::function<std::uint64_t()>;

inline std::uint64_t ReadClock(const MicrosClock& clock) {
  return clock ? clock() : SteadyMicros();
}

// The circuit breaker of DESIGN.md §11, used for statistics builds and
// for transport peers alike: `threshold` consecutive failures open it for
// `cooldown_micros`; once the cooldown has passed it admits one probe
// (half-open) — success closes it, failure re-opens it for another
// cooldown. Not synchronized: the owner's lock guards it.
struct CircuitBreaker {
  std::uint64_t consecutive_failures = 0;
  std::uint64_t open_until = 0;  // clock micros; 0 = closed

  // True while the cooldown runs; the clock is read only when open.
  bool IsOpen(const MicrosClock& clock) const {
    return open_until != 0 && ReadClock(clock) < open_until;
  }

  void RecordSuccess() {
    consecutive_failures = 0;
    open_until = 0;
  }

  // Counts a failure; returns true when this failure opened the breaker
  // (from closed or half-open), false when it stays closed or was open.
  bool RecordFailure(const MicrosClock& clock, std::uint64_t threshold,
                     std::uint64_t cooldown_micros) {
    ++consecutive_failures;
    if (consecutive_failures < threshold) return false;
    const std::uint64_t now = ReadClock(clock);
    const bool was_open = open_until != 0 && now < open_until;
    open_until = now + cooldown_micros;
    return !was_open;
  }
};

}  // namespace equihist

#endif  // EQUIHIST_COMMON_CIRCUIT_BREAKER_H_
