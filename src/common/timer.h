#ifndef EQUIHIST_COMMON_TIMER_H_
#define EQUIHIST_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace equihist {

// Monotonic steady-clock microseconds: the clock behind every deadline
// and (unless a test injects its own) every breaker cooldown.
inline std::uint64_t SteadyMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Remaining budget against an absolute SteadyMicros() deadline; 0 = spent.
inline std::uint64_t RemainingMicros(std::uint64_t deadline_micros) {
  const std::uint64_t now = SteadyMicros();
  return now >= deadline_micros ? 0 : deadline_micros - now;
}

// Monotonic wall-clock stopwatch used by examples and benchmark harnesses.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace equihist

#endif  // EQUIHIST_COMMON_TIMER_H_
