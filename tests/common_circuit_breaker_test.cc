#include "common/circuit_breaker.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace equihist {
namespace {

TEST(CircuitBreakerTest, OpensAtThresholdHalfOpensAfterCooldownAndCloses) {
  std::uint64_t now = 1'000;
  const MicrosClock clock = [&now] { return now; };
  CircuitBreaker breaker;
  EXPECT_FALSE(breaker.IsOpen(clock));
  EXPECT_FALSE(breaker.RecordFailure(clock, /*threshold=*/3, 500));
  EXPECT_FALSE(breaker.RecordFailure(clock, 3, 500));
  EXPECT_FALSE(breaker.IsOpen(clock));
  // The third consecutive failure opens it for the cooldown.
  EXPECT_TRUE(breaker.RecordFailure(clock, 3, 500));
  EXPECT_EQ(breaker.consecutive_failures, 3u);
  EXPECT_TRUE(breaker.IsOpen(clock));
  now += 499;
  EXPECT_TRUE(breaker.IsOpen(clock));
  // Cooldown over: half-open, one probe may pass. Its failure re-opens
  // the breaker for another cooldown, and counts as an opening.
  now += 1;
  EXPECT_FALSE(breaker.IsOpen(clock));
  EXPECT_TRUE(breaker.RecordFailure(clock, 3, 500));
  EXPECT_TRUE(breaker.IsOpen(clock));
  // A failure while already open extends the cooldown but opens nothing.
  EXPECT_FALSE(breaker.RecordFailure(clock, 3, 500));
  now += 500;
  EXPECT_FALSE(breaker.IsOpen(clock));
  // A successful probe closes it and resets the count.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.consecutive_failures, 0u);
  EXPECT_EQ(breaker.open_until, 0u);
  EXPECT_FALSE(breaker.RecordFailure(clock, 3, 500));
  EXPECT_FALSE(breaker.IsOpen(clock));
}

TEST(CircuitBreakerTest, ClosedBreakerNeverReadsTheClock) {
  int reads = 0;
  const MicrosClock clock = [&reads] {
    ++reads;
    return std::uint64_t{0};
  };
  CircuitBreaker breaker;
  EXPECT_FALSE(breaker.IsOpen(clock));
  EXPECT_FALSE(breaker.RecordFailure(clock, 2, 10));
  EXPECT_EQ(reads, 0);
  EXPECT_TRUE(breaker.RecordFailure(clock, 2, 10));
  EXPECT_EQ(reads, 1);
}

TEST(CircuitBreakerTest, NullClockReadsTheSteadyClock) {
  CircuitBreaker breaker;
  EXPECT_TRUE(breaker.RecordFailure(MicrosClock{}, 1, 60'000'000));
  EXPECT_TRUE(breaker.IsOpen(MicrosClock{}));
  EXPECT_GT(breaker.open_until, SteadyMicros());
  EXPECT_EQ(RemainingMicros(0), 0u);
  EXPECT_GT(RemainingMicros(SteadyMicros() + 60'000'000), 0u);
}

}  // namespace
}  // namespace equihist
