#include "stats/transport_client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/circuit_breaker.h"
#include "common/timer.h"

namespace equihist::transport {

// Per-peer mutable state, all guarded by the client mutex.
struct TransportClient::PeerState {
  Peer peer;
  // Idle pooled links; broken ones are discarded, never pooled.
  std::vector<std::unique_ptr<Transport>> pool;
  CircuitBreaker breaker;
};

TransportClient::TransportClient(Options options)
    : options_(std::move(options)),
      jitter_rng_(DeriveStreamSeed(options_.jitter_seed, 0x7261775F6C6B74ULL)) {
  if (options_.retry_jitter < 0.0) options_.retry_jitter = 0.0;
  if (options_.retry_jitter > 1.0) options_.retry_jitter = 1.0;
}

TransportClient::~TransportClient() = default;

void TransportClient::AddPeer(Peer peer) {
  MutexLock lock(mu_);
  auto state = std::make_unique<PeerState>();
  state->peer = std::move(peer);
  peers_.push_back(std::move(state));
}

std::size_t TransportClient::peer_count() const {
  MutexLock lock(mu_);
  return peers_.size();
}

Result<std::vector<std::uint8_t>> TransportClient::SingleExchange(
    std::size_t peer_index, std::span<const std::uint8_t> frame,
    std::uint64_t deadline_abs) {
  std::unique_ptr<Transport> link;
  std::function<Result<std::unique_ptr<Transport>>(std::uint64_t)> connect;
  {
    MutexLock lock(mu_);
    PeerState& peer = *peers_[peer_index];
    if (!peer.pool.empty()) {
      link = std::move(peer.pool.back());
      peer.pool.pop_back();
    } else {
      connect = peer.peer.connect;
    }
  }
  if (link == nullptr) {
    const std::uint64_t remaining = RemainingMicros(deadline_abs);
    if (remaining == 0) {
      return Status::DeadlineExceeded("call budget exhausted");
    }
    EQUIHIST_ASSIGN_OR_RETURN(link, connect(remaining));
  }
  Result<std::vector<std::uint8_t>> response =
      link->RoundTrip(frame, RemainingMicros(deadline_abs));
  if (!link->Broken()) {
    MutexLock lock(mu_);
    peers_[peer_index]->pool.push_back(std::move(link));
  }
  return response;
}

Result<std::vector<std::uint8_t>> TransportClient::Attempt(
    std::span<const std::uint8_t> frame, std::uint64_t deadline_abs) {
  std::size_t peer_index = static_cast<std::size_t>(-1);
  {
    MutexLock lock(mu_);
    const std::size_t n = peers_.size();
    if (n == 0) {
      return Status::FailedPrecondition("transport client has no peers");
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t candidate = (next_peer_ + i) % n;
      if (!peers_[candidate]->breaker.IsOpen(options_.clock)) {
        peer_index = candidate;
        break;
      }
    }
    next_peer_ = (next_peer_ + 1) % n;
    if (peer_index == static_cast<std::size_t>(-1)) {
      if (options_.metrics != nullptr) {
        options_.metrics->Increment(
            metrics::Counter::kTransportBreakerFastFails);
      }
      return Status::Unavailable("every peer's circuit breaker is open");
    }
  }

  const std::uint64_t attempt_start = SteadyMicros();
  Result<std::vector<std::uint8_t>> result =
      SingleExchange(peer_index, frame, deadline_abs);
  if (result.ok() && options_.metrics != nullptr) {
    options_.metrics->Observe(metrics::Hist::kTransportRoundTripMicros,
                              SteadyMicros() - attempt_start);
  }
  MutexLock lock(mu_);
  PeerState& peer = *peers_[peer_index];
  if (result.ok()) {
    peer.breaker.RecordSuccess();
  } else if (result.status().code() == StatusCode::kUnavailable ||
             result.status().code() == StatusCode::kDeadlineExceeded) {
    const bool opened = peer.breaker.RecordFailure(
        options_.clock, options_.breaker_failure_threshold,
        options_.breaker_cooldown_micros);
    if (opened && options_.metrics != nullptr) {
      options_.metrics->Increment(metrics::Counter::kTransportBreakerOpens);
    }
  }
  return result;
}

Result<std::vector<std::uint8_t>> TransportClient::Call(
    std::span<const std::uint8_t> frame, bool idempotent,
    std::uint64_t deadline_micros) {
  if (options_.metrics != nullptr) {
    options_.metrics->Increment(metrics::Counter::kTransportRequests);
  }
  const std::uint64_t budget = deadline_micros != 0
                                   ? deadline_micros
                                   : options_.default_deadline_micros;
  const std::uint64_t deadline_abs = SteadyMicros() + budget;
  const std::uint32_t attempts =
      idempotent ? options_.retry.EffectiveAttempts() : 1;
  Status last = Status::Internal("no attempt ran");
  auto fail = [this](Status status) -> Status {
    if (options_.metrics != nullptr) {
      options_.metrics->Increment(metrics::Counter::kTransportErrors);
      if (status.code() == StatusCode::kDeadlineExceeded) {
        options_.metrics->Increment(
            metrics::Counter::kTransportDeadlineExceeded);
      }
    }
    return status;
  };
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::uint64_t bits = 0;
      {
        MutexLock lock(mu_);
        bits = jitter_rng_.Next();
      }
      const std::uint64_t backoff = std::min(
          JitteredBackoffMicros(options_.retry, attempt,
                                options_.retry_jitter, bits),
          RemainingMicros(deadline_abs));
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff));
      }
      if (options_.metrics != nullptr) {
        options_.metrics->Increment(metrics::Counter::kTransportRetries);
      }
    }
    if (RemainingMicros(deadline_abs) == 0) {
      return fail(Status::DeadlineExceeded("call budget exhausted"));
    }
    std::uint64_t attempt_deadline = deadline_abs;
    if (options_.attempt_timeout_micros > 0) {
      attempt_deadline = std::min(
          deadline_abs, SteadyMicros() + options_.attempt_timeout_micros);
    }
    Result<std::vector<std::uint8_t>> result =
        Attempt(frame, attempt_deadline);
    if (result.ok()) {
      const Result<fleetwire::FrameType> type = fleetwire::PeekType(*result);
      if (!type.ok()) {
        // The peer answered with bytes no frame decoder accepts: wire
        // damage the in-process transport cannot checksum away.
        last = Status::Unavailable("undecodable response frame");
      } else if (*type == fleetwire::FrameType::kRejection) {
        const Result<fleetwire::RejectionFrame> rejection =
            fleetwire::DecodeRejection(*result);
        if (!rejection.ok()) {
          last = Status::Unavailable("malformed rejection frame");
        } else {
          last = Status(rejection->code, rejection->message);
          if (last.code() == StatusCode::kResourceExhausted) {
            // Load-shed backpressure: typed, counted, never retried —
            // retrying into an overloaded server deepens the overload.
            if (options_.metrics != nullptr) {
              options_.metrics->Increment(
                  metrics::Counter::kTransportBackpressure);
            }
            return fail(std::move(last));
          }
        }
      } else {
        return result;
      }
    } else {
      last = result.status();
    }
    // An attempt-scoped timeout with overall budget left is transient:
    // the next attempt may land on a healthier link. A spent overall
    // budget stays kDeadlineExceeded — final, and never worth a retry.
    if (last.code() == StatusCode::kDeadlineExceeded &&
        RemainingMicros(deadline_abs) > 0) {
      last = Status::Unavailable("attempt timed out (budget remains)");
    }
    if (!IsTransientError(last.code())) break;
  }
  return fail(std::move(last));
}

Result<std::vector<double>> TransportClient::EstimateBatch(
    const std::vector<BatchEstimateRequest>& requests,
    std::uint64_t deadline_micros) {
  const std::vector<std::uint8_t> frame =
      fleetwire::Encode(fleetwire::EstimateBatchRequestFrame{requests});
  EQUIHIST_ASSIGN_OR_RETURN(
      const std::vector<std::uint8_t> reply,
      Call(frame, /*idempotent=*/true, deadline_micros));
  EQUIHIST_ASSIGN_OR_RETURN(fleetwire::EstimateBatchResponseFrame response,
                            fleetwire::DecodeEstimateBatchResponse(reply));
  if (response.estimates.size() != requests.size()) {
    return Status::Unavailable("estimate count does not match the request");
  }
  return std::move(response.estimates);
}

Status TransportClient::BuildControl(fleetwire::BuildOp op,
                                     const std::string& column,
                                     std::uint64_t count,
                                     std::uint64_t deadline_micros) {
  fleetwire::BuildControlRequestFrame request;
  request.op = op;
  request.column = column;
  request.count = count;
  const std::vector<std::uint8_t> frame = fleetwire::Encode(request);
  Result<std::vector<std::uint8_t>> reply =
      Call(frame, /*idempotent=*/false, deadline_micros);
  if (!reply.ok()) return reply.status();
  Result<fleetwire::BuildControlResponseFrame> response =
      fleetwire::DecodeBuildControlResponse(*reply);
  if (!response.ok()) {
    return Status::Unavailable("undecodable build-control response");
  }
  if (response->code == StatusCode::kOk) return Status::OK();
  return Status(response->code, response->message);
}

Result<std::string> TransportClient::FetchMetricsJson(
    std::uint64_t deadline_micros) {
  const std::vector<std::uint8_t> frame = fleetwire::EncodeMetricsRequest();
  EQUIHIST_ASSIGN_OR_RETURN(
      const std::vector<std::uint8_t> reply,
      Call(frame, /*idempotent=*/true, deadline_micros));
  EQUIHIST_ASSIGN_OR_RETURN(fleetwire::MetricsResponseFrame response,
                            fleetwire::DecodeMetricsResponse(reply));
  return std::move(response.json);
}

}  // namespace equihist::transport
