#ifndef EQUIHIST_STATS_FLEET_WIRE_H_
#define EQUIHIST_STATS_FLEET_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "stats/statistics_shard.h"

namespace equihist::fleetwire {

// Compact framing for the fleet's estimate and build-control messages
// (DESIGN.md §16). Layout of every frame:
//
//   offset 0: 'F'            — magic
//   offset 1: 'L'
//   offset 2: version (0x01)
//   offset 3: FrameType byte
//   offset 4: type-specific payload (varint/zigzag/F64 primitives from
//             stats/wire_format.h; strings are varint-length-prefixed)
//
// Encoders size the frame first and write it into one exactly-sized
// buffer. Decoders make one pass over the frame on the bounds-checked
// wire::Reader (a string's bytes are one checked step): any corruption —
// truncation, bit flips, hostile length prefixes — surfaces as
// Status::InvalidArgument, never as UB (the corruption-matrix test in
// tests/stats_fleet_test.cc walks every byte). A frame must consume its
// buffer exactly; trailing bytes are rejected.

inline constexpr std::uint8_t kMagic0 = 'F';
inline constexpr std::uint8_t kMagic1 = 'L';
inline constexpr std::uint8_t kVersion = 1;

enum class FrameType : std::uint8_t {
  kEstimateBatchRequest = 1,
  kEstimateBatchResponse = 2,
  kBuildControlRequest = 3,
  kBuildControlResponse = 4,
  kMetricsRequest = 5,
  kMetricsResponse = 6,
  // A typed error reply usable in place of ANY response frame: the server
  // could not (or refused to) serve the request. Carries the Status so
  // clients can distinguish load-shedding backpressure
  // (kResourceExhausted, never retried), admission-expired deadlines
  // (kDeadlineExceeded), and transient wire damage (kUnavailable,
  // retryable).
  kRejection = 7,
};

enum class BuildOp : std::uint8_t {
  kEnsureFresh = 0,
  kDrop = 1,
  kRecordModifications = 2,
};

// requests[i] pairs with estimates[i] of the response.
struct EstimateBatchRequestFrame {
  std::vector<BatchEstimateRequest> requests;
};

struct EstimateBatchResponseFrame {
  std::vector<double> estimates;
};

struct BuildControlRequestFrame {
  BuildOp op = BuildOp::kEnsureFresh;
  std::string column;
  std::uint64_t count = 0;  // kRecordModifications only
};

// The remote Status: code + message (OK carries an empty message).
struct BuildControlResponseFrame {
  StatusCode code = StatusCode::kOk;
  std::string message;
};

struct MetricsResponseFrame {
  std::string json;
};

// The server's typed refusal (see FrameType::kRejection). `code` is never
// kOk — a rejection that carries success is malformed.
struct RejectionFrame {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

// Encodes straight from the caller's requests, with no frame copy;
// Encode(EstimateBatchRequestFrame) forwards here.
std::vector<std::uint8_t> EncodeEstimateBatchRequest(
    std::span<const BatchEstimateRequest> requests);
std::vector<std::uint8_t> Encode(const EstimateBatchRequestFrame& frame);
std::vector<std::uint8_t> Encode(const EstimateBatchResponseFrame& frame);
std::vector<std::uint8_t> Encode(const BuildControlRequestFrame& frame);
std::vector<std::uint8_t> Encode(const BuildControlResponseFrame& frame);
std::vector<std::uint8_t> EncodeMetricsRequest();
std::vector<std::uint8_t> Encode(const MetricsResponseFrame& frame);
std::vector<std::uint8_t> Encode(const RejectionFrame& frame);

// Validates magic + version and returns the frame type without touching
// the payload — the dispatch step of StatisticsFleet::ServeFrame.
Result<FrameType> PeekType(std::span<const std::uint8_t> bytes);

Result<EstimateBatchRequestFrame> DecodeEstimateBatchRequest(
    std::span<const std::uint8_t> bytes);
Result<EstimateBatchResponseFrame> DecodeEstimateBatchResponse(
    std::span<const std::uint8_t> bytes);
Result<BuildControlRequestFrame> DecodeBuildControlRequest(
    std::span<const std::uint8_t> bytes);
Result<BuildControlResponseFrame> DecodeBuildControlResponse(
    std::span<const std::uint8_t> bytes);
Status DecodeMetricsRequest(std::span<const std::uint8_t> bytes);
Result<MetricsResponseFrame> DecodeMetricsResponse(
    std::span<const std::uint8_t> bytes);
Result<RejectionFrame> DecodeRejection(std::span<const std::uint8_t> bytes);

}  // namespace equihist::fleetwire

#endif  // EQUIHIST_STATS_FLEET_WIRE_H_
