#include "stats/fleet_wire.h"

#include <cassert>
#include <cstddef>
#include <cstring>
#include <string_view>

#include "stats/wire_format.h"

namespace equihist::fleetwire {
namespace {

constexpr std::size_t kHeaderBytes = 4;

// Every encoder sizes its frame exactly, allocates it once with the
// header in place, and writes the payload after it.
std::vector<std::uint8_t> NewFrame(FrameType type, std::size_t payload_bytes) {
  std::vector<std::uint8_t> out(kHeaderBytes + payload_bytes);
  out[0] = kMagic0;
  out[1] = kMagic1;
  out[2] = kVersion;
  out[3] = static_cast<std::uint8_t>(type);
  return out;
}

std::uint8_t* Payload(std::vector<std::uint8_t>& frame) {
  return frame.data() + kHeaderBytes;
}

// Strings are varint-length-prefixed.
std::size_t StringSize(std::string_view s) {
  return wire::VarintSize(s.size()) + s.size();
}

std::uint8_t* WriteString(std::string_view s, std::uint8_t* out) {
  out = wire::WriteVarint(s.size(), out);
  if (!s.empty()) std::memcpy(out, s.data(), s.size());
  return out + s.size();
}

// Build-control responses and rejections: a status code byte, then the
// message.
std::vector<std::uint8_t> EncodeStatus(FrameType type, StatusCode code,
                                       std::string_view message) {
  std::vector<std::uint8_t> out = NewFrame(type, 1 + StringSize(message));
  std::uint8_t* p = Payload(out);
  *p++ = static_cast<std::uint8_t>(code);
  WriteString(message, p);
  return out;
}

Status ReadString(wire::Reader& reader, std::string* out) {
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t length, reader.Varint());
  EQUIHIST_ASSIGN_OR_RETURN(const std::span<const std::uint8_t> bytes,
                            reader.Bytes(length));
  out->assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return Status::OK();
}

// Consumes the 4-byte header, validates magic and version, and returns
// the type byte unchecked.
Result<std::uint8_t> ReadHeaderType(wire::Reader& reader) {
  EQUIHIST_ASSIGN_OR_RETURN(const std::span<const std::uint8_t> header,
                            reader.Bytes(kHeaderBytes));
  if (header[0] != kMagic0 || header[1] != kMagic1) {
    return Status::InvalidArgument("bad fleet frame magic");
  }
  if (header[2] != kVersion) {
    return Status::InvalidArgument("unsupported fleet frame version");
  }
  return header[3];
}

// Consumes and validates the header; `expected` pins the type.
Status ReadHeader(wire::Reader& reader, FrameType expected) {
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint8_t type, ReadHeaderType(reader));
  if (type != static_cast<std::uint8_t>(expected)) {
    return Status::InvalidArgument("unexpected fleet frame type");
  }
  return Status::OK();
}

Status CheckFullyConsumed(const wire::Reader& reader) {
  if (reader.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after fleet frame");
  }
  return Status::OK();
}

}  // namespace

std::vector<std::uint8_t> EncodeEstimateBatchRequest(
    std::span<const BatchEstimateRequest> requests) {
  std::size_t payload = wire::VarintSize(requests.size());
  for (const BatchEstimateRequest& request : requests) {
    payload += StringSize(request.column) +
               wire::VarintSize(wire::ZigZag(request.query.lo)) +
               wire::VarintSize(wire::ZigZag(request.query.hi));
  }
  std::vector<std::uint8_t> out =
      NewFrame(FrameType::kEstimateBatchRequest, payload);
  std::uint8_t* p = wire::WriteVarint(requests.size(), Payload(out));
  for (const BatchEstimateRequest& request : requests) {
    p = WriteString(request.column, p);
    p = wire::WriteVarint(wire::ZigZag(request.query.lo), p);
    p = wire::WriteVarint(wire::ZigZag(request.query.hi), p);
  }
  assert(p == out.data() + out.size());
  return out;
}

std::vector<std::uint8_t> Encode(const EstimateBatchRequestFrame& frame) {
  return EncodeEstimateBatchRequest(frame.requests);
}

std::vector<std::uint8_t> Encode(const EstimateBatchResponseFrame& frame) {
  const std::size_t count = frame.estimates.size();
  std::vector<std::uint8_t> out = NewFrame(
      FrameType::kEstimateBatchResponse, wire::VarintSize(count) + 8 * count);
  std::uint8_t* p = wire::WriteVarint(count, Payload(out));
  for (const double estimate : frame.estimates) {
    p = wire::WriteF64(estimate, p);
  }
  assert(p == out.data() + out.size());
  return out;
}

std::vector<std::uint8_t> Encode(const BuildControlRequestFrame& frame) {
  const bool counted = frame.op == BuildOp::kRecordModifications;
  std::vector<std::uint8_t> out =
      NewFrame(FrameType::kBuildControlRequest,
               1 + StringSize(frame.column) +
                   (counted ? wire::VarintSize(frame.count) : 0));
  std::uint8_t* p = Payload(out);
  *p++ = static_cast<std::uint8_t>(frame.op);
  p = WriteString(frame.column, p);
  if (counted) p = wire::WriteVarint(frame.count, p);
  assert(p == out.data() + out.size());
  return out;
}

std::vector<std::uint8_t> Encode(const BuildControlResponseFrame& frame) {
  return EncodeStatus(FrameType::kBuildControlResponse, frame.code,
                      frame.message);
}

std::vector<std::uint8_t> EncodeMetricsRequest() {
  return NewFrame(FrameType::kMetricsRequest, 0);
}

std::vector<std::uint8_t> Encode(const MetricsResponseFrame& frame) {
  std::vector<std::uint8_t> out =
      NewFrame(FrameType::kMetricsResponse, StringSize(frame.json));
  WriteString(frame.json, Payload(out));
  return out;
}

std::vector<std::uint8_t> Encode(const RejectionFrame& frame) {
  return EncodeStatus(FrameType::kRejection, frame.code, frame.message);
}

Result<FrameType> PeekType(std::span<const std::uint8_t> bytes) {
  wire::Reader reader(bytes);
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint8_t type, ReadHeaderType(reader));
  if (type < static_cast<std::uint8_t>(FrameType::kEstimateBatchRequest) ||
      type > static_cast<std::uint8_t>(FrameType::kRejection)) {
    return Status::InvalidArgument("unknown fleet frame type");
  }
  return static_cast<FrameType>(type);
}

Result<EstimateBatchRequestFrame> DecodeEstimateBatchRequest(
    std::span<const std::uint8_t> bytes) {
  wire::Reader reader(bytes);
  EQUIHIST_RETURN_IF_ERROR(
      ReadHeader(reader, FrameType::kEstimateBatchRequest));
  // Each request is at least 3 bytes (length prefix + two varints).
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t count,
                            reader.LengthPrefixedCount(3));
  EstimateBatchRequestFrame frame;
  frame.requests.resize(static_cast<std::size_t>(count));
  for (BatchEstimateRequest& request : frame.requests) {
    EQUIHIST_RETURN_IF_ERROR(ReadString(reader, &request.column));
    EQUIHIST_ASSIGN_OR_RETURN(request.query.lo, reader.Signed());
    EQUIHIST_ASSIGN_OR_RETURN(request.query.hi, reader.Signed());
    if (request.query.lo > request.query.hi) {
      return Status::InvalidArgument("fleet frame range has lo > hi");
    }
  }
  EQUIHIST_RETURN_IF_ERROR(CheckFullyConsumed(reader));
  return frame;
}

Result<EstimateBatchResponseFrame> DecodeEstimateBatchResponse(
    std::span<const std::uint8_t> bytes) {
  wire::Reader reader(bytes);
  EQUIHIST_RETURN_IF_ERROR(
      ReadHeader(reader, FrameType::kEstimateBatchResponse));
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint64_t count,
                            reader.LengthPrefixedCount(8));
  // LengthPrefixedCount bounds count by the remaining bytes / 8, so the
  // product cannot overflow.
  EQUIHIST_ASSIGN_OR_RETURN(const std::span<const std::uint8_t> run,
                            reader.Bytes(8 * count));
  EstimateBatchResponseFrame frame;
  frame.estimates.resize(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < frame.estimates.size(); ++i) {
    frame.estimates[i] = wire::LoadF64(run.data() + 8 * i);
  }
  EQUIHIST_RETURN_IF_ERROR(CheckFullyConsumed(reader));
  return frame;
}

Result<BuildControlRequestFrame> DecodeBuildControlRequest(
    std::span<const std::uint8_t> bytes) {
  wire::Reader reader(bytes);
  EQUIHIST_RETURN_IF_ERROR(
      ReadHeader(reader, FrameType::kBuildControlRequest));
  BuildControlRequestFrame frame;
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint8_t op, reader.Byte());
  if (op > static_cast<std::uint8_t>(BuildOp::kRecordModifications)) {
    return Status::InvalidArgument("unknown fleet build op");
  }
  frame.op = static_cast<BuildOp>(op);
  EQUIHIST_RETURN_IF_ERROR(ReadString(reader, &frame.column));
  if (frame.column.empty()) {
    return Status::InvalidArgument("fleet build op names no column");
  }
  if (frame.op == BuildOp::kRecordModifications) {
    EQUIHIST_ASSIGN_OR_RETURN(frame.count, reader.Varint());
  }
  EQUIHIST_RETURN_IF_ERROR(CheckFullyConsumed(reader));
  return frame;
}

Result<BuildControlResponseFrame> DecodeBuildControlResponse(
    std::span<const std::uint8_t> bytes) {
  wire::Reader reader(bytes);
  EQUIHIST_RETURN_IF_ERROR(
      ReadHeader(reader, FrameType::kBuildControlResponse));
  BuildControlResponseFrame frame;
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint8_t code, reader.Byte());
  if (code > static_cast<std::uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::InvalidArgument("unknown status code in fleet frame");
  }
  frame.code = static_cast<StatusCode>(code);
  EQUIHIST_RETURN_IF_ERROR(ReadString(reader, &frame.message));
  EQUIHIST_RETURN_IF_ERROR(CheckFullyConsumed(reader));
  return frame;
}

Status DecodeMetricsRequest(std::span<const std::uint8_t> bytes) {
  wire::Reader reader(bytes);
  EQUIHIST_RETURN_IF_ERROR(ReadHeader(reader, FrameType::kMetricsRequest));
  return CheckFullyConsumed(reader);
}

Result<MetricsResponseFrame> DecodeMetricsResponse(
    std::span<const std::uint8_t> bytes) {
  wire::Reader reader(bytes);
  EQUIHIST_RETURN_IF_ERROR(ReadHeader(reader, FrameType::kMetricsResponse));
  MetricsResponseFrame frame;
  EQUIHIST_RETURN_IF_ERROR(ReadString(reader, &frame.json));
  EQUIHIST_RETURN_IF_ERROR(CheckFullyConsumed(reader));
  return frame;
}

Result<RejectionFrame> DecodeRejection(std::span<const std::uint8_t> bytes) {
  wire::Reader reader(bytes);
  EQUIHIST_RETURN_IF_ERROR(ReadHeader(reader, FrameType::kRejection));
  RejectionFrame frame;
  EQUIHIST_ASSIGN_OR_RETURN(const std::uint8_t code, reader.Byte());
  if (code == static_cast<std::uint8_t>(StatusCode::kOk) ||
      code > static_cast<std::uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::InvalidArgument("rejection frame carries no valid error");
  }
  frame.code = static_cast<StatusCode>(code);
  EQUIHIST_RETURN_IF_ERROR(ReadString(reader, &frame.message));
  EQUIHIST_RETURN_IF_ERROR(CheckFullyConsumed(reader));
  return frame;
}

}  // namespace equihist::fleetwire
