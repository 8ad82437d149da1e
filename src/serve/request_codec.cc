#include "serve/request_codec.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "util/artifact_io.h"
#include "util/string_util.h"

namespace transer {
namespace serve {

namespace {

/// Payload discriminator, the first byte of every payload.
constexpr uint8_t kRequestMessage = 1;
constexpr uint8_t kResponseMessage = 2;

/// Highest DegradationKind a response may carry; a kind past this is a
/// frame from a newer build (or a crafted one) and is rejected.
constexpr uint8_t kMaxEventKind =
    static_cast<uint8_t>(DegradationKind::kServeArtifactRetried);
// A response frame carries kinds as their enum values, so no kind up to
// kMaxEventKind may change number: add or remove kinds only after it.
static_assert(static_cast<int>(DegradationKind::kServeArtifactRetried) == 17);

uint32_t ReadU32At(std::span<const uint8_t> bytes, size_t offset) {
  return static_cast<uint32_t>(bytes[offset]) |
         static_cast<uint32_t>(bytes[offset + 1]) << 8 |
         static_cast<uint32_t>(bytes[offset + 2]) << 16 |
         static_cast<uint32_t>(bytes[offset + 3]) << 24;
}

/// Strips and checks the magic/length/CRC framing, returning the
/// payload span. The CRC is verified before any payload structure is
/// parsed, so a flip anywhere in payload or trailer is caught here.
Result<std::span<const uint8_t>> UnwrapFrame(std::span<const uint8_t> frame,
                                             const CodecLimits& limits) {
  if (frame.size() < kFrameOverheadBytes) {
    return Status::InvalidArgument(StrFormat(
        "frame of %zu bytes is shorter than the %zu-byte framing",
        frame.size(), kFrameOverheadBytes));
  }
  if (std::memcmp(frame.data(), kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return Status::InvalidArgument("frame does not start with the TSRV magic");
  }
  if (frame.size() > limits.max_frame_bytes) {
    return Status::InvalidArgument(
        StrFormat("frame of %zu bytes exceeds the %zu-byte limit",
                  frame.size(), limits.max_frame_bytes));
  }
  const uint32_t payload_len = ReadU32At(frame, sizeof(kFrameMagic));
  if (static_cast<size_t>(payload_len) !=
      frame.size() - kFrameOverheadBytes) {
    return Status::InvalidArgument(StrFormat(
        "frame length field %u disagrees with the %zu payload bytes "
        "present",
        payload_len, frame.size() - kFrameOverheadBytes));
  }
  const std::span<const uint8_t> payload =
      frame.subspan(sizeof(kFrameMagic) + 4, payload_len);
  const uint32_t stored_crc = ReadU32At(frame, frame.size() - 4);
  const uint32_t actual_crc =
      artifact::Crc32(payload.data(), payload.size());
  if (stored_crc != actual_crc) {
    return Status::InvalidArgument(
        StrFormat("frame CRC mismatch (stored %08x, computed %08x)",
                  stored_crc, actual_crc));
  }
  return payload;
}

/// Shared payload prologue: message type, codec version, id, op.
Status DecodePrologue(artifact::Decoder* in, uint8_t expected_message,
                      uint64_t* request_id, RequestOp* op) {
  uint8_t message = 0;
  uint32_t version = 0;
  uint8_t op_byte = 0;
  TRANSER_RETURN_IF_ERROR(in->GetU8(&message));
  if (message != expected_message) {
    return Status::InvalidArgument(
        StrFormat("payload is message type %u, expected %u", message,
                  expected_message));
  }
  TRANSER_RETURN_IF_ERROR(in->GetU32(&version));
  if (version != kCodecVersion) {
    return Status::FailedPrecondition(
        StrFormat("frame is codec version %u; this build reads version %u",
                  version, kCodecVersion));
  }
  TRANSER_RETURN_IF_ERROR(in->GetU64(request_id));
  TRANSER_RETURN_IF_ERROR(in->GetU8(&op_byte));
  if (op_byte > static_cast<uint8_t>(RequestOp::kStats)) {
    return Status::InvalidArgument(
        StrFormat("unknown request op %u", op_byte));
  }
  *op = static_cast<RequestOp>(op_byte);
  return Status::OK();
}

}  // namespace

const char* RequestOpName(RequestOp op) {
  switch (op) {
    case RequestOp::kPing:
      return "ping";
    case RequestOp::kClassify:
      return "classify";
    case RequestOp::kResolve:
      return "resolve";
    case RequestOp::kStats:
      return "stats";
  }
  return "unknown";
}

const char* ServeOutcomeName(ServeOutcome outcome) {
  switch (outcome) {
    case ServeOutcome::kOk:
      return "ok";
    case ServeOutcome::kDegraded:
      return "degraded";
    case ServeOutcome::kRejected:
      return "rejected";
  }
  return "unknown";
}

Status ValidateRequest(const Request& request, const CodecLimits& limits) {
  const bool carries_data = request.op == RequestOp::kClassify ||
                            request.op == RequestOp::kResolve;
  if (!carries_data) {
    if (!request.feature_names.empty() || request.rows != 0 ||
        !request.features.empty()) {
      return Status::InvalidArgument(StrFormat(
          "%s request must not carry feature data",
          RequestOpName(request.op)));
    }
    return Status::OK();
  }
  if (request.feature_names.empty()) {
    return Status::InvalidArgument("request has no feature schema");
  }
  if (request.feature_names.size() > limits.max_features) {
    return Status::InvalidArgument(
        StrFormat("request schema of %zu features exceeds the limit of %zu",
                  request.feature_names.size(), limits.max_features));
  }
  for (const std::string& name : request.feature_names) {
    if (name.empty()) {
      return Status::InvalidArgument("request schema has an empty name");
    }
  }
  if (request.rows == 0) {
    return Status::InvalidArgument("request carries zero rows");
  }
  if (request.rows > limits.max_rows) {
    return Status::InvalidArgument(
        StrFormat("request of %llu rows exceeds the limit of %zu",
                  static_cast<unsigned long long>(request.rows),
                  limits.max_rows));
  }
  const size_t expected =
      static_cast<size_t>(request.rows) * request.feature_names.size();
  if (request.features.size() != expected) {
    return Status::InvalidArgument(StrFormat(
        "request carries %zu feature values, expected %zu (rows x schema)",
        request.features.size(), expected));
  }
  for (double value : request.features) {
    if (!std::isfinite(value)) {
      return Status::InvalidArgument(
          "request carries a non-finite feature value");
    }
  }
  return Status::OK();
}

std::vector<uint8_t> WrapFrame(std::vector<uint8_t> payload) {
  artifact::Encoder framed;
  for (char c : kFrameMagic) framed.PutU8(static_cast<uint8_t>(c));
  framed.PutU32(static_cast<uint32_t>(payload.size()));
  std::vector<uint8_t> out = framed.TakeBytes();
  const uint32_t crc = artifact::Crc32(payload.data(), payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  artifact::Encoder trailer;
  trailer.PutU32(crc);
  const std::vector<uint8_t>& trailer_bytes = trailer.bytes();
  out.insert(out.end(), trailer_bytes.begin(), trailer_bytes.end());
  return out;
}

std::vector<uint8_t> EncodeRequest(const Request& request) {
  artifact::Encoder out;
  out.PutU8(kRequestMessage);
  out.PutU32(kCodecVersion);
  out.PutU64(request.request_id);
  out.PutU8(static_cast<uint8_t>(request.op));
  out.PutU32(request.deadline_ms);
  out.PutStringVec(request.feature_names);
  out.PutU64(request.rows);
  out.PutDoubleVec(request.features);
  return WrapFrame(out.TakeBytes());
}

std::vector<uint8_t> EncodeResponse(const Response& response) {
  artifact::Encoder out;
  out.PutU8(kResponseMessage);
  out.PutU32(kCodecVersion);
  out.PutU64(response.request_id);
  out.PutU8(static_cast<uint8_t>(response.op));
  out.PutU8(static_cast<uint8_t>(response.outcome));
  out.PutString(response.model_id);
  out.PutU8(response.selected_by_probe ? 1 : 0);
  out.PutDouble(response.probe_similarity);
  out.PutDouble(response.server_ms);
  out.PutString(response.error);
  out.PutIntVec(response.labels);
  out.PutDoubleVec(response.confidences);
  out.PutString(response.stats_text);
  out.PutU64(response.events.size());
  for (const DegradationEvent& event : response.events) {
    out.PutU8(static_cast<uint8_t>(event.kind));
    out.PutString(event.phase);
    out.PutString(event.detail);
    out.PutDouble(event.original_value);
    out.PutDouble(event.adjusted_value);
  }
  return WrapFrame(out.TakeBytes());
}

Result<Request> DecodeRequest(std::span<const uint8_t> frame,
                              const CodecLimits& limits) {
  TRANSER_ASSIGN_OR_RETURN(std::span<const uint8_t> payload,
                           UnwrapFrame(frame, limits));
  artifact::Decoder in(payload);
  Request request;
  TRANSER_RETURN_IF_ERROR(
      DecodePrologue(&in, kRequestMessage, &request.request_id, &request.op));
  TRANSER_RETURN_IF_ERROR(in.GetU32(&request.deadline_ms));
  TRANSER_RETURN_IF_ERROR(in.GetStringVec(&request.feature_names));
  TRANSER_RETURN_IF_ERROR(in.GetU64(&request.rows));
  TRANSER_RETURN_IF_ERROR(in.GetDoubleVec(&request.features));
  TRANSER_RETURN_IF_ERROR(in.ExpectEnd());
  TRANSER_RETURN_IF_ERROR(ValidateRequest(request, limits));
  return request;
}

Result<Response> DecodeResponse(std::span<const uint8_t> frame,
                                const CodecLimits& limits) {
  TRANSER_ASSIGN_OR_RETURN(std::span<const uint8_t> payload,
                           UnwrapFrame(frame, limits));
  artifact::Decoder in(payload);
  Response response;
  TRANSER_RETURN_IF_ERROR(DecodePrologue(&in, kResponseMessage,
                                         &response.request_id, &response.op));
  uint8_t outcome = 0;
  uint8_t by_probe = 0;
  TRANSER_RETURN_IF_ERROR(in.GetU8(&outcome));
  if (outcome > static_cast<uint8_t>(ServeOutcome::kRejected)) {
    return Status::InvalidArgument(
        StrFormat("unknown serve outcome %u", outcome));
  }
  response.outcome = static_cast<ServeOutcome>(outcome);
  TRANSER_RETURN_IF_ERROR(in.GetString(&response.model_id));
  TRANSER_RETURN_IF_ERROR(in.GetU8(&by_probe));
  if (by_probe > 1) {
    return Status::InvalidArgument("probe flag is not 0/1");
  }
  response.selected_by_probe = by_probe == 1;
  TRANSER_RETURN_IF_ERROR(in.GetDouble(&response.probe_similarity));
  TRANSER_RETURN_IF_ERROR(in.GetDouble(&response.server_ms));
  TRANSER_RETURN_IF_ERROR(in.GetString(&response.error));
  TRANSER_RETURN_IF_ERROR(in.GetIntVec(&response.labels));
  TRANSER_RETURN_IF_ERROR(in.GetDoubleVec(&response.confidences));
  TRANSER_RETURN_IF_ERROR(in.GetString(&response.stats_text));
  uint64_t event_count = 0;
  TRANSER_RETURN_IF_ERROR(in.GetU64(&event_count));
  // Five fields of >= 1 byte each per event bounds the count by the
  // bytes actually remaining — a crafted count cannot over-allocate.
  if (event_count > in.remaining()) {
    return Status::InvalidArgument(
        StrFormat("event count %llu exceeds the remaining payload",
                  static_cast<unsigned long long>(event_count)));
  }
  response.events.reserve(static_cast<size_t>(event_count));
  for (uint64_t i = 0; i < event_count; ++i) {
    uint8_t kind = 0;
    DegradationEvent event;
    TRANSER_RETURN_IF_ERROR(in.GetU8(&kind));
    if (kind > kMaxEventKind) {
      return Status::InvalidArgument(
          StrFormat("unknown degradation kind %u in response", kind));
    }
    event.kind = static_cast<DegradationKind>(kind);
    TRANSER_RETURN_IF_ERROR(in.GetString(&event.phase));
    TRANSER_RETURN_IF_ERROR(in.GetString(&event.detail));
    TRANSER_RETURN_IF_ERROR(in.GetDouble(&event.original_value));
    TRANSER_RETURN_IF_ERROR(in.GetDouble(&event.adjusted_value));
    response.events.push_back(std::move(event));
  }
  TRANSER_RETURN_IF_ERROR(in.ExpectEnd());
  for (int label : response.labels) {
    if (label != 0 && label != 1) {
      return Status::InvalidArgument("response label is not 0/1");
    }
  }
  if (!response.confidences.empty() &&
      response.confidences.size() != response.labels.size()) {
    return Status::InvalidArgument(
        "response confidences disagree with its labels");
  }
  return response;
}

void FrameReader::Feed(const uint8_t* data, size_t size) {
  if (corrupt_) return;  // the stream is already condemned
  buffer_.insert(buffer_.end(), data, data + size);
}

FrameReader::Next FrameReader::Pop(std::vector<uint8_t>* frame) {
  if (corrupt_) return Next::kCorrupt;
  if (buffer_.size() < sizeof(kFrameMagic) + 4) return Next::kNeedMore;
  if (std::memcmp(buffer_.data(), kFrameMagic, sizeof(kFrameMagic)) != 0) {
    corrupt_ = true;
    error_ = Status::InvalidArgument(
        "stream does not start with the TSRV magic; cannot resync");
    return Next::kCorrupt;
  }
  const uint32_t payload_len = ReadU32At(buffer_, sizeof(kFrameMagic));
  const size_t frame_len = kFrameOverheadBytes + payload_len;
  if (frame_len > limits_.max_frame_bytes) {
    corrupt_ = true;
    error_ = Status::InvalidArgument(StrFormat(
        "stream declares a %zu-byte frame, over the %zu-byte limit",
        frame_len, limits_.max_frame_bytes));
    return Next::kCorrupt;
  }
  if (buffer_.size() < frame_len) return Next::kNeedMore;
  frame->assign(buffer_.begin(), buffer_.begin() + frame_len);
  buffer_.erase(buffer_.begin(), buffer_.begin() + frame_len);
  return Next::kFrame;
}

}  // namespace serve
}  // namespace transer
