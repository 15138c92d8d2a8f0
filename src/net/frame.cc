#include "net/frame.h"

#include <sys/uio.h>

#include <cstring>

#include "common/fnv.h"
#include "common/strings.h"
#include "net/socket.h"
#include "snapshot/binio.h"

namespace oodbsec::net {

namespace {

bool KnownType(uint8_t raw) {
  switch (static_cast<FrameType>(raw)) {
    case FrameType::kHello:
    case FrameType::kHelloAck:
    case FrameType::kBatch:
    case FrameType::kReports:
    case FrameType::kBatchError:
    case FrameType::kDone:
    case FrameType::kStats:
    case FrameType::kStoreFind:
    case FrameType::kStoreFound:
    case FrameType::kStoreMiss:
    case FrameType::kStoreFail:
    case FrameType::kStoreSave:
    case FrameType::kStoreSaveAck:
      return true;
  }
  return false;
}

}  // namespace

std::string EncodeFrameHeader(FrameType type, std::string_view payload) {
  snapshot::ByteWriter header;
  header.PutU32(kFrameMagic);
  header.PutU8(static_cast<uint8_t>(type));
  header.PutU8(0);
  header.PutU8(0);
  header.PutU8(0);
  header.PutU32(static_cast<uint32_t>(payload.size()));
  header.PutU64(common::Fnv1a64(payload));
  return header.Release();
}

common::Status WriteFrame(int fd, FrameType type, std::string_view payload,
                          int timeout_ms) {
  std::string header = EncodeFrameHeader(type, payload);
  struct iovec iov[2];
  iov[0].iov_base = header.data();
  iov[0].iov_len = header.size();
  iov[1].iov_base = const_cast<char*>(payload.data());
  iov[1].iov_len = payload.size();
  int iovcnt = payload.empty() ? 1 : 2;
  if (!WritevFullTimeout(fd, iov, iovcnt, timeout_ms)) {
    return common::InternalError("frame: write failed or timed out");
  }
  return common::Status::Ok();
}

common::Status DecodeFrameHeader(std::string_view header, FrameType* type,
                                 uint32_t* length, uint64_t* checksum) {
  if (header.size() < kFrameHeaderSize) {
    return common::FailedPreconditionError("frame: short header");
  }
  snapshot::ByteReader reader(header.substr(0, kFrameHeaderSize));
  uint32_t magic = reader.GetU32();
  if (magic != kFrameMagic) {
    return common::FailedPreconditionError(
        "frame: bad magic (garbage prefix or foreign-endian peer)");
  }
  uint8_t raw_type = reader.GetU8();
  reader.GetU8();
  reader.GetU8();
  reader.GetU8();
  uint32_t raw_length = reader.GetU32();
  uint64_t raw_checksum = reader.GetU64();
  if (!reader.ok()) {
    return common::FailedPreconditionError("frame: short header");
  }
  if (!KnownType(raw_type)) {
    return common::FailedPreconditionError(
        common::StrCat("frame: unknown type ", raw_type));
  }
  if (raw_length > kMaxFramePayload) {
    return common::FailedPreconditionError(
        common::StrCat("frame: payload length ", raw_length,
                       " exceeds limit (corrupt length prefix)"));
  }
  *type = static_cast<FrameType>(raw_type);
  *length = raw_length;
  *checksum = raw_checksum;
  return common::Status::Ok();
}

common::Status ReadFrame(int fd, Frame* frame, int timeout_ms) {
  char header[kFrameHeaderSize];
  // Distinguish clean close from a torn frame: probe the first byte,
  // then insist on the rest.
  if (!ReadFullTimeout(fd, header, 1, timeout_ms)) {
    return common::NotFoundError("frame: connection closed");
  }
  if (!ReadFullTimeout(fd, header + 1, kFrameHeaderSize - 1, timeout_ms)) {
    return common::FailedPreconditionError(
        "frame: torn header (peer died mid-frame or stalled)");
  }
  FrameType type;
  uint32_t length = 0;
  uint64_t checksum = 0;
  OODBSEC_RETURN_IF_ERROR(DecodeFrameHeader(
      std::string_view(header, kFrameHeaderSize), &type, &length, &checksum));
  std::string payload(length, '\0');
  if (length > 0 &&
      !ReadFullTimeout(fd, payload.data(), length, timeout_ms)) {
    return common::FailedPreconditionError(
        "frame: torn payload (peer died mid-frame or stalled)");
  }
  if (common::Fnv1a64(payload) != checksum) {
    return common::FailedPreconditionError(
        "frame: payload checksum mismatch (corrupt stream)");
  }
  frame->type = type;
  frame->payload = std::move(payload);
  return common::Status::Ok();
}

}  // namespace oodbsec::net
