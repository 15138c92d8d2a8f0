#include "net/frame.h"

#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "common/fnv.h"
#include "common/strings.h"
#include "net/socket.h"
#include "snapshot/binio.h"

namespace oodbsec::net {

namespace {

// Bytes one FrameReader::Fill asks read() for.
constexpr size_t kReadSize = 64 << 10;

// Frames one FrameQueue::Send gathers: enough that a worker's coalesced
// replies, one per batch in flight, leave in one send.
constexpr size_t kGather = 32;

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

// Waits until `fd` is readable for at most `timeout_ms`, checking `stop`
// every 200ms.
common::Status WaitForInput(int fd, int timeout_ms,
                            const std::atomic<bool>* stop) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (stop != nullptr && stop->load()) {
      return common::NotFoundError("frame: stopped");
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) {
      return common::FailedPreconditionError("frame: read timed out");
    }
    const int ready =
        WaitReadable(fd, static_cast<int>(std::min<decltype(left)>(left, 200)));
    if (ready > 0) return common::Status::Ok();
    if (ready < 0) {
      return common::FailedPreconditionError("frame: connection error");
    }
  }
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

ssize_t FrameReader::Fill(int fd) {
  if (pos_ > 0) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  char chunk[kReadSize];
  const ssize_t n = ::read(fd, chunk, sizeof chunk);
  if (n > 0) buffer_.append(chunk, static_cast<size_t>(n));
  return n;
}

common::Status FrameReader::Next(FrameType* type, std::string_view* payload,
                                 bool* complete) {
  *complete = false;
  if (buffered() < kFrameHeaderSize) return common::Status::Ok();
  const std::string_view rest = std::string_view(buffer_).substr(pos_);
  uint32_t length = 0;
  uint64_t checksum = 0;
  OODBSEC_RETURN_IF_ERROR(DecodeFrameHeader(rest, type, &length, &checksum));
  if (rest.size() - kFrameHeaderSize < length) return common::Status::Ok();
  const std::string_view body = rest.substr(kFrameHeaderSize, length);
  if (common::Fnv1a64(body) != checksum) {
    return common::FailedPreconditionError(
        "frame: payload checksum mismatch (corrupt stream)");
  }
  pos_ += kFrameHeaderSize + length;
  *payload = body;
  *complete = true;
  return common::Status::Ok();
}

common::Status FrameReader::Read(int fd, Frame* frame, int timeout_ms,
                                 const std::atomic<bool>* stop) {
  for (;;) {
    FrameType type;
    std::string_view payload;
    bool complete = false;
    OODBSEC_RETURN_IF_ERROR(Next(&type, &payload, &complete));
    if (complete) {
      frame->type = type;
      frame->payload.assign(payload);
      return common::Status::Ok();
    }
    OODBSEC_RETURN_IF_ERROR(WaitForInput(fd, timeout_ms, stop));
    const ssize_t n = Fill(fd);
    if (n > 0) continue;
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    if (n == 0 && buffered() == 0) {
      return common::NotFoundError("frame: connection closed");
    }
    return common::FailedPreconditionError(
        n == 0 ? "frame: torn frame (peer died mid-frame)"
               : "frame: read failed");
  }
}

void FrameQueue::Push(FrameType type,
                      std::shared_ptr<const std::string> payload) {
  Pending frame;
  frame.header = EncodeFrameHeader(
      type, payload ? std::string_view(*payload) : std::string_view());
  frame.payload = std::move(payload);
  bytes_ += frame.size();
  frames_.push_back(std::move(frame));
}

bool FrameQueue::Send(int fd, uint64_t* bytes, uint64_t* frames) {
  while (!frames_.empty()) {
    struct iovec iov[2 * kGather];
    int iovcnt = 0;
    size_t gathered = 0;
    for (const Pending& frame : frames_) {
      if (gathered++ == kGather) break;
      size_t off = frame.offset;
      if (off < frame.header.size()) {
        iov[iovcnt].iov_base = const_cast<char*>(frame.header.data()) + off;
        iov[iovcnt].iov_len = frame.header.size() - off;
        ++iovcnt;
        off = 0;
      } else {
        off -= frame.header.size();
      }
      if (frame.payload != nullptr && off < frame.payload->size()) {
        iov[iovcnt].iov_base = const_cast<char*>(frame.payload->data()) + off;
        iov[iovcnt].iov_len = frame.payload->size() - off;
        ++iovcnt;
      }
    }
    const ssize_t n = Sendv(fd, iov, iovcnt);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    *bytes += static_cast<uint64_t>(n);
    bytes_ -= static_cast<size_t>(n);
    size_t sent = static_cast<size_t>(n);
    while (sent > 0) {
      Pending& front = frames_.front();
      const size_t left = front.size() - front.offset;
      if (sent < left) {
        front.offset += sent;
        break;
      }
      sent -= left;
      frames_.pop_front();
      ++*frames;
    }
  }
  return true;
}

common::Status FrameQueue::Flush(int fd, int timeout_ms) {
  uint64_t bytes = 0;
  uint64_t frames = 0;
  for (;;) {
    if (!Send(fd, &bytes, &frames)) {
      return common::InternalError("frame: write failed");
    }
    if (frames_.empty()) return common::Status::Ok();
    if (WaitWritable(fd, timeout_ms) <= 0) {
      return common::InternalError("frame: write timed out");
    }
  }
}

common::Status WriteFrame(int fd, FrameType type, std::string_view payload,
                          int timeout_ms) {
  FrameQueue queue;
  queue.Push(type, std::make_shared<const std::string>(payload));
  return queue.Flush(fd, timeout_ms);
}

}  // namespace oodbsec::net
