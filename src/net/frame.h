// Length-prefixed binio frames: the unit of the shard wire protocol,
// whose connection also carries the snapshot store's find and save.
//
// A frame is a fixed 20-byte header followed by a binio payload:
//
//   u32 magic "ONF1" | u8 type | u8 pad[3] | u32 payload length
//   | u64 payload checksum (FNV-1a)
//
// Integers are host-endian, like every other encoding the repository
// owns (snapshot records included): a connection between machines of
// different endianness is *detected* at the hello handshake (the
// coordinator sends snapshot::kByteOrderMark) and refused with a
// specific diagnosis rather than mis-decoded. The snapshot record inside a store frame
// carries its own marker and is refused the same way.
//
// Robustness contract (net_test's FrameTest cases, its bad-stream tests
// on both ends of the connection and its seeded mutation test pin
// this): FrameReader, the one decoder the coordinator and the worker
// both run, never trusts a byte it has not validated and buffers only
// bytes it has received, never a declared length. Bad magic, an unknown
// type, an oversized length, a checksum mismatch, or EOF mid-frame all
// fail with kFailedPrecondition naming the defect; only a clean EOF
// *between* frames reports kNotFound ("connection closed"), which is
// how a peer's orderly shutdown is told apart from a death mid-message.
// The checksum covers the payload only, so a frame whose type or pad
// byte flipped still reads as valid: the payload decoders behind the
// reader refuse what it lets through.
//
// Writing uses the gather path: FrameQueue keeps each frame's header
// and payload in their own buffers and hands up to 32 frames to one
// send, so the coordinator streams report-sized payloads straight
// out of the ByteWriter buffers they were serialized into, and a
// worker's coalesced replies leave in one send.
#ifndef OODBSEC_NET_FRAME_H_
#define OODBSEC_NET_FRAME_H_

#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace oodbsec::net {

// Protocol version spoken by TcpTransport and ServeShardWorker; carried
// in every hello and bumped on any frame-layout or payload-schema
// change. v3: the store's find and save ride the shard connection, and
// the hello's u32 store port became a u8 "serves store frames" flag.
// The snapshot records inside store frames carry their own format
// version (snapshot/snapshot.h).
inline constexpr uint32_t kProtocolVersion = 3;

inline constexpr uint32_t kFrameMagic = 0x314f4e46;  // "FNO1" LE spells ONF1
// The largest payload a header may declare; a length above it is
// diagnosed as garbage. A declared length is never allocated: the
// reader buffers a payload as its bytes arrive.
inline constexpr uint32_t kMaxFramePayload = 1u << 30;
inline constexpr size_t kFrameHeaderSize = 4 + 1 + 3 + 4 + 8;

enum class FrameType : uint8_t {
  // Shard protocol (coordinator <-> worker).
  kHello = 1,       // coord -> worker: version, byte order, fingerprint
  kHelloAck = 2,    // worker -> coord: same fields + accept/refuse
  kBatch = 3,       // coord -> worker: one signature-coalesced batch
  kReports = 4,     // worker -> coord: the batch's reports
  kBatchError = 5,  // worker -> coord: earliest failure in the batch
  kDone = 6,        // coord -> worker: no more batches
  kStats = 7,       // worker -> coord: final ServiceStats, then close
  // The coordinator's snapshot store, on the same connection when the
  // hello offered it. 8, 9, 16 and 17 are retired and read as unknown.
  kStoreFind = 10,     // worker -> coord: roots
  kStoreFound = 11,    // coord -> worker: one snapshot record
  kStoreMiss = 12,     // coord -> worker: no record for the signature
  kStoreFail = 13,     // coord -> worker: status code + message
  kStoreSave = 14,     // worker -> coord: one snapshot record
  kStoreSaveAck = 15,  // coord -> worker: status code + message
};

struct Frame {
  FrameType type = FrameType::kHello;
  std::string payload;
};

// Renders the 20-byte header for a payload.
std::string EncodeFrameHeader(FrameType type, std::string_view payload);

// Validates a complete header already in memory and extracts (type,
// length, checksum). Returns kFailedPrecondition on garbage.
common::Status DecodeFrameHeader(std::string_view header, FrameType* type,
                                 uint32_t* length, uint64_t* checksum);

// One connection's incoming frames. Bytes enter through Fill, one read()
// at a time, and leave through Next as validated frames; the buffer
// holds what was received and not yet decoded, so its size follows the
// bytes on the wire, never a length a header declares.
class FrameReader {
 public:
  // Drops the frames Next already returned, then appends what one read()
  // on `fd` returns. Returns read()'s result: the bytes appended, 0 at
  // EOF, or -1 with errno set (EAGAIN when a nonblocking fd is empty).
  ssize_t Fill(int fd);

  // Decodes the next buffered frame. Ok with *complete false when the
  // buffer ends before a whole frame; kFailedPrecondition for a bad
  // header or a checksum mismatch. *payload views the buffer and is
  // valid until the next Fill.
  common::Status Next(FrameType* type, std::string_view* payload,
                      bool* complete);

  // Blocks for one frame: a buffered one, else Fill until one is whole.
  // Each wait for input lasts at most `timeout_ms` and checks `stop`,
  // when given, every 200ms. kNotFound on a clean EOF between frames
  // ("connection closed") or when `stop` went true ("stopped");
  // kFailedPrecondition for garbage, a torn frame, a checksum mismatch,
  // or a stall past `timeout_ms` (the message says which).
  common::Status Read(int fd, Frame* frame, int timeout_ms,
                      const std::atomic<bool>* stop = nullptr);

  // Bytes received past the last frame returned.
  size_t buffered() const { return buffer_.size() - pos_; }
  // Bytes the buffer holds room for: what the reader costs, which
  // follows the bytes received.
  size_t capacity() const { return buffer_.capacity(); }

 private:
  std::string buffer_;
  size_t pos_ = 0;  // first byte not yet returned as a frame
};

// One connection's outgoing frames, in order. A frame keeps its header
// and a shared payload, so a batch re-queued after a worker death goes
// out again from the bytes encoded once at planning.
class FrameQueue {
 public:
  // Queues a frame; a null payload is an empty one.
  void Push(FrameType type, std::shared_ptr<const std::string> payload);

  // Writes what `fd` accepts, up to 32 frames per gather send, until the
  // queue is empty or the send would block (EAGAIN on a nonblocking fd).
  // Adds the bytes written to *bytes and the frames written whole to
  // *frames. Returns false when the socket failed.
  bool Send(int fd, uint64_t* bytes, uint64_t* frames);

  // Sends until the queue is empty. Each poll for the socket to take
  // more lasts at most `timeout_ms`; on a blocking fd the send itself
  // waits until the socket takes what it is given.
  common::Status Flush(int fd, int timeout_ms);

  bool empty() const { return frames_.empty(); }
  size_t size() const { return frames_.size(); }
  // Bytes queued and not yet written.
  size_t bytes() const { return bytes_; }

 private:
  struct Pending {
    std::string header;
    std::shared_ptr<const std::string> payload;
    size_t offset = 0;  // bytes of header + payload already written
    size_t size() const {
      return header.size() + (payload ? payload->size() : 0);
    }
  };
  std::deque<Pending> frames_;
  size_t bytes_ = 0;
};

// Push and Flush over a queue of its own, the payload copied once: for
// the coordinator's hello and test peers. Blocking or nonblocking fd.
common::Status WriteFrame(int fd, FrameType type, std::string_view payload,
                          int timeout_ms);

}  // namespace oodbsec::net

#endif  // OODBSEC_NET_FRAME_H_
