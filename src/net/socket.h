// TCP plumbing for the distributed audit: RAII sockets, bounded-retry
// dialing, ephemeral-port listeners, one gather send, and poll()-bounded
// waits.
//
// Everything here is deliberately thin POSIX — no event library, no
// buffering policy (that lives in net/frame.h's FrameReader and
// FrameQueue). Two properties matter and are owned here:
//
//   * Bounded blocking. Every operation that can stall on a peer takes
//     a timeout in milliseconds (poll()-bounded); a hung worker shows
//     up as a timed-out call, never as a wedged coordinator. The
//     worker's accept loop uses a short timeout so its stop flag is
//     honoured.
//   * No SIGPIPE. Every write here is a send with MSG_NOSIGNAL, so a
//     peer that died (a killed worker, a coordinator gone mid-reply)
//     surfaces as a failed call the caller re-queues or drops, never
//     as a signal that kills the writing process. The helpers are for
//     sockets only.
//
// Dialing retries transient failures (ECONNREFUSED while a worker is
// still binding, timeouts) with a bounded attempt count and backoff —
// the "bounded retry" half of the transport's robustness contract; the
// other half (re-queuing a dead worker's batches) lives in
// service/tcp_shard.cc.
#ifndef OODBSEC_NET_SOCKET_H_
#define OODBSEC_NET_SOCKET_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"

struct iovec;  // <sys/uio.h>

namespace oodbsec::net {

// A close-on-destruct fd. Movable, not copyable.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  // Hands ownership to the caller.
  int Release();
  void Close();

 private:
  int fd_ = -1;
};

struct DialOptions {
  int connect_timeout_ms = 5000;
  // Total connect attempts (>= 1); transient failures back off between
  // attempts.
  int attempts = 3;
  int retry_backoff_ms = 100;
};

// Connects to "host:port" (host: dotted quad or name resolvable by
// getaddrinfo). TCP_NODELAY is set — the shard protocol is
// latency-sensitive small frames interleaved with bulk payloads, and
// the pipelined coordinator does its own batching.
common::Result<Socket> Dial(const std::string& host_port,
                            const DialOptions& options = {});

// A listening TCP socket. port 0 binds an ephemeral port; port() then
// reports what the kernel picked (how tests and benches build loopback
// fleets without port coordination).
class Listener {
 public:
  static common::Result<Listener> Bind(uint16_t port,
                                       bool loopback_only = true);
  Listener() = default;
  Listener(Listener&&) = default;
  Listener& operator=(Listener&&) = default;

  uint16_t port() const { return port_; }
  bool valid() const { return socket_.valid(); }
  int fd() const { return socket_.fd(); }

  // Accepts one connection (TCP_NODELAY set). kFailedPrecondition with
  // message "accept: timed out" on timeout — callers loop and check
  // their stop flag between attempts.
  common::Result<Socket> Accept(int timeout_ms);

 private:
  Socket socket_;
  uint16_t port_ = 0;
};

// One gather send with MSG_NOSIGNAL: sendmsg's result and errno (EPIPE
// or ECONNRESET for a dead peer, EAGAIN when a nonblocking socket is
// full). FrameQueue writes every frame with it.
ssize_t Sendv(int fd, const struct iovec* iov, int iovcnt);

// Single polls for readability and writability. >0 ready, 0 timeout,
// <0 error.
int WaitReadable(int fd, int timeout_ms);
int WaitWritable(int fd, int timeout_ms);

void SetNonBlocking(int fd, bool nonblocking);

}  // namespace oodbsec::net

#endif  // OODBSEC_NET_SOCKET_H_
