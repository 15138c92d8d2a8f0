#include "net/socket.h"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/strings.h"

namespace oodbsec::net {

namespace {

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

// Polls `fd` for `events`; handles EINTR by re-polling with the time
// already spent deducted (coarsely: full timeout again is acceptable —
// the deadline is a liveness bound, not a precise budget).
int PollOne(int fd, short events, int timeout_ms) {
  struct pollfd pfd = {fd, events, 0};
  for (;;) {
    int n = ::poll(&pfd, 1, timeout_ms);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return n;  // timeout or error
    if (pfd.revents & (POLLERR | POLLNVAL)) return -1;
    return 1;
  }
}

// One connect with a poll()-bounded wait; the socket comes back in
// blocking mode. Empty message on success.
std::string ConnectOnce(int fd, const struct sockaddr* addr,
                        socklen_t addrlen, int timeout_ms) {
  SetNonBlocking(fd, true);
  int rc = ::connect(fd, addr, addrlen);
  if (rc != 0 && errno != EINPROGRESS) {
    return std::strerror(errno);
  }
  if (rc != 0) {
    if (PollOne(fd, POLLOUT, timeout_ms) <= 0) return "connect timed out";
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      return std::strerror(err != 0 ? err : errno);
    }
  }
  SetNonBlocking(fd, false);
  return {};
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int Socket::Release() {
  int fd = fd_;
  fd_ = -1;
  return fd;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void SetNonBlocking(int fd, bool nonblocking) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return;
  if (nonblocking) {
    flags |= O_NONBLOCK;
  } else {
    flags &= ~O_NONBLOCK;
  }
  ::fcntl(fd, F_SETFL, flags);
}

common::Result<Socket> Dial(const std::string& host_port,
                            const DialOptions& options) {
  size_t colon = host_port.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == host_port.size()) {
    return common::InvalidArgumentError(
        common::StrCat("dial ", host_port, ": expected host:port"));
  }
  std::string host = host_port.substr(0, colon);
  std::string port = host_port.substr(colon + 1);

  struct addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* resolved = nullptr;
  int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &resolved);
  if (rc != 0) {
    return common::NotFoundError(
        common::StrCat("dial ", host_port, ": ", ::gai_strerror(rc)));
  }

  std::string last_error = "no addresses";
  int attempts = options.attempts < 1 ? 1 : options.attempts;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0 && options.retry_backoff_ms > 0) {
      struct timespec backoff = {options.retry_backoff_ms / 1000,
                                 (options.retry_backoff_ms % 1000) * 1000000L};
      ::nanosleep(&backoff, nullptr);
    }
    for (struct addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
      Socket socket(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
      if (!socket.valid()) {
        last_error = std::strerror(errno);
        continue;
      }
      std::string error = ConnectOnce(socket.fd(), ai->ai_addr,
                                      static_cast<socklen_t>(ai->ai_addrlen),
                                      options.connect_timeout_ms);
      if (error.empty()) {
        SetNoDelay(socket.fd());
        ::freeaddrinfo(resolved);
        return socket;
      }
      last_error = std::move(error);
    }
  }
  ::freeaddrinfo(resolved);
  return common::InternalError(common::StrCat(
      "dial ", host_port, ": ", last_error, " (", attempts, " attempt(s))"));
}

common::Result<Listener> Listener::Bind(uint16_t port, bool loopback_only) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) {
    return common::InternalError(
        common::StrCat("listen: socket(): ", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  if (::bind(socket.fd(), reinterpret_cast<struct sockaddr*>(&addr),
             sizeof addr) != 0) {
    return common::InternalError(
        common::StrCat("listen: bind(", port, "): ", std::strerror(errno)));
  }
  if (::listen(socket.fd(), 64) != 0) {
    return common::InternalError(
        common::StrCat("listen(", port, "): ", std::strerror(errno)));
  }
  struct sockaddr_in bound = {};
  socklen_t len = sizeof bound;
  if (::getsockname(socket.fd(), reinterpret_cast<struct sockaddr*>(&bound),
                    &len) != 0) {
    return common::InternalError(
        common::StrCat("listen: getsockname(): ", std::strerror(errno)));
  }
  Listener listener;
  listener.socket_ = std::move(socket);
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

common::Result<Socket> Listener::Accept(int timeout_ms) {
  int ready = PollOne(socket_.fd(), POLLIN, timeout_ms);
  if (ready == 0) {
    return common::FailedPreconditionError("accept: timed out");
  }
  if (ready < 0) {
    return common::InternalError("accept: listener poll failed");
  }
  for (;;) {
    int fd = ::accept(socket_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return common::InternalError(
          common::StrCat("accept: ", std::strerror(errno)));
    }
    SetNoDelay(fd);
    return Socket(fd);
  }
}

ssize_t Sendv(int fd, const struct iovec* iov, int iovcnt) {
  struct msghdr msg = {};
  msg.msg_iov = const_cast<struct iovec*>(iov);
  msg.msg_iovlen = static_cast<size_t>(iovcnt);
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

int WaitReadable(int fd, int timeout_ms) {
  return PollOne(fd, POLLIN, timeout_ms);
}

int WaitWritable(int fd, int timeout_ms) {
  return PollOne(fd, POLLOUT, timeout_ms);
}

}  // namespace oodbsec::net
