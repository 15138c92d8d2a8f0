#include "service/tcp_shard.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/strings.h"
#include "core/analyzer.h"
#include "core/requirement.h"
#include "net/frame.h"
#include "obs/trace.h"
#include "service/capability_signature.h"
#include "service/shard_wire.h"
#include "snapshot/binio.h"
#include "snapshot/snapshot.h"

namespace oodbsec::service {

namespace {

using net::Frame;
using net::FrameType;
using snapshot::ByteReader;
using snapshot::ByteWriter;
using Clock = std::chrono::steady_clock;

struct Failure {
  size_t global_index;
  common::Status status;
};

void NoteFailure(std::optional<Failure>& worst, size_t global_index,
                 common::Status status) {
  if (!worst.has_value() || global_index < worst->global_index) {
    worst = Failure{global_index, std::move(status)};
  }
}

// --- hello handshake -------------------------------------------------
//
//   coord -> worker  u32 version, u32 byte-order mark, u64 schema
//                    fingerprint, u32 store port (0 = none),
//                    u8 save_snapshots
//   worker -> coord  u8 accept, string refusal message

struct HelloRequest {
  uint32_t version = 0;
  uint32_t byte_order = 0;
  uint64_t fingerprint = 0;
  uint32_t store_port = 0;
  bool save_snapshots = false;
};

std::string EncodeHello(const HelloRequest& hello) {
  ByteWriter w;
  w.PutU32(hello.version);
  w.PutU32(hello.byte_order);
  w.PutU64(hello.fingerprint);
  w.PutU32(hello.store_port);
  w.PutU8(hello.save_snapshots ? 1 : 0);
  return w.Release();
}

bool DecodeHello(std::string_view payload, HelloRequest* hello) {
  ByteReader r(payload);
  hello->version = r.GetU32();
  hello->byte_order = r.GetU32();
  hello->fingerprint = r.GetU64();
  hello->store_port = r.GetU32();
  hello->save_snapshots = r.GetU8() != 0;
  return r.exhausted();
}

std::string PeerHost(int fd) {
  struct sockaddr_storage ss = {};
  socklen_t len = sizeof ss;
  if (::getpeername(fd, reinterpret_cast<struct sockaddr*>(&ss), &len) != 0) {
    return "127.0.0.1";
  }
  char buf[INET6_ADDRSTRLEN] = {};
  if (ss.ss_family == AF_INET) {
    ::inet_ntop(AF_INET,
                &reinterpret_cast<struct sockaddr_in*>(&ss)->sin_addr, buf,
                sizeof buf);
  } else if (ss.ss_family == AF_INET6) {
    ::inet_ntop(AF_INET6,
                &reinterpret_cast<struct sockaddr_in6*>(&ss)->sin6_addr, buf,
                sizeof buf);
  } else {
    return "127.0.0.1";
  }
  return buf;
}

// --- coordinator -----------------------------------------------------

// One signature-coalesced batch. The payload is encoded exactly once
// (at planning) and shared by reference into the outbox, so a requeue
// after a worker death re-sends the same bytes without re-serializing.
struct Batch {
  std::vector<size_t> indices;  // global input positions, input order
  std::shared_ptr<const std::string> payload;
};

// A frame staged for a gather send: header and payload stay in their
// own buffers; `offset` tracks partial progress across both.
struct PendingFrame {
  std::string header;
  std::shared_ptr<const std::string> payload;
  size_t size() const {
    return header.size() + (payload ? payload->size() : 0);
  }
  size_t offset = 0;
};

struct WorkerConn {
  std::string address;
  net::Socket sock;
  bool alive = false;
  std::deque<size_t> queue;    // batch ids waiting to be sent
  std::deque<PendingFrame> outbox;
  std::deque<size_t> unacked;  // batch ids sent, reports pending
  std::string inbox;
  bool done_enqueued = false;
  bool stats_received = false;
  ServiceStats stats;
  size_t acked_requirements = 0;
  Clock::time_point last_progress;

  size_t load() const {
    return queue.size() + unacked.size() + outbox.size();
  }
  bool pending_work() const {
    return !queue.empty() || !outbox.empty() || !unacked.empty() ||
           (done_enqueued && !stats_received);
  }
};

void EnqueueFrame(WorkerConn& w, FrameType type,
                  std::shared_ptr<const std::string> payload) {
  PendingFrame frame;
  frame.header = net::EncodeFrameHeader(
      type, payload ? std::string_view(*payload) : std::string_view());
  frame.payload = std::move(payload);
  w.outbox.push_back(std::move(frame));
}

// Drains as much of the outbox as the socket accepts, 7 frames per
// gather send. Returns false when the socket is dead.
bool DrainOutbox(WorkerConn& w, uint64_t* bytes_out) {
  while (!w.outbox.empty()) {
    struct iovec iov[16];
    int iovcnt = 0;
    for (const PendingFrame& frame : w.outbox) {
      if (iovcnt >= 14) break;
      size_t off = frame.offset;
      if (off < frame.header.size()) {
        iov[iovcnt].iov_base =
            const_cast<char*>(frame.header.data()) + off;
        iov[iovcnt].iov_len = frame.header.size() - off;
        ++iovcnt;
        off = 0;
      } else {
        off -= frame.header.size();
      }
      if (frame.payload != nullptr && off < frame.payload->size()) {
        iov[iovcnt].iov_base =
            const_cast<char*>(frame.payload->data()) + off;
        iov[iovcnt].iov_len = frame.payload->size() - off;
        ++iovcnt;
      }
    }
    ssize_t n = net::Sendv(w.sock.fd(), iov, iovcnt);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    *bytes_out += static_cast<uint64_t>(n);
    w.last_progress = Clock::now();
    size_t remaining = static_cast<size_t>(n);
    while (remaining > 0 && !w.outbox.empty()) {
      PendingFrame& front = w.outbox.front();
      size_t left = front.size() - front.offset;
      if (remaining >= left) {
        remaining -= left;
        w.outbox.pop_front();
      } else {
        front.offset += remaining;
        remaining = 0;
      }
    }
  }
  return true;
}

struct CoordinatorState {
  const std::vector<core::Requirement>* requirements = nullptr;
  std::vector<Batch>* batches = nullptr;
  std::vector<std::optional<core::AnalysisReport>>* assembled = nullptr;
  std::optional<Failure>* failure = nullptr;
  size_t acked_batches = 0;
};

// Handles one complete, checksum-verified frame from `w`. Returns
// false when the worker broke protocol (treated as a death).
bool HandleWorkerFrame(WorkerConn& w, FrameType type,
                       std::string_view payload, CoordinatorState& state) {
  auto ack = [&](uint32_t batch_id) {
    for (auto it = w.unacked.begin(); it != w.unacked.end(); ++it) {
      if (*it == batch_id) {
        w.unacked.erase(it);
        ++state.acked_batches;
        return true;
      }
    }
    return false;
  };
  switch (type) {
    case FrameType::kReports: {
      ByteReader r(payload);
      uint32_t batch_id = r.GetU32();
      uint32_t count = r.GetU32();
      if (!r.ok() || batch_id >= state.batches->size()) return false;
      const Batch& batch = (*state.batches)[batch_id];
      if (count != batch.indices.size()) return false;
      const size_t n = state.requirements->size();
      for (uint32_t k = 0; k < count; ++k) {
        uint32_t gi = 0;
        core::AnalysisReport report;
        if (!wire::GetReport(r, &gi, &report) || gi >= n ||
            (*state.assembled)[gi].has_value()) {
          return false;
        }
        report.requirement = (*state.requirements)[gi];
        (*state.assembled)[gi] = std::move(report);
      }
      if (!r.exhausted() || !ack(batch_id)) return false;
      w.acked_requirements += count;
      return true;
    }
    case FrameType::kBatchError: {
      ByteReader r(payload);
      uint32_t batch_id = r.GetU32();
      uint32_t gi = r.GetU32();
      auto code = static_cast<common::StatusCode>(r.GetU8());
      std::string message = r.GetString();
      if (!r.ok() || !r.exhausted() || batch_id >= state.batches->size() ||
          gi >= state.requirements->size()) {
        return false;
      }
      if (!ack(batch_id)) return false;
      w.acked_requirements += (*state.batches)[batch_id].indices.size();
      NoteFailure(*state.failure, gi,
                  common::Status(code, std::move(message)));
      return true;
    }
    case FrameType::kStats: {
      ByteReader r(payload);
      w.stats = wire::GetStats(r);
      if (!r.exhausted()) return false;
      w.stats_received = true;
      return true;
    }
    default:
      return false;
  }
}

// Reads everything the socket has, reassembles frames from the inbox,
// dispatches them. Returns false when the worker died (EOF before its
// kStats frame, error, torn or garbage frame, protocol violation).
bool DrainInbox(WorkerConn& w, CoordinatorState& state, uint64_t* bytes_in,
                uint64_t* frames_in) {
  bool saw_eof = false;
  for (;;) {
    char buf[64 << 10];
    ssize_t n = ::read(w.sock.fd(), buf, sizeof buf);
    if (n > 0) {
      w.inbox.append(buf, static_cast<size_t>(n));
      *bytes_in += static_cast<uint64_t>(n);
      w.last_progress = Clock::now();
      continue;
    }
    if (n == 0) {
      saw_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    saw_eof = true;  // hard error: same treatment as a hangup
    break;
  }
  size_t pos = 0;
  bool ok = true;
  while (w.inbox.size() - pos >= net::kFrameHeaderSize) {
    FrameType type;
    uint32_t length = 0;
    uint64_t checksum = 0;
    if (!net::DecodeFrameHeader(
             std::string_view(w.inbox.data() + pos, net::kFrameHeaderSize),
             &type, &length, &checksum)
             .ok()) {
      ok = false;
      break;
    }
    if (w.inbox.size() - pos < net::kFrameHeaderSize + length) break;
    std::string_view payload(w.inbox.data() + pos + net::kFrameHeaderSize,
                             length);
    if (snapshot::Fnv1a64(payload) != checksum ||
        !HandleWorkerFrame(w, type, payload, state)) {
      ok = false;
      break;
    }
    ++*frames_in;
    pos += net::kFrameHeaderSize + length;
  }
  w.inbox.erase(0, pos);
  // A hangup after the kStats frame is the worker's clean goodbye.
  return ok && (!saw_eof || w.stats_received);
}

}  // namespace

TcpTransport::TcpTransport(TcpTransportOptions options)
    : options_(std::move(options)) {}

TcpTransport::~TcpTransport() { store_server_.Stop(); }

common::Result<ShardedBatchResult> TcpTransport::Run(
    const schema::Schema& schema, const schema::UserRegistry& users,
    const std::vector<core::Requirement>& requirements,
    obs::Observability* obs) {
  if (options_.workers.empty()) {
    return common::InvalidArgumentError("tcp shard: no workers configured");
  }
  const int in_flight_cap =
      options_.max_in_flight < 1 ? 1 : options_.max_in_flight;
  const size_t batch_cap = options_.max_batch_requirements < 1
                               ? 1
                               : static_cast<size_t>(
                                     options_.max_batch_requirements);
  const size_t n = requirements.size();
  obs::Tracer* tracer = obs != nullptr ? &obs->tracer : nullptr;
  obs::ScopedSpan batch_span(tracer, "tcp.batch");

  // The networked snapshot tier: front the coordinator's store once,
  // advertise the port in every hello.
  if (options_.snapshot_store != nullptr && options_.serve_snapshot_store &&
      !store_server_started_) {
    common::Status started = store_server_.Start(
        schema, options_.closure, options_.snapshot_store, /*port=*/0);
    if (!started.ok()) return started;
    store_server_started_ = true;
  }

  // Plan: resolve every requirement to roots, coalesce by signature
  // (first-appearance order), chunk at the cap. Unknown users become
  // failure candidates at their input position, exactly as CheckBatch
  // surfaces them.
  std::vector<Batch> batches;
  std::vector<size_t> batch_target;  // initial worker index per batch
  std::optional<Failure> failure;
  {
    obs::ScopedSpan plan_span(tracer, "tcp.plan");
    struct Group {
      std::vector<std::string> roots;
      std::string signature;
      std::vector<size_t> indices;
    };
    std::vector<Group> groups;
    std::unordered_map<std::string, size_t> group_of;
    for (size_t i = 0; i < n; ++i) {
      const schema::User* user = users.Find(requirements[i].user);
      if (user == nullptr) {
        NoteFailure(failure, i,
                    common::NotFoundError(common::StrCat(
                        "unknown user '", requirements[i].user, "'")));
        continue;
      }
      std::vector<std::string> roots = core::AnalysisRoots(schema, *user);
      std::string signature = SignatureFromRoots(roots, options_.closure);
      auto [it, inserted] = group_of.emplace(signature, groups.size());
      if (inserted) {
        groups.push_back(Group{std::move(roots), signature, {}});
      }
      groups[it->second].indices.push_back(i);
    }
    // Each signature goes to its ShardOf worker (a pure function of the
    // signature, so persistent worker caches stay warm from run to run)
    // unless that worker already holds its fair share of the
    // requirements; then it goes to the least-loaded worker. A handful
    // of signatures, which ShardOf alone splits like coin flips, still
    // spreads evenly, and an unchanged population plans identically.
    const size_t worker_count = options_.workers.size();
    size_t planned = 0;
    for (const Group& group : groups) planned += group.indices.size();
    const size_t fair_share = (planned + worker_count - 1) / worker_count;
    std::vector<size_t> load(worker_count, 0);
    for (const Group& group : groups) {
      size_t target = static_cast<size_t>(
          ShardOf(group.signature, static_cast<int>(worker_count)));
      if (load[target] != 0 &&
          load[target] + group.indices.size() > fair_share) {
        for (size_t wi = 0; wi < worker_count; ++wi) {
          if (load[wi] < load[target]) target = wi;
        }
      }
      load[target] += group.indices.size();
      for (size_t begin = 0; begin < group.indices.size();
           begin += batch_cap) {
        const size_t end =
            std::min(begin + batch_cap, group.indices.size());
        Batch batch;
        batch.indices.assign(group.indices.begin() + begin,
                             group.indices.begin() + end);
        ByteWriter p;
        p.PutU32(static_cast<uint32_t>(batches.size()));
        p.PutU32(static_cast<uint32_t>(group.roots.size()));
        for (const std::string& root : group.roots) p.PutString(root);
        p.PutU32(static_cast<uint32_t>(batch.indices.size()));
        for (size_t gi : batch.indices) {
          p.PutU32(static_cast<uint32_t>(gi));
          p.PutString(requirements[gi].ToString());
        }
        batch.payload = std::make_shared<const std::string>(p.Release());
        batches.push_back(std::move(batch));
        batch_target.push_back(target);
      }
    }
  }

  ShardedBatchResult result;
  result.shard_stats.resize(options_.workers.size());
  result.shard_requirements.resize(options_.workers.size());
  if (batches.empty()) {
    if (failure.has_value()) return std::move(failure->status);
    return result;
  }

  // Dial + hello, blocking per worker. A failed dial marks the worker
  // dead from the start (its batches route to survivors); a *refused*
  // hello is a configuration error and fails the run — a version or
  // fingerprint mismatch will not heal by retrying.
  HelloRequest hello;
  hello.version = net::kProtocolVersion;
  hello.byte_order = snapshot::kByteOrderMark;
  hello.fingerprint = snapshot::SchemaFingerprint(schema, options_.closure);
  hello.store_port = store_server_started_ ? store_server_.port() : 0;
  hello.save_snapshots = options_.save_snapshots;
  const std::string hello_payload = EncodeHello(hello);

  std::vector<WorkerConn> workers(options_.workers.size());
  size_t alive_count = 0;
  for (size_t wi = 0; wi < workers.size(); ++wi) {
    WorkerConn& w = workers[wi];
    w.address = options_.workers[wi];
    auto dialed = net::Dial(w.address, options_.dial);
    if (!dialed.ok()) {
      if (obs != nullptr) {
        obs->metrics.counter("net.dial_failures")->Increment();
      }
      continue;
    }
    w.sock = std::move(dialed).value();
    if (!net::WriteFrame(w.sock.fd(), FrameType::kHello, hello_payload,
                         options_.io_timeout_ms)
             .ok()) {
      w.sock.Close();
      continue;
    }
    Frame ack;
    if (!net::ReadFrame(w.sock.fd(), &ack, options_.io_timeout_ms).ok() ||
        ack.type != FrameType::kHelloAck) {
      w.sock.Close();
      continue;
    }
    ByteReader r(ack.payload);
    uint8_t accepted = r.GetU8();
    std::string message = r.GetString();
    if (!r.ok() || !r.exhausted()) {
      w.sock.Close();
      continue;
    }
    if (accepted == 0) {
      return common::FailedPreconditionError(common::StrCat(
          "tcp shard: worker ", w.address, " refused: ", message));
    }
    net::SetNonBlocking(w.sock.fd(), true);
    w.alive = true;
    w.last_progress = Clock::now();
    ++alive_count;
    if (obs != nullptr) obs->metrics.counter("shard.workers")->Increment();
  }
  if (alive_count == 0) {
    return common::InternalError(
        "tcp shard: no worker could be dialed");
  }

  // Route each batch to its signature's worker, spilling batches whose
  // target never connected to the least-loaded survivor.
  for (size_t b = 0; b < batches.size(); ++b) {
    WorkerConn* target = &workers[batch_target[b]];
    if (!target->alive) {
      target = nullptr;
      for (WorkerConn& w : workers) {
        if (w.alive && (target == nullptr || w.load() < target->load())) {
          target = &w;
        }
      }
    }
    target->queue.push_back(b);
  }

  std::vector<std::optional<core::AnalysisReport>> assembled(n);
  CoordinatorState state;
  state.requirements = &requirements;
  state.batches = &batches;
  state.assembled = &assembled;
  state.failure = &failure;

  uint64_t bytes_in = 0, bytes_out = 0, frames_in = 0, frames_out = 0;
  uint64_t requeues = 0, worker_deaths = 0;
  obs::Histogram* in_flight_hist =
      obs != nullptr ? obs->metrics.histogram("net.in_flight") : nullptr;

  common::Status fatal = common::Status::Ok();
  auto kill_worker = [&](WorkerConn& w, std::string_view reason) {
    if (!w.alive) return;
    w.alive = false;
    w.sock.Close();
    ++worker_deaths;
    std::vector<size_t> orphaned(w.unacked.begin(), w.unacked.end());
    orphaned.insert(orphaned.end(), w.queue.begin(), w.queue.end());
    w.unacked.clear();
    w.queue.clear();
    w.outbox.clear();
    WorkerConn* survivor = nullptr;
    for (WorkerConn& other : workers) {
      if (other.alive &&
          (survivor == nullptr || other.load() < survivor->load())) {
        survivor = &other;
      }
    }
    if (survivor == nullptr) {
      if (!orphaned.empty()) {
        fatal = common::InternalError(common::StrCat(
            "tcp shard: all workers died (last: ", w.address, ": ", reason,
            ")"));
      }
      return;
    }
    // Unacked batches were never reported (an ack requires a complete
    // validated frame), so replaying them on a survivor cannot
    // double-apply; cold-only worker builds keep the report bytes
    // identical to the original routing.
    for (size_t b : orphaned) survivor->queue.push_back(b);
    requeues += orphaned.size();
  };

  while (fatal.ok()) {
    const bool all_acked = state.acked_batches == batches.size();
    if (all_acked) {
      bool pending = false;
      for (WorkerConn& w : workers) {
        if (!w.alive) continue;
        if (!w.done_enqueued) {
          EnqueueFrame(w, FrameType::kDone, nullptr);
          w.done_enqueued = true;
        }
        if (!w.stats_received || !w.outbox.empty()) pending = true;
      }
      if (!pending) break;
    } else {
      for (WorkerConn& w : workers) {
        if (!w.alive) continue;
        while (!w.queue.empty() &&
               static_cast<int>(w.unacked.size()) < in_flight_cap) {
          size_t b = w.queue.front();
          w.queue.pop_front();
          EnqueueFrame(w, FrameType::kBatch, batches[b].payload);
          w.unacked.push_back(b);
          ++frames_out;
          if (in_flight_hist != nullptr) {
            in_flight_hist->Record(w.unacked.size());
          }
        }
      }
    }

    std::vector<struct pollfd> pfds;
    std::vector<size_t> pfd_worker;
    for (size_t wi = 0; wi < workers.size(); ++wi) {
      WorkerConn& w = workers[wi];
      if (!w.alive || !w.pending_work()) continue;
      short events = POLLIN;
      if (!w.outbox.empty()) events |= POLLOUT;
      pfds.push_back({w.sock.fd(), events, 0});
      pfd_worker.push_back(wi);
    }
    if (pfds.empty()) {
      if (!all_acked && fatal.ok()) {
        fatal = common::InternalError(
            "tcp shard: no live workers with batches outstanding");
      }
      break;
    }

    int ready = ::poll(pfds.data(), pfds.size(), 100);
    if (ready < 0 && errno != EINTR) {
      fatal = common::InternalError(
          common::StrCat("tcp shard: poll: ", std::strerror(errno)));
      break;
    }
    for (size_t p = 0; p < pfds.size(); ++p) {
      WorkerConn& w = workers[pfd_worker[p]];
      if (!w.alive) continue;
      short revents = pfds[p].revents;
      if (revents & (POLLERR | POLLNVAL)) {
        kill_worker(w, "socket error");
        continue;
      }
      if (revents & (POLLIN | POLLHUP)) {
        if (!DrainInbox(w, state, &bytes_in, &frames_in)) {
          kill_worker(w, "connection closed or corrupt stream");
          continue;
        }
      }
      if (revents & POLLOUT) {
        if (!DrainOutbox(w, &bytes_out)) {
          kill_worker(w, "write failed");
          continue;
        }
      }
    }
    const Clock::time_point now = Clock::now();
    for (WorkerConn& w : workers) {
      if (w.alive && w.pending_work() &&
          now - w.last_progress >
              std::chrono::milliseconds(options_.io_timeout_ms)) {
        kill_worker(w, "no progress before timeout");
      }
    }
  }

  if (obs != nullptr) {
    obs->metrics.counter("net.bytes_sent")->Increment(bytes_out);
    obs->metrics.counter("net.bytes_received")->Increment(bytes_in);
    obs->metrics.counter("net.frames_sent")->Increment(frames_out);
    obs->metrics.counter("net.frames_received")->Increment(frames_in);
    obs->metrics.counter("net.requeues")->Increment(requeues);
    obs->metrics.counter("net.worker_deaths")->Increment(worker_deaths);
    obs->metrics.counter("shard.reports")
        ->Increment(static_cast<uint64_t>(state.acked_batches));
  }
  if (!fatal.ok()) return fatal;

  for (size_t wi = 0; wi < workers.size(); ++wi) {
    result.shard_stats[wi] = workers[wi].stats;
    result.shard_requirements[wi] = workers[wi].acked_requirements;
    result.merged_stats.closures_built += workers[wi].stats.closures_built;
    result.merged_stats.signature_hits += workers[wi].stats.signature_hits;
    result.merged_stats.requirement_hits +=
        workers[wi].stats.requirement_hits;
    result.merged_stats.checks += workers[wi].stats.checks;
    result.merged_stats.warm_starts += workers[wi].stats.warm_starts;
    result.merged_stats.snapshot_hits += workers[wi].stats.snapshot_hits;
  }
  if (failure.has_value()) {
    return std::move(failure->status);
  }
  result.reports.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!assembled[i].has_value()) {
      return common::InternalError(common::StrCat(
          "tcp shard merge lost requirement ", i, " ('",
          requirements[i].user, "')"));
    }
    result.reports.push_back(std::move(*assembled[i]));
  }
  return result;
}

// --- worker ----------------------------------------------------------

namespace {

// Waits until `fd` is readable, re-checking `stop` every 200ms, up to
// `timeout_ms` total. 1 readable, 0 stopped, -1 timeout/error.
int WaitReadableOrStop(int fd, int timeout_ms,
                       const std::atomic<bool>* stop) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (stop != nullptr && stop->load()) return 0;
    int ready = net::WaitReadable(fd, 200);
    if (ready > 0) return 1;
    if (ready < 0) return -1;
    if (Clock::now() >= deadline) return -1;
  }
}

// Buffered frame reader for the worker's batch loop. One read() pulls
// everything the coordinator has streamed ahead, so a pipelined stream
// costs one syscall per buffer-full of frames instead of the several
// poll/read calls net::ReadFrame pays per frame — the worker-side half
// of what makes max_in_flight > 1 collapse to back-to-back batches.
// Same validation contract as ReadFrame: kNotFound on a clean EOF
// between frames, kFailedPrecondition for garbage, torn frames,
// checksum mismatches, or a stall past timeout_ms.
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  // `*stopped` is set (and kOk-with-no-frame returned as kNotFound
  // "stopped") when `stop` went true while waiting.
  common::Status Next(Frame* frame, int timeout_ms,
                      const std::atomic<bool>* stop, bool* stopped) {
    *stopped = false;
    for (;;) {
      // Serve from the buffer when a complete frame is already in it.
      if (buffer_.size() - pos_ >= net::kFrameHeaderSize) {
        FrameType type;
        uint32_t length = 0;
        uint64_t checksum = 0;
        OODBSEC_RETURN_IF_ERROR(net::DecodeFrameHeader(
            std::string_view(buffer_.data() + pos_, net::kFrameHeaderSize),
            &type, &length, &checksum));
        if (buffer_.size() - pos_ >= net::kFrameHeaderSize + length) {
          std::string_view payload(
              buffer_.data() + pos_ + net::kFrameHeaderSize, length);
          if (snapshot::Fnv1a64(payload) != checksum) {
            return common::FailedPreconditionError(
                "frame: payload checksum mismatch");
          }
          frame->type = type;
          frame->payload.assign(payload);
          pos_ += net::kFrameHeaderSize + length;
          if (pos_ == buffer_.size()) {
            buffer_.clear();
            pos_ = 0;
          }
          return common::Status::Ok();
        }
      }
      int ready = WaitReadableOrStop(fd_, timeout_ms, stop);
      if (ready == 0) {
        *stopped = true;
        return common::NotFoundError("frame: stopped");
      }
      if (ready != 1) {
        return common::FailedPreconditionError("frame: read timed out");
      }
      char buf[64 << 10];
      ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n > 0) {
        if (pos_ > 0 && pos_ == buffer_.size()) {
          buffer_.clear();
          pos_ = 0;
        }
        buffer_.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      if (n == 0 && buffer_.size() == pos_) {
        return common::NotFoundError("frame: connection closed");
      }
      return common::FailedPreconditionError(
          n == 0 ? "frame: torn frame (EOF mid-frame)"
                 : "frame: read failed");
    }
  }

  // True when the buffer already holds (at least the start of) another
  // frame — the reply to the frame just served can be batched with the
  // next one's instead of paying its own write syscall.
  bool more_buffered() const { return buffer_.size() > pos_; }

 private:
  int fd_;
  std::string buffer_;
  size_t pos_ = 0;
};

// Per-connection audit state living across batches; the cache (and its
// mounted store) can outlive connections — see ServeShardWorker.
struct WorkerAudit {
  core::ClosureCache* cache = nullptr;
  bool save_snapshots = false;
  ServiceStats stats;
};

// Processes one kBatch payload into a kReports/kBatchError reply.
// Cold-only discipline: a cache miss is built with no warm base and no
// retraction, so the derivation log — and with it every report byte —
// matches what a fresh single-process CheckBatch would have produced,
// regardless of routing, requeues, or what this worker built before.
common::Status ProcessBatch(std::string_view payload, WorkerAudit& audit,
                            FrameType* reply_type, std::string* reply) {
  ByteReader r(payload);
  const uint32_t batch_id = r.GetU32();
  std::vector<std::string> roots;
  const uint32_t root_count = r.GetU32();
  for (uint32_t i = 0; i < root_count && r.ok(); ++i) {
    roots.push_back(r.GetString());
  }
  std::vector<std::pair<uint32_t, std::string>> requirements;
  const uint32_t req_count = r.GetU32();
  for (uint32_t i = 0; i < req_count && r.ok(); ++i) {
    uint32_t gi = r.GetU32();
    requirements.emplace_back(gi, r.GetString());
  }
  if (!r.exhausted() || requirements.empty()) {
    return common::FailedPreconditionError("tcp worker: malformed batch");
  }

  auto fail = [&](uint32_t gi, const common::Status& status) {
    ByteWriter w;
    w.PutU32(batch_id);
    w.PutU32(gi);
    w.PutU8(static_cast<uint8_t>(status.code()));
    w.PutString(status.message());
    *reply_type = FrameType::kBatchError;
    *reply = w.Release();
    return common::Status::Ok();
  };

  std::shared_ptr<const core::CachedAnalysis> entry =
      audit.cache->FindExact(roots);
  if (entry != nullptr) {
    ++audit.stats.signature_hits;
  } else {
    entry = audit.cache->FindSnapshot(roots);
    if (entry != nullptr) {
      ++audit.stats.snapshot_hits;
      audit.cache->Insert(entry);
    }
  }
  if (entry == nullptr) {
    auto built = audit.cache->BuildDetached(roots, /*warm_base=*/nullptr);
    if (!built.ok()) {
      // Every requirement in the batch shares this signature, so the
      // earliest casualty is the batch's first input position.
      return fail(requirements.front().first, built.status());
    }
    entry = std::move(built).value();
    ++audit.stats.closures_built;
    audit.cache->Insert(entry);
    if (audit.save_snapshots &&
        audit.cache->snapshot_store() != nullptr) {
      // Best-effort persistence: a full disk or an unreachable store
      // must not fail the audit.
      audit.cache->SaveCacheSnapshot(*entry).ok();
    }
  }

  ByteWriter w;
  w.PutU32(batch_id);
  w.PutU32(static_cast<uint32_t>(requirements.size()));
  for (const auto& [gi, text] : requirements) {
    auto parsed = core::ParseRequirementString(text);
    if (!parsed.ok()) return fail(gi, parsed.status());
    auto checked = core::CheckAgainstClosure(*entry->set, *entry->closure,
                                             parsed.value());
    ++audit.stats.checks;
    if (!checked.ok()) return fail(gi, checked.status());
    wire::PutReport(w, gi, checked.value());
  }
  *reply_type = FrameType::kReports;
  *reply = w.Release();
  return common::Status::Ok();
}

}  // namespace

common::Status ServeShardWorker(net::Listener& listener,
                                const schema::Schema& schema,
                                const TcpWorkerOptions& options,
                                const std::atomic<bool>* stop) {
  if (!listener.valid()) {
    return common::InvalidArgumentError("tcp worker: invalid listener");
  }
  const uint64_t fingerprint =
      snapshot::SchemaFingerprint(schema, options.closure);

  // Survives connections: the L1 cache (exact hits across repeat
  // audits) and the mounted remote store (connection reuse).
  std::unique_ptr<core::ClosureCache> cache;
  std::shared_ptr<snapshot::SnapshotStore> mounted_store;
  std::string mounted_endpoint;

  for (;;) {
    if (stop != nullptr && stop->load()) return common::Status::Ok();
    auto accepted = listener.Accept(/*timeout_ms=*/200);
    if (!accepted.ok()) {
      if (accepted.status().code() ==
          common::StatusCode::kFailedPrecondition) {
        continue;  // accept timeout: re-check the stop flag
      }
      return accepted.status();
    }
    net::Socket conn = std::move(accepted).value();

    // Hello: refuse version, endianness, or fingerprint mismatches
    // with a specific message; the coordinator surfaces it verbatim.
    Frame frame;
    if (WaitReadableOrStop(conn.fd(), options.io_timeout_ms, stop) != 1 ||
        !net::ReadFrame(conn.fd(), &frame, options.io_timeout_ms).ok() ||
        frame.type != FrameType::kHello) {
      continue;
    }
    HelloRequest hello;
    std::string refuse;
    if (!DecodeHello(frame.payload, &hello)) {
      refuse = "malformed hello";
    } else if (hello.version != net::kProtocolVersion) {
      refuse = common::StrCat("protocol version mismatch (coordinator ",
                              hello.version, ", worker ",
                              net::kProtocolVersion, ")");
    } else if (hello.byte_order != snapshot::kByteOrderMark) {
      refuse = "byte-order mismatch (foreign-endian peer)";
    } else if (hello.fingerprint != fingerprint) {
      refuse = "schema fingerprint mismatch (different schema or options)";
    }
    ByteWriter ack;
    ack.PutU8(refuse.empty() ? 1 : 0);
    ack.PutString(refuse);
    if (!net::WriteFrame(conn.fd(), FrameType::kHelloAck, ack.buffer(),
                         options.io_timeout_ms)
             .ok() ||
        !refuse.empty()) {
      continue;
    }

    // Mount the L2 tier: a local store wins; otherwise the
    // coordinator's advertised store port, as a remote client.
    std::shared_ptr<snapshot::SnapshotStore> store = options.snapshot_store;
    if (store == nullptr && options.mount_remote_store &&
        hello.store_port != 0) {
      std::string endpoint = common::StrCat(PeerHost(conn.fd()), ":",
                                            hello.store_port);
      if (endpoint != mounted_endpoint || mounted_store == nullptr) {
        snapshot::RemoteStoreOptions remote;
        remote.io_timeout_ms = options.io_timeout_ms;
        mounted_store = snapshot::OpenRemoteStore(endpoint, remote);
        mounted_endpoint = std::move(endpoint);
        cache.reset();  // a different tier invalidates the warm cache
      }
      store = mounted_store;
    } else if (store == options.snapshot_store && mounted_store != nullptr &&
               options.snapshot_store != nullptr) {
      // Local store configured: the remote mount is never used.
      mounted_store.reset();
      mounted_endpoint.clear();
    }
    if (cache == nullptr || !options.persistent_cache) {
      cache = std::make_unique<core::ClosureCache>(
          schema, options.closure, options.cache_capacity,
          /*obs=*/nullptr, store);
    }

    WorkerAudit audit;
    audit.cache = cache.get();
    audit.save_snapshots = hello.save_snapshots;
    int batches_served = 0;
    bool abort_connection = false;
    FrameReader reader(conn.fd());
    // Replies accumulate here while further batches are already
    // buffered and flush in one write when the stream drains — the
    // reply-side syscall amortization matching the reader's. Lockstep
    // coordinators never stream ahead, so they still get one write per
    // batch, immediately. A batch that missed the L1 cache (a fixpoint
    // or a store fetch) flushes at once: the write is free next to it,
    // and the acks let the coordinator refill its window while this
    // worker works through the frames it already holds, instead of
    // idling a round trip every max_in_flight batches.
    std::string pending_replies;
    auto flush_replies = [&]() {
      if (pending_replies.empty()) return true;
      bool ok = net::WriteFullTimeout(conn.fd(), pending_replies.data(),
                                      pending_replies.size(),
                                      options.io_timeout_ms);
      pending_replies.clear();
      return ok;
    };
    for (;;) {
      bool stopped = false;
      if (!reader.Next(&frame, options.io_timeout_ms, stop, &stopped).ok()) {
        if (stopped) return common::Status::Ok();
        break;  // clean close, torn frame, or stall: drop the connection
      }
      if (frame.type == FrameType::kBatch) {
        FrameType reply_type = FrameType::kReports;
        std::string reply;
        const uint64_t misses =
            audit.stats.closures_built + audit.stats.snapshot_hits;
        if (!ProcessBatch(frame.payload, audit, &reply_type, &reply).ok()) {
          break;
        }
        pending_replies += net::EncodeFrameHeader(reply_type, reply);
        pending_replies += reply;
        const bool missed =
            audit.stats.closures_built + audit.stats.snapshot_hits != misses;
        if ((missed || !reader.more_buffered() ||
             pending_replies.size() >= (256u << 10)) &&
            !flush_replies()) {
          break;
        }
        ++batches_served;
        if (options.abort_after_batches > 0 &&
            batches_served >= options.abort_after_batches) {
          abort_connection = true;  // test seam: die without kStats
          break;
        }
        continue;
      }
      if (frame.type == FrameType::kDone) {
        ByteWriter w;
        wire::PutStats(w, audit.stats);
        pending_replies += net::EncodeFrameHeader(FrameType::kStats,
                                                  w.buffer());
        pending_replies += w.buffer();
        flush_replies();
        break;
      }
      break;  // protocol violation: drop the connection
    }
    (void)abort_connection;  // the drop itself is the simulated death
  }
}

}  // namespace oodbsec::service
