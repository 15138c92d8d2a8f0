#include "service/tcp_shard.h"

#include <poll.h>

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
//                    fingerprint, u8 serves store frames,
//                    u8 save_snapshots
//   worker -> coord  u8 accept, string refusal message

struct HelloRequest {
  uint32_t version = 0;
  uint32_t byte_order = 0;
  uint64_t fingerprint = 0;
  bool serves_store = false;
  bool save_snapshots = false;
};

std::string EncodeHello(const HelloRequest& hello) {
  ByteWriter w;
  w.PutU32(hello.version);
  w.PutU32(hello.byte_order);
  w.PutU64(hello.fingerprint);
  w.PutU8(hello.serves_store ? 1 : 0);
  w.PutU8(hello.save_snapshots ? 1 : 0);
  return w.Release();
}

bool DecodeHello(std::string_view payload, HelloRequest* hello) {
  ByteReader r(payload);
  hello->version = r.GetU32();
  hello->byte_order = r.GetU32();
  hello->fingerprint = r.GetU64();
  hello->serves_store = r.GetU8() != 0;
  hello->save_snapshots = r.GetU8() != 0;
  return r.exhausted();
}

// --- store frames ----------------------------------------------------
//
//   worker -> coord  kStoreFind: u32 count, root strings
//                    kStoreSave: one snapshot record
//   coord -> worker  kStoreFound: one snapshot record
//                    kStoreMiss: the store's message
//                    kStoreFail, kStoreSaveAck: the status below

std::string EncodeStatus(const common::Status& status) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
  return w.Release();
}

common::Status DecodeStatus(std::string_view payload) {
  ByteReader r(payload);
  auto code = static_cast<common::StatusCode>(r.GetU8());
  std::string message = r.GetString();
  if (!r.ok() || !r.exhausted()) {
    return common::InternalError("coordinator store: malformed status");
  }
  return common::Status(code, std::move(message));
}

// --- coordinator -----------------------------------------------------

// One signature-coalesced batch. The payload is encoded exactly once
// (at planning) and shared by reference into the outbox, so a requeue
// after a worker death re-sends the same bytes without re-serializing.
struct Batch {
  std::vector<size_t> indices;  // global input positions, input order
  std::shared_ptr<const std::string> payload;
};

struct WorkerConn {
  std::string address;
  net::Socket sock;
  bool alive = false;
  std::deque<size_t> queue;    // batch ids waiting to be sent
  net::FrameQueue outbox;
  std::deque<size_t> unacked;  // batch ids sent, reports pending
  net::FrameReader inbox;      // the hello's ack included
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

struct CoordinatorState {
  const schema::Schema* schema = nullptr;
  const core::ClosureOptions* closure = nullptr;
  snapshot::SnapshotStore* store = nullptr;  // null: the hello offered none
  const std::vector<core::Requirement>* requirements = nullptr;
  std::vector<Batch>* batches = nullptr;
  std::vector<std::optional<core::AnalysisReport>>* assembled = nullptr;
  std::optional<Failure>* failure = nullptr;
  size_t acked_batches = 0;
};

// Handles one complete, checksum-verified frame from `w`; a store
// request is answered on w's outbox. Returns false when the worker
// broke protocol (treated as a death), which includes a store request
// when the hello offered no store and a reply that does not carry its
// own batch's indices.
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
  auto reply = [&](FrameType reply_type, std::string bytes) {
    w.outbox.Push(reply_type,
                  std::make_shared<const std::string>(std::move(bytes)));
    return true;
  };
  switch (type) {
    case FrameType::kReports: {
      ByteReader r(payload);
      uint32_t batch_id = r.GetU32();
      uint32_t count = r.GetU32();
      if (!r.ok() || batch_id >= state.batches->size()) return false;
      const Batch& batch = (*state.batches)[batch_id];
      if (count != batch.indices.size()) return false;
      // The reports carry the batch's own indices, in order, and the
      // frame is decoded whole before any of them is merged.
      std::vector<core::AnalysisReport> reports(count);
      for (uint32_t k = 0; k < count; ++k) {
        uint32_t gi = 0;
        if (!wire::GetReport(r, &gi, &reports[k]) ||
            gi != batch.indices[k]) {
          return false;
        }
      }
      if (!r.exhausted() || !ack(batch_id)) return false;
      for (uint32_t k = 0; k < count; ++k) {
        const size_t gi = batch.indices[k];
        reports[k].requirement = (*state.requirements)[gi];
        (*state.assembled)[gi] = std::move(reports[k]);
      }
      w.acked_requirements += count;
      return true;
    }
    case FrameType::kBatchError: {
      ByteReader r(payload);
      uint32_t batch_id = r.GetU32();
      uint32_t gi = r.GetU32();
      auto code = static_cast<common::StatusCode>(r.GetU8());
      std::string message = r.GetString();
      if (!r.ok() || !r.exhausted() || batch_id >= state.batches->size()) {
        return false;
      }
      // The failure's index decides which error the run reports, so it
      // must be one of its own batch's.
      const std::vector<size_t>& indices = (*state.batches)[batch_id].indices;
      if (std::find(indices.begin(), indices.end(), gi) == indices.end() ||
          !ack(batch_id)) {
        return false;
      }
      w.acked_requirements += indices.size();
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
    case FrameType::kStoreFind: {
      if (state.store == nullptr) return false;
      ByteReader r(payload);
      std::vector<std::string> roots;
      const uint32_t count = r.GetU32();
      for (uint32_t i = 0; i < count && r.ok(); ++i) {
        roots.push_back(r.GetString());
      }
      if (!r.ok() || !r.exhausted()) return false;
      // Find replays and digest-checks the record; the worker validates
      // the re-encoded bytes again on arrival.
      auto found = state.store->Find(*state.schema, *state.closure, roots);
      if (found.ok()) {
        return reply(FrameType::kStoreFound,
                     snapshot::BuildEntryBytes(*state.schema, *state.closure,
                                               *found.value()));
      }
      if (found.status().code() == common::StatusCode::kNotFound) {
        return reply(FrameType::kStoreMiss, found.status().message());
      }
      return reply(FrameType::kStoreFail, EncodeStatus(found.status()));
    }
    case FrameType::kStoreSave: {
      if (state.store == nullptr) return false;
      // Validated before the store is touched. The copy starts the
      // record 8-aligned, as DecodeEntry requires.
      auto decoded = snapshot::DecodeEntry(*state.schema, *state.closure,
                                           "store save", std::string(payload));
      return reply(FrameType::kStoreSaveAck,
                   EncodeStatus(decoded.ok()
                                    ? state.store->Save(*state.schema,
                                                        *state.closure,
                                                        *decoded.value())
                                    : decoded.status()));
    }
    default:
      return false;
  }
}

// Dispatches every complete frame in w's reader. Returns false when the
// worker sent a corrupt frame or broke protocol.
bool DispatchFrames(WorkerConn& w, CoordinatorState& state,
                    uint64_t* frames_in) {
  for (;;) {
    FrameType type;
    std::string_view payload;
    bool complete = false;
    if (!w.inbox.Next(&type, &payload, &complete).ok()) return false;
    if (!complete) return true;
    if (!HandleWorkerFrame(w, type, payload, state)) return false;
    ++*frames_in;
  }
}

// Reads everything the socket has into w's reader and dispatches the
// complete frames. Returns false when the worker died (EOF before its
// kStats frame, error, torn or garbage frame, protocol violation).
bool DrainInbox(WorkerConn& w, CoordinatorState& state, uint64_t* bytes_in,
                uint64_t* frames_in) {
  bool saw_eof = false;
  for (;;) {
    const ssize_t n = w.inbox.Fill(w.sock.fd());
    if (n > 0) {
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
  // A hangup after the kStats frame is the worker's clean goodbye.
  return DispatchFrames(w, state, frames_in) &&
         (!saw_eof || w.stats_received);
}

}  // namespace

TcpTransport::TcpTransport(TcpTransportOptions options)
    : options_(std::move(options)) {}

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
  hello.serves_store = options_.snapshot_store != nullptr;
  hello.save_snapshots = options_.save_snapshots;
  const std::string hello_payload = EncodeHello(hello);

  uint64_t bytes_in = 0, bytes_out = 0, frames_in = 0, frames_out = 0;
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
    if (!w.inbox.Read(w.sock.fd(), &ack, options_.io_timeout_ms).ok() ||
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
    // Bytes that came in behind the ack are the first of the batch
    // stream's.
    bytes_in += w.inbox.buffered();
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
  state.schema = &schema;
  state.closure = &options_.closure;
  state.store = options_.snapshot_store.get();
  state.requirements = &requirements;
  state.batches = &batches;
  state.assembled = &assembled;
  state.failure = &failure;

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
    w.outbox = net::FrameQueue();
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

  // Frames that arrived right behind a worker's kHelloAck sit in its
  // reader, where poll() cannot see them: dispatch them first.
  for (WorkerConn& w : workers) {
    if (w.alive && !DispatchFrames(w, state, &frames_in)) {
      kill_worker(w, "corrupt stream or protocol violation");
    }
  }

  while (fatal.ok()) {
    const bool all_acked = state.acked_batches == batches.size();
    if (all_acked) {
      bool pending = false;
      for (WorkerConn& w : workers) {
        if (!w.alive) continue;
        if (!w.done_enqueued) {
          w.outbox.Push(FrameType::kDone, nullptr);
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
          w.outbox.Push(FrameType::kBatch, batches[b].payload);
          w.unacked.push_back(b);
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
        const uint64_t sent = bytes_out;
        if (!w.outbox.Send(w.sock.fd(), &bytes_out, &frames_out)) {
          kill_worker(w, "write failed");
          continue;
        }
        if (bytes_out != sent) w.last_progress = Clock::now();
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

// The worker's end of one coordinator connection: the reader and queue
// every frame passes through, the hello included, and the kBatch and
// kDone frames a store round trip read past, held for the batch loop.
struct CoordinatorConn {
  net::Socket sock;
  net::FrameReader reader;
  net::FrameQueue outbox;
  std::deque<Frame> held;
};

// The worker's view of the coordinator's store: Find and Save as store
// frames on the shard connection. Each queues its request behind the
// replies already queued, flushes, and reads until its reply arrives;
// the batches and kDone the coordinator streams meanwhile are held for
// the batch loop. Detached (the hello offered no store), a find is a
// miss and a save fails, with no I/O. Like the connection it rides on,
// it is used only from the worker's own thread.
class CoordinatorStore : public snapshot::SnapshotStore {
 public:
  CoordinatorStore(int io_timeout_ms, const std::atomic<bool>* stop)
      : io_timeout_ms_(io_timeout_ms), stop_(stop) {}

  // Attaches the store to `conn`; null detaches it.
  void Attach(CoordinatorConn* conn) { conn_ = conn; }

  common::Result<std::shared_ptr<const core::CachedAnalysis>> Find(
      const schema::Schema& schema, const core::ClosureOptions& options,
      const std::vector<std::string>& roots, obs::Observability* obs) override {
    if (conn_ == nullptr) {
      return common::NotFoundError("coordinator store: none offered");
    }
    ByteWriter request;
    request.PutU32(static_cast<uint32_t>(roots.size()));
    for (const std::string& root : roots) request.PutString(root);
    Frame reply;
    OODBSEC_RETURN_IF_ERROR(
        RoundTrip(FrameType::kStoreFind, request.Release(), &reply));
    if (reply.type == FrameType::kStoreMiss) {
      return common::NotFoundError(reply.payload);
    }
    if (reply.type == FrameType::kStoreFail) {
      common::Status failed = DecodeStatus(reply.payload);
      if (!failed.ok()) return failed;
      return common::InternalError("coordinator store: malformed failure");
    }
    OODBSEC_ASSIGN_OR_RETURN(
        std::shared_ptr<const core::CachedAnalysis> entry,
        snapshot::DecodeEntry(schema, options, "coordinator store",
                              reply.payload, obs));
    if (entry->roots != roots) {
      // A valid record, but another signature's closure.
      return common::NotFoundError(
          "coordinator store: record for another root list");
    }
    return entry;
  }

  common::Status Save(const schema::Schema& schema,
                      const core::ClosureOptions& options,
                      const core::CachedAnalysis& entry) override {
    if (conn_ == nullptr) {
      return common::FailedPreconditionError("coordinator store: none offered");
    }
    Frame reply;
    OODBSEC_RETURN_IF_ERROR(
        RoundTrip(FrameType::kStoreSave,
                  snapshot::BuildEntryBytes(schema, options, entry), &reply));
    return DecodeStatus(reply.payload);
  }

  common::Result<snapshot::StoreSweepStats> Sweep(uint64_t) override {
    return common::FailedPreconditionError(
        "coordinator store: sweeps run on the coordinator");
  }

  snapshot::StoreStats Stats() const override {
    return {.description = "coordinator store"};
  }

  std::vector<std::shared_ptr<const core::CachedAnalysis>> LoadAll(
      const schema::Schema&, const core::ClosureOptions&, size_t,
      size_t* invalid, obs::Observability*) override {
    if (invalid != nullptr) *invalid = 0;
    return {};
  }

 private:
  // Sends a kStoreFind or kStoreSave and reads until its reply. Any
  // failure detaches the store. A frame that is neither the reply nor
  // the batch loop's is held too, for the batch loop to refuse.
  common::Status RoundTrip(FrameType type, std::string request,
                           Frame* reply) {
    conn_->outbox.Push(type,
                       std::make_shared<const std::string>(std::move(request)));
    if (!conn_->outbox.Flush(conn_->sock.fd(), io_timeout_ms_).ok()) {
      conn_ = nullptr;
      return common::InternalError("coordinator store: request write failed");
    }
    for (;;) {
      common::Status read =
          conn_->reader.Read(conn_->sock.fd(), reply, io_timeout_ms_, stop_);
      if (!read.ok()) {
        conn_ = nullptr;
        return common::InternalError(
            common::StrCat("coordinator store: ", read.message()));
      }
      const bool answers = type == FrameType::kStoreSave
                               ? reply->type == FrameType::kStoreSaveAck
                               : reply->type == FrameType::kStoreFound ||
                                     reply->type == FrameType::kStoreMiss ||
                                     reply->type == FrameType::kStoreFail;
      if (answers) return common::Status::Ok();
      const bool for_batch_loop = reply->type == FrameType::kBatch ||
                                  reply->type == FrameType::kDone;
      conn_->held.push_back(std::move(*reply));
      if (!for_batch_loop) {
        conn_ = nullptr;
        return common::InternalError("coordinator store: unexpected frame");
      }
    }
  }

  const int io_timeout_ms_;
  const std::atomic<bool>* const stop_;
  CoordinatorConn* conn_ = nullptr;
};

// Per-connection audit state living across batches; the cache (and the
// coordinator store it may reach) can outlive connections — see
// ServeShardWorker.
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
    auto built = audit.cache->BuildDetached(roots, /*base=*/nullptr);
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
    auto checked = entry->Check(parsed.value());
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
  // audits) and, as its L2 when the worker has no store of its own, the
  // view of the coordinator's store, attached to each connection whose
  // hello offers one.
  std::unique_ptr<core::ClosureCache> cache;
  auto coordinator_store =
      std::make_shared<CoordinatorStore>(options.io_timeout_ms, stop);

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
    CoordinatorConn conn;
    conn.sock = std::move(accepted).value();
    const int fd = conn.sock.fd();

    // Hello: refuse version, endianness, or fingerprint mismatches
    // with a specific message; the coordinator surfaces it verbatim.
    Frame frame;
    if (!conn.reader.Read(fd, &frame, options.io_timeout_ms, stop).ok() ||
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
    conn.outbox.Push(FrameType::kHelloAck,
                     std::make_shared<const std::string>(ack.Release()));
    if (!conn.outbox.Flush(fd, options.io_timeout_ms).ok() ||
        !refuse.empty()) {
      continue;
    }

    if (cache == nullptr || !options.persistent_cache) {
      std::shared_ptr<snapshot::SnapshotStore> store = options.snapshot_store;
      if (store == nullptr) store = coordinator_store;
      cache = std::make_unique<core::ClosureCache>(
          schema, options.closure, options.cache_capacity,
          /*obs=*/nullptr, std::move(store));
    }

    WorkerAudit audit;
    audit.cache = cache.get();
    audit.save_snapshots = hello.save_snapshots;
    int batches_served = 0;
    coordinator_store->Attach(hello.serves_store ? &conn : nullptr);
    // Replies queue while further batches are already buffered and
    // leave in one gather send when the stream drains — the reply-side
    // syscall amortization matching the reader's. Lockstep coordinators
    // never stream ahead, so they still get one write per batch,
    // immediately. A batch that missed the L1 cache (a fixpoint or a
    // store fetch) flushes at once: the write is free next to it, and
    // the acks let the coordinator refill its window while this worker
    // works through the frames it already holds, instead of idling a
    // round trip every max_in_flight batches.
    for (;;) {
      if (!conn.held.empty()) {
        frame = std::move(conn.held.front());
        conn.held.pop_front();
      } else if (!conn.reader.Read(fd, &frame, options.io_timeout_ms, stop)
                      .ok()) {
        if (stop != nullptr && stop->load()) return common::Status::Ok();
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
        conn.outbox.Push(reply_type,
                         std::make_shared<const std::string>(std::move(reply)));
        const bool missed =
            audit.stats.closures_built + audit.stats.snapshot_hits != misses;
        const bool more_buffered =
            !conn.held.empty() || conn.reader.buffered() > 0;
        if ((missed || !more_buffered || conn.outbox.bytes() >= (256u << 10)) &&
            !conn.outbox.Flush(fd, options.io_timeout_ms).ok()) {
          break;
        }
        ++batches_served;
        if (options.abort_after_batches > 0 &&
            batches_served >= options.abort_after_batches) {
          break;  // test seam: the drop is the simulated death
        }
        continue;
      }
      if (frame.type == FrameType::kDone) {
        ByteWriter w;
        wire::PutStats(w, audit.stats);
        conn.outbox.Push(FrameType::kStats,
                         std::make_shared<const std::string>(w.Release()));
        conn.outbox.Flush(fd, options.io_timeout_ms).ok();
        break;
      }
      break;  // protocol violation: drop the connection
    }
    coordinator_store->Attach(nullptr);
  }
}

}  // namespace oodbsec::service
