// Distributed-transport tests: the frame codec's robustness contract,
// signal-free writes to vanished peers, the TCP shard transport's
// byte-identity triangle against fork and single-process CheckBatch,
// worker-death re-queue, bad streams and declared lengths on both ends
// of a live connection, replies that must carry their own batch's
// indices, the networked snapshot tier, a seeded mutation fuzz of the
// frame reader and the payload decoders behind it, and the fork
// transport's process lifecycle.
//
// Ordering caveat inside every parity test: the fork transport runs
// FIRST, before any TCP worker thread exists — fork() wants a
// single-threaded process image (service/shard.h). gtest runs tests
// sequentially and each test joins its threads, so the image is
// single-threaded again at the next test's fork.
#include <arpa/inet.h>
#include <ifaddrs.h>
#include <net/if.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "core/analysis_session.h"
#include "core/analyzer.h"
#include "core/closure.h"
#include "core/closure_cache.h"
#include "core/requirement.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "schema/schema.h"
#include "schema/user.h"
#include "service/analysis_service.h"
#include "service/capability_signature.h"
#include "service/shard.h"
#include "service/shard_wire.h"
#include "service/tcp_shard.h"
#include "snapshot/binio.h"
#include "snapshot/packed_store.h"
#include "snapshot/snapshot.h"
#include "snapshot/snapshot_store.h"
#include "test_util.h"

namespace oodbsec {
namespace {

using core::ClosureOptions;

std::unique_ptr<schema::Schema> BrokerSchema() {
  schema::SchemaBuilder builder;
  builder.AddClass("Broker", {{"name", "string"},
                              {"salary", "int"},
                              {"budget", "int"},
                              {"profit", "int"}});
  builder.AddFunction("checkBudget", {{"broker", "Broker"}}, "bool",
                      ">=(r_budget(broker), *(10, r_salary(broker)))");
  builder.AddFunction("calcSalary", {{"budget", "int"}, {"profit", "int"}},
                      "int", "budget / 10 + profit / 2");
  builder.AddFunction(
      "updateSalary", {{"broker", "Broker"}}, "null",
      "w_salary(broker, calcSalary(r_budget(broker), r_profit(broker)))");
  auto result = std::move(builder).Build();
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

// The three-role stockbroker population (mirrors snapshot_test): three
// distinct capability signatures, so a cold audit builds 3 closures.
struct Fleet {
  std::unique_ptr<schema::Schema> schema;
  std::unique_ptr<schema::UserRegistry> users;
  std::vector<core::Requirement> sheet;
};

Fleet MakeFleet(int accounts_per_role = 3) {
  Fleet fleet;
  fleet.schema = BrokerSchema();
  fleet.users = std::make_unique<schema::UserRegistry>(*fleet.schema);
  struct Role {
    const char* name;
    std::vector<const char*> grants;
    const char* requirement;
  };
  const std::vector<Role> roles = {
      {"clerk", {"checkBudget", "w_budget"}, "(%s, r_salary(x) : ti)"},
      {"updater",
       {"updateSalary", "w_budget", "w_profit"},
       "(%s, w_salary(a, v : ta))"},
      {"auditor", {"checkBudget"}, "(%s, r_salary(x) : pi)"},
  };
  for (const Role& role : roles) {
    for (int k = 0; k < accounts_per_role; ++k) {
      std::string account = common::StrCat(role.name, k);
      EXPECT_TRUE(fleet.users->AddUser(account).ok());
      for (const char* grant : role.grants) {
        EXPECT_TRUE(fleet.users->Grant(account, grant).ok());
      }
      char text[128];
      std::snprintf(text, sizeof text, role.requirement, account.c_str());
      auto parsed = core::ParseRequirementString(text);
      EXPECT_TRUE(parsed.ok()) << parsed.status();
      fleet.sheet.push_back(std::move(parsed).value());
    }
  }
  return fleet;
}

using test_util::ScopedTempDir;

std::shared_ptr<snapshot::SnapshotStore> OpenPack(const std::string& dir) {
  auto store = snapshot::OpenPackedStore(dir + "/cache.pack");
  EXPECT_TRUE(store.ok()) << store.status();
  return store.ok() ? std::move(store).value() : nullptr;
}

// A loopback worker fleet on threads. Each worker owns its listener and
// serves until Stop(); addresses() feeds TcpTransportOptions::workers.
class LoopbackFleet {
 public:
  explicit LoopbackFleet(const schema::Schema& schema,
                         std::vector<service::TcpWorkerOptions> workers) {
    for (size_t i = 0; i < workers.size(); ++i) {
      auto bound = net::Listener::Bind(0);
      EXPECT_TRUE(bound.ok()) << bound.status();
      if (!bound.ok()) continue;
      listeners_.push_back(std::make_unique<net::Listener>(
          std::move(bound).value()));
      addresses_.push_back(
          common::StrCat("127.0.0.1:", listeners_.back()->port()));
      net::Listener* listener = listeners_.back().get();
      service::TcpWorkerOptions options = workers[i];
      threads_.emplace_back([listener, &schema, options, this] {
        auto status =
            service::ServeShardWorker(*listener, schema, options, &stop_);
        EXPECT_TRUE(status.ok()) << status;
      });
    }
  }

  ~LoopbackFleet() { Stop(); }

  void Stop() {
    stop_.store(true);
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
  }

  const std::vector<std::string>& addresses() const { return addresses_; }

 private:
  std::vector<std::unique_ptr<net::Listener>> listeners_;
  std::vector<std::string> addresses_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
};

// Writes raw, unframed bytes to a blocking test socket.
bool Send(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    struct iovec iov = {const_cast<char*>(bytes.data()), bytes.size()};
    const ssize_t put = net::Sendv(fd, &iov, 1);
    if (put < 0 && errno == EINTR) continue;
    if (put < 0) return false;
    bytes.remove_prefix(static_cast<size_t>(put));
  }
  return true;
}

// A worker's hello ack that accepts the coordinator.
std::string AcceptingAck() {
  snapshot::ByteWriter ack;
  ack.PutU8(1);
  ack.PutString("");
  return ack.Release();
}

// ---------------------------------------------------------------------------
// Frame codec: roundtrip plus the robustness contract.

TEST(FrameTest, RoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string payload = "batch bytes \0 with embedded nul";
  ASSERT_TRUE(
      net::WriteFrame(fds[0], net::FrameType::kBatch, payload, 1000).ok());
  ASSERT_TRUE(net::WriteFrame(fds[0], net::FrameType::kDone, "", 1000).ok());
  ::close(fds[0]);

  net::FrameReader reader;
  net::Frame frame;
  ASSERT_TRUE(reader.Read(fds[1], &frame, 1000).ok());
  EXPECT_EQ(frame.type, net::FrameType::kBatch);
  EXPECT_EQ(frame.payload, payload);
  ASSERT_TRUE(reader.Read(fds[1], &frame, 1000).ok());
  EXPECT_EQ(frame.type, net::FrameType::kDone);
  EXPECT_TRUE(frame.payload.empty());

  // Clean EOF between frames: the orderly-shutdown signal.
  auto eof = reader.Read(fds[1], &frame, 1000);
  EXPECT_EQ(eof.code(), common::StatusCode::kNotFound);
  EXPECT_NE(eof.message().find("connection closed"), std::string::npos);
  ::close(fds[1]);
}

TEST(FrameTest, GarbagePrefixRejected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string garbage = "HTTP/1.1 200 OK\r\n\r\nthis is not a frame";
  ASSERT_TRUE(Send(fds[0], garbage));
  ::close(fds[0]);

  net::FrameReader reader;
  net::Frame frame;
  auto status = reader.Read(fds[1], &frame, 1000);
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition);
  ::close(fds[1]);
}

TEST(FrameTest, TornFrameRejected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string payload = "the reports this frame will never deliver";
  std::string header =
      net::EncodeFrameHeader(net::FrameType::kReports, payload);
  // Header plus half the payload, then the peer dies.
  ASSERT_TRUE(Send(fds[0], header));
  ASSERT_TRUE(
      Send(fds[0], std::string_view(payload).substr(0, payload.size() / 2)));
  ::close(fds[0]);

  net::FrameReader reader;
  net::Frame frame;
  auto status = reader.Read(fds[1], &frame, 1000);
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition);
  ::close(fds[1]);
}

TEST(FrameTest, ChecksumMismatchRejected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string payload = "payload whose bytes flip in flight";
  std::string header =
      net::EncodeFrameHeader(net::FrameType::kReports, payload);
  payload[5] ^= 0x40;  // corrupt after the checksum was computed
  ASSERT_TRUE(Send(fds[0], header));
  ASSERT_TRUE(Send(fds[0], payload));
  ::close(fds[0]);

  net::FrameReader reader;
  net::Frame frame;
  auto status = reader.Read(fds[1], &frame, 1000);
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("checksum"), std::string::npos);
  ::close(fds[1]);
}

TEST(FrameTest, OversizedLengthRejected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string header = net::EncodeFrameHeader(net::FrameType::kBatch, "");
  uint32_t huge = net::kMaxFramePayload + 1;
  std::memcpy(header.data() + 8, &huge, sizeof huge);
  ASSERT_TRUE(Send(fds[0], header));
  ::close(fds[0]);

  net::FrameReader reader;
  net::Frame frame;
  auto status = reader.Read(fds[1], &frame, 1000);
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition);
  ::close(fds[1]);
}

// Every type byte outside the enum reads "unknown type", the bytes of
// the retired store hello and stats frames (8, 9, 16, 17) included.
TEST(FrameTest, UnknownTypeRejected) {
  std::string header = net::EncodeFrameHeader(net::FrameType::kDone, "");
  int known = 0;
  for (int byte = 0; byte < 256; ++byte) {
    header[4] = static_cast<char>(byte);
    net::FrameType type = net::FrameType::kHello;
    uint32_t length = 0;
    uint64_t checksum = 0;
    common::Status status =
        net::DecodeFrameHeader(header, &type, &length, &checksum);
    if (status.ok()) {
      ++known;
      EXPECT_EQ(static_cast<int>(type), byte);
      continue;
    }
    EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition) << byte;
    EXPECT_NE(status.message().find("frame: unknown type"), std::string::npos)
        << status;
  }
  EXPECT_EQ(known, 13);

  // The first byte the enum leaves unused, on the wire.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  header[4] = 8;
  ASSERT_TRUE(Send(fds[0], header));
  ::close(fds[0]);
  net::FrameReader reader;
  net::Frame frame;
  auto status = reader.Read(fds[1], &frame, 1000);
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message(), "frame: unknown type 8");
  ::close(fds[1]);
}

// Writes to a peer that hung up fail; they never raise SIGPIPE. Runs
// in a death-test child whose SIGPIPE keeps its default, fatal
// disposition, so a signalled write kills the child instead of
// returning false.
bool WritesToAClosedPeerFail() {
  const std::string bytes(64 << 10, 'x');
  // A unix-domain peer that closed: the very first write fails.
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return false;
  ::close(fds[1]);
  struct iovec iov = {const_cast<char*>(bytes.data()), bytes.size()};
  const bool unix_failed =
      net::Sendv(fds[0], &iov, 1) < 0 && errno == EPIPE &&
      !net::WriteFrame(fds[0], net::FrameType::kBatch, bytes, 1000).ok();
  ::close(fds[0]);

  // A TCP peer that closed cleanly: the first write draws a reset, a
  // later one fails with EPIPE.
  auto listener = net::Listener::Bind(0);
  if (!listener.ok()) return false;
  auto dialed = net::Dial(common::StrCat("127.0.0.1:", listener->port()));
  if (!dialed.ok() || !listener->Accept(1000).ok()) return false;
  bool tcp_failed = false;
  for (int attempt = 0; attempt < 100 && !tcp_failed; ++attempt) {
    tcp_failed =
        !net::WriteFrame(dialed->fd(), net::FrameType::kBatch, bytes, 1000)
             .ok();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::cerr << "unix failed: " << unix_failed << ", tcp failed: " << tcp_failed
            << "\n";
  return unix_failed && tcp_failed;
}

TEST(FrameTest, WritesToAClosedPeerFailWithoutSignal) {
  EXPECT_EXIT(
      {
        std::signal(SIGPIPE, SIG_DFL);
        std::_Exit(WritesToAClosedPeerFail() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

// ---------------------------------------------------------------------------
// Satellite 3: the transport parity triangle. Fork, TCP, and
// single-process CheckBatch must agree byte for byte.

TEST(TcpShardTest, TransportParityTriangle) {
  Fleet fleet = MakeFleet();

  // Fork FIRST: no thread may exist yet.
  service::ShardOptions fork_options;
  fork_options.shard_count = 2;
  service::ForkTransport fork_transport(fork_options);
  auto fork_run = fork_transport.Run(*fleet.schema, *fleet.users, fleet.sheet,
                                     nullptr);
  ASSERT_TRUE(fork_run.ok()) << fork_run.status();

  core::AnalysisSession session(*fleet.schema, *fleet.users);
  service::AnalysisService single(session);
  auto single_run = single.CheckBatch(fleet.sheet);
  ASSERT_TRUE(single_run.ok()) << single_run.status();

  std::vector<service::TcpWorkerOptions> workers(2);
  LoopbackFleet loopback(*fleet.schema, workers);
  service::TcpTransportOptions tcp_options;
  tcp_options.workers = loopback.addresses();
  tcp_options.io_timeout_ms = 10000;
  service::TcpTransport tcp_transport(tcp_options);
  auto tcp_run =
      tcp_transport.Run(*fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_TRUE(tcp_run.ok()) << tcp_run.status();

  ASSERT_EQ(tcp_run.value().reports.size(), fleet.sheet.size());
  ASSERT_EQ(fork_run.value().reports.size(), fleet.sheet.size());
  for (size_t i = 0; i < fleet.sheet.size(); ++i) {
    EXPECT_EQ(tcp_run.value().reports[i].ToString(),
              single_run.value()[i].ToString())
        << "tcp vs single at " << i;
    EXPECT_EQ(tcp_run.value().reports[i].ToString(),
              fork_run.value().reports[i].ToString())
        << "tcp vs fork at " << i;
  }
  // Cold fleets on both transports: three distinct signatures, three
  // fixpoints, one check per requirement.
  EXPECT_EQ(tcp_run.value().merged_stats.checks, fleet.sheet.size());
  EXPECT_EQ(tcp_run.value().merged_stats.closures_built, 3u);
  EXPECT_EQ(fork_run.value().merged_stats.closures_built, 3u);
}

TEST(TcpShardTest, UnknownUserErrorMatchesCheckBatchAndFork) {
  Fleet fleet = MakeFleet();
  auto ghost = core::ParseRequirementString("(ghost, r_salary(x) : ti)");
  ASSERT_TRUE(ghost.ok()) << ghost.status();
  fleet.sheet.insert(fleet.sheet.begin() + 2, std::move(ghost).value());

  // Fork first (thread caveat), then the reference, then TCP.
  service::ShardOptions fork_options;
  fork_options.shard_count = 2;
  auto fork_run = RunShardedBatch(*fleet.schema, *fleet.users, fleet.sheet,
                                  fork_options, nullptr);
  ASSERT_FALSE(fork_run.ok());

  core::AnalysisSession session(*fleet.schema, *fleet.users);
  service::AnalysisService single(session);
  auto single_run = single.CheckBatch(fleet.sheet);
  ASSERT_FALSE(single_run.ok());

  std::vector<service::TcpWorkerOptions> workers(2);
  LoopbackFleet loopback(*fleet.schema, workers);
  service::TcpTransportOptions tcp_options;
  tcp_options.workers = loopback.addresses();
  service::TcpTransport tcp_transport(tcp_options);
  auto tcp_run =
      tcp_transport.Run(*fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_FALSE(tcp_run.ok());

  EXPECT_EQ(tcp_run.status().code(), single_run.status().code());
  EXPECT_EQ(tcp_run.status().message(), single_run.status().message());
  EXPECT_EQ(fork_run.status().message(), single_run.status().message());
}

// Satellite 6's engine, pinned as a test: a worker that dies mid-audit
// has its unacknowledged batches re-queued and the merged report is
// unchanged. One requirement per batch forces a multi-batch stream; the
// dying worker is placed wherever the first requirement's signature
// routes, so it is guaranteed to receive work before it aborts.
TEST(TcpShardTest, WorkerDeathRequeuesToSurvivor) {
  Fleet fleet = MakeFleet();

  core::AnalysisSession session(*fleet.schema, *fleet.users);
  service::AnalysisService single(session);
  auto single_run = single.CheckBatch(fleet.sheet);
  ASSERT_TRUE(single_run.ok()) << single_run.status();

  const schema::User* user = fleet.users->Find(fleet.sheet[0].user);
  ASSERT_NE(user, nullptr);
  ClosureOptions closure;
  std::string first_signature = service::SignatureFromRoots(
      core::AnalysisRoots(*fleet.schema, *user), closure);
  int dying = service::ShardOf(first_signature, 2);

  std::vector<service::TcpWorkerOptions> workers(2);
  workers[static_cast<size_t>(dying)].abort_after_batches = 1;
  LoopbackFleet loopback(*fleet.schema, workers);

  service::TcpTransportOptions tcp_options;
  tcp_options.workers = loopback.addresses();
  tcp_options.max_batch_requirements = 1;  // 9 batches across 3 signatures
  tcp_options.max_in_flight = 4;
  service::TcpTransport tcp_transport(tcp_options);
  auto tcp_run =
      tcp_transport.Run(*fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_TRUE(tcp_run.ok()) << tcp_run.status();

  ASSERT_EQ(tcp_run.value().reports.size(), fleet.sheet.size());
  for (size_t i = 0; i < fleet.sheet.size(); ++i) {
    EXPECT_EQ(tcp_run.value().reports[i].ToString(),
              single_run.value()[i].ToString())
        << "requeued report diverged at " << i;
  }
  // Stats are best-effort under worker death: the dying worker's final
  // kStats frame never arrives, so the one requirement it served before
  // aborting is missing from the merged counters. The reports above are
  // the contract; the counters only cover survivors.
  EXPECT_GE(tcp_run.value().merged_stats.checks, fleet.sheet.size() - 1);
}

TEST(TcpShardTest, AllWorkersDeadFailsAudit) {
  Fleet fleet = MakeFleet();
  std::vector<service::TcpWorkerOptions> workers(1);
  workers[0].abort_after_batches = 1;
  LoopbackFleet loopback(*fleet.schema, workers);

  service::TcpTransportOptions tcp_options;
  tcp_options.workers = loopback.addresses();
  tcp_options.max_batch_requirements = 1;
  tcp_options.dial.attempts = 1;
  service::TcpTransport tcp_transport(tcp_options);
  auto tcp_run =
      tcp_transport.Run(*fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_FALSE(tcp_run.ok());
  EXPECT_NE(tcp_run.status().message().find("worker"), std::string::npos);
}

// A worker process killed while pipelined frames sit unread in its
// socket: its batches re-queue to the survivor and the report is
// unchanged, and no write on the way (the coordinator's pump, the
// survivor's replies) raises SIGPIPE. Runs in a death-test child whose
// SIGPIPE keeps its default, fatal disposition; returns whether every
// check held.
bool KilledWorkerRequeuesWithoutSignal() {
  Fleet fleet = MakeFleet(/*accounts_per_role=*/8);
  auto bound = net::Listener::Bind(0);
  if (!bound.ok()) return false;
  net::Listener doomed = std::move(bound).value();

  // Fork the doomed worker first, while this process has one thread.
  // It answers the hello, waits until at least two batch frames are
  // queued unread on its socket, and kills itself.
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) std::_Exit(1);
    auto conn = doomed.Accept(10000);
    net::FrameReader reader;
    net::Frame hello;
    if (!conn.ok() || !reader.Read(conn->fd(), &hello, 10000).ok()) {
      std::_Exit(1);
    }
    if (!net::WriteFrame(conn->fd(), net::FrameType::kHelloAck,
                         AcceptingAck(), 10000)
             .ok()) {
      std::_Exit(1);
    }
    for (int waited_ms = 0; waited_ms < 10000; ++waited_ms) {
      int unread = 0;
      if (::ioctl(conn->fd(), FIONREAD, &unread) == 0 &&
          unread >= static_cast<int>(2 * net::kFrameHeaderSize)) {
        ::raise(SIGKILL);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::_Exit(1);
  }

  core::AnalysisSession session(*fleet.schema, *fleet.users);
  service::AnalysisService single(session);
  auto single_run = single.CheckBatch(fleet.sheet);
  std::vector<service::TcpWorkerOptions> survivor(1);
  LoopbackFleet loopback(*fleet.schema, survivor);

  // The first signature's batches go to its ShardOf worker (every
  // worker is empty when the plan reaches it): make that the doomed one.
  const schema::User* user = fleet.users->Find(fleet.sheet[0].user);
  const int dying = service::ShardOf(
      service::SignatureFromRoots(core::AnalysisRoots(*fleet.schema, *user),
                                  ClosureOptions{}),
      2);
  service::TcpTransportOptions tcp_options;
  tcp_options.workers = {loopback.addresses()[0], loopback.addresses()[0]};
  tcp_options.workers[static_cast<size_t>(dying)] =
      common::StrCat("127.0.0.1:", doomed.port());
  tcp_options.max_batch_requirements = 1;  // 24 batches, 8 per signature
  tcp_options.max_in_flight = 8;
  service::TcpTransport tcp_transport(tcp_options);
  obs::Observability obs;
  auto tcp_run =
      tcp_transport.Run(*fleet.schema, *fleet.users, fleet.sheet, &obs);

  int wstatus = 0;
  const bool killed = ::waitpid(pid, &wstatus, 0) == pid &&
                      WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL;
  if (!single_run.ok() || !tcp_run.ok()) {
    std::cerr << single_run.status() << " / " << tcp_run.status() << "\n";
    return false;
  }
  bool same = tcp_run->reports.size() == fleet.sheet.size();
  for (size_t i = 0; same && i < fleet.sheet.size(); ++i) {
    same = tcp_run->reports[i].ToString() == single_run.value()[i].ToString();
  }
  const uint64_t deaths = obs.metrics.counter("net.worker_deaths")->value();
  const uint64_t requeues = obs.metrics.counter("net.requeues")->value();
  std::cerr << "killed holding frames: " << killed
            << ", same reports: " << same << ", deaths: " << deaths
            << ", requeues: " << requeues << "\n";
  return killed && same && deaths == 1 && requeues >= 2;
}

TEST(TcpShardTest, KilledWorkerHoldingUnreadFramesRaisesNoSignal) {
  EXPECT_EXIT(
      {
        std::signal(SIGPIPE, SIG_DFL);
        std::_Exit(KilledWorkerRequeuesWithoutSignal() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

// ---------------------------------------------------------------------------
// The batch stream's decoders on both ends of the connection: a stream
// that goes bad mid-audit costs its connection and nothing else.

// The ways a peer's stream goes bad after a clean hello.
enum class BadStream { kFlippedChecksum, kGarbagePrefix, kTornFrame };
constexpr BadStream kBadStreams[] = {BadStream::kFlippedChecksum,
                                     BadStream::kGarbagePrefix,
                                     BadStream::kTornFrame};

const char* BadStreamName(BadStream bad) {
  switch (bad) {
    case BadStream::kFlippedChecksum:
      return "flipped checksum";
    case BadStream::kGarbagePrefix:
      return "garbage prefix";
    case BadStream::kTornFrame:
      return "torn frame";
  }
  return "?";
}

// Writes `bad` where the next `type` frame belongs, in one send. A torn
// frame is half a frame followed by the end of the write side.
bool SendBadStream(int fd, BadStream bad, net::FrameType type) {
  std::string payload = "bytes that never arrive intact";
  const std::string header = net::EncodeFrameHeader(type, payload);
  switch (bad) {
    case BadStream::kFlippedChecksum:
      payload[3] ^= 0x20;  // after the checksum was computed
      return Send(fd, header + payload);
    case BadStream::kGarbagePrefix:
      return Send(fd, "HTTP/1.1 200 OK\r\n\r\nthis is not a frame" + header +
                          payload);
    case BadStream::kTornFrame:
      return Send(fd, header + payload.substr(0, payload.size() / 2)) &&
             ::shutdown(fd, SHUT_WR) == 0;
  }
  return false;
}

// A coordinator's hello for `schema` under default closure options, with
// no store offered (tcp_shard.cc's layout: version, byte-order mark,
// fingerprint, serves-store flag, save flag).
std::string HelloPayload(const schema::Schema& schema) {
  snapshot::ByteWriter hello;
  hello.PutU32(net::kProtocolVersion);
  hello.PutU32(snapshot::kByteOrderMark);
  hello.PutU64(snapshot::SchemaFingerprint(schema, ClosureOptions{}));
  hello.PutU8(0);
  hello.PutU8(0);
  return hello.Release();
}

// Reads frames off `fd` until the peer hangs up or the read fails, and
// returns how long that took: well under `timeout_ms` when the peer
// closed, about `timeout_ms` when the read waited it out.
std::chrono::milliseconds ReadUntilClosed(net::FrameReader& reader, int fd,
                                          int timeout_ms) {
  const auto start = std::chrono::steady_clock::now();
  net::Frame frame;
  while (reader.Read(fd, &frame, timeout_ms).ok()) {
  }
  return std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
}

// Coordinator side: a fake worker answers the hello, then its first
// batch with a bad stream, beside a real worker. The coordinator drops
// the fake alone, its batches re-queue, and the run returns CheckBatch's
// bytes with one worker death.
TEST(TcpShardTest, BadReplyStreamKillsOnlyItsWorker) {
  Fleet fleet = MakeFleet();
  core::AnalysisSession session(*fleet.schema, *fleet.users);
  service::AnalysisService single(session);
  auto single_run = single.CheckBatch(fleet.sheet);
  ASSERT_TRUE(single_run.ok()) << single_run.status();

  // The first signature's batches go to its ShardOf worker: the fake.
  const schema::User* user = fleet.users->Find(fleet.sheet[0].user);
  const int fake_index = service::ShardOf(
      service::SignatureFromRoots(core::AnalysisRoots(*fleet.schema, *user),
                                  ClosureOptions{}),
      2);
  std::vector<service::TcpWorkerOptions> real(1);
  LoopbackFleet loopback(*fleet.schema, real);

  for (BadStream bad : kBadStreams) {
    SCOPED_TRACE(BadStreamName(bad));
    auto bound = net::Listener::Bind(0);
    ASSERT_TRUE(bound.ok()) << bound.status();
    net::Listener listener = std::move(bound).value();
    bool sent = false;
    std::thread fake([&listener, bad, &sent] {
      auto conn = listener.Accept(10000);
      net::FrameReader reader;
      net::Frame frame;
      if (!conn.ok() || !reader.Read(conn->fd(), &frame, 10000).ok() ||
          !net::WriteFrame(conn->fd(), net::FrameType::kHelloAck,
                           AcceptingAck(), 10000)
               .ok() ||
          !reader.Read(conn->fd(), &frame, 10000).ok() ||
          frame.type != net::FrameType::kBatch ||
          !SendBadStream(conn->fd(), bad, net::FrameType::kReports)) {
        return;
      }
      sent = true;
      ReadUntilClosed(reader, conn->fd(), 10000);
    });
    service::TcpTransportOptions tcp_options;
    tcp_options.workers = {loopback.addresses()[0], loopback.addresses()[0]};
    tcp_options.workers[static_cast<size_t>(fake_index)] =
        common::StrCat("127.0.0.1:", listener.port());
    obs::Observability obs;
    auto run = service::TcpTransport(tcp_options).Run(
        *fleet.schema, *fleet.users, fleet.sheet, &obs);
    fake.join();
    EXPECT_TRUE(sent);
    ASSERT_TRUE(run.ok()) << run.status();
    ASSERT_EQ(run->reports.size(), fleet.sheet.size());
    for (size_t i = 0; i < fleet.sheet.size(); ++i) {
      EXPECT_EQ(run->reports[i].ToString(), single_run.value()[i].ToString())
          << i;
    }
    EXPECT_EQ(obs.metrics.counter("net.worker_deaths")->value(), 1u);
  }
}

// Worker side: a fake coordinator sends a valid hello, then a bad stream
// where a batch belongs. The worker hangs up on it at once, and a clean
// run against the same worker returns CheckBatch's bytes.
TEST(TcpShardTest, BadBatchStreamDropsOnlyItsConnection) {
  Fleet fleet = MakeFleet();
  core::AnalysisSession session(*fleet.schema, *fleet.users);
  service::AnalysisService single(session);
  auto single_run = single.CheckBatch(fleet.sheet);
  ASSERT_TRUE(single_run.ok()) << single_run.status();

  std::vector<service::TcpWorkerOptions> workers(1);
  LoopbackFleet loopback(*fleet.schema, workers);
  for (BadStream bad : kBadStreams) {
    SCOPED_TRACE(BadStreamName(bad));
    auto conn = net::Dial(loopback.addresses()[0]);
    ASSERT_TRUE(conn.ok()) << conn.status();
    ASSERT_TRUE(net::WriteFrame(conn->fd(), net::FrameType::kHello,
                                HelloPayload(*fleet.schema), 10000)
                    .ok());
    net::FrameReader reader;
    net::Frame ack;
    ASSERT_TRUE(reader.Read(conn->fd(), &ack, 10000).ok());
    ASSERT_EQ(ack.type, net::FrameType::kHelloAck);
    ASSERT_EQ(ack.payload, AcceptingAck());
    ASSERT_TRUE(SendBadStream(conn->fd(), bad, net::FrameType::kBatch));
    EXPECT_LT(ReadUntilClosed(reader, conn->fd(), 10000).count(), 5000);
  }

  service::TcpTransportOptions tcp_options;
  tcp_options.workers = loopback.addresses();
  auto run = service::TcpTransport(tcp_options).Run(
      *fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run->reports.size(), fleet.sheet.size());
  for (size_t i = 0; i < fleet.sheet.size(); ++i) {
    EXPECT_EQ(run->reports[i].ToString(), single_run.value()[i].ToString())
        << i;
  }
}

// This process's peak resident set (VmHWM), in KiB. A forked child's
// starts at its resident set at the fork, so a death-test child sees
// only what its own scenario adds.
size_t PeakRssKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoul(line.substr(6));
  }
  return 0;
}

// A header declaring the largest payload a frame may carry.
std::string HeaderDeclaringMaxPayload(net::FrameType type) {
  std::string header = net::EncodeFrameHeader(type, "");
  const uint32_t length = net::kMaxFramePayload;
  std::memcpy(header.data() + 8, &length, sizeof length);
  return header;
}

// Whether the connection closed well inside `waited`'s 10 s bound with
// the peak RSS up by less than 64 MiB since `peak_before`.
bool ClosedHoldingNoDeclaredLength(std::chrono::milliseconds waited,
                                   size_t peak_before) {
  const size_t grown = PeakRssKib() - peak_before;
  std::cerr << "closed after " << waited.count() << " ms, peak RSS +"
            << grown << " KiB\n";
  return waited.count() < 5000 && grown < (size_t{64} << 10);
}

// A worker sent one hello header declaring kMaxFramePayload (1 GiB) and
// nothing after it waits out its 300 ms read timeout and hangs up.
bool WorkerHangsUpHoldingNoDeclaredLength() {
  Fleet fleet = MakeFleet();
  std::vector<service::TcpWorkerOptions> workers(1);
  workers[0].io_timeout_ms = 300;
  LoopbackFleet loopback(*fleet.schema, workers);
  const size_t peak_before = PeakRssKib();
  auto conn = net::Dial(loopback.addresses()[0]);
  if (!conn.ok() ||
      !Send(conn->fd(), HeaderDeclaringMaxPayload(net::FrameType::kHello))) {
    return false;
  }
  net::FrameReader reader;
  return ClosedHoldingNoDeclaredLength(
      ReadUntilClosed(reader, conn->fd(), 10000), peak_before);
}

// The same on the coordinator: a worker answers the hello with such a
// header, the coordinator's hello read times out, and the run fails
// with no worker dialed.
bool CoordinatorHangsUpHoldingNoDeclaredLength() {
  Fleet fleet = MakeFleet();
  auto bound = net::Listener::Bind(0);
  if (!bound.ok()) return false;
  net::Listener listener = std::move(bound).value();
  std::chrono::milliseconds waited{10000};
  std::thread fake([&listener, &waited] {
    auto conn = listener.Accept(10000);
    net::FrameReader reader;
    net::Frame hello;
    if (!conn.ok() || !reader.Read(conn->fd(), &hello, 10000).ok() ||
        !Send(conn->fd(),
              HeaderDeclaringMaxPayload(net::FrameType::kHelloAck))) {
      return;
    }
    waited = ReadUntilClosed(reader, conn->fd(), 10000);
  });
  const size_t peak_before = PeakRssKib();
  service::TcpTransportOptions tcp_options;
  tcp_options.workers = {common::StrCat("127.0.0.1:", listener.port())};
  tcp_options.io_timeout_ms = 300;
  auto run = service::TcpTransport(tcp_options).Run(
      *fleet.schema, *fleet.users, fleet.sheet, nullptr);
  fake.join();
  std::cerr << run.status() << "\n";
  return !run.ok() &&
         run.status().message().find("no worker could be dialed") !=
             std::string::npos &&
         ClosedHoldingNoDeclaredLength(waited, peak_before);
}

// A declared payload length is not an allocation, on either end. Each
// scenario runs in a death-test child so that its peak RSS is its own.
TEST(TcpShardTest, WorkerAllocatesNoDeclaredLength) {
  EXPECT_EXIT(std::_Exit(WorkerHangsUpHoldingNoDeclaredLength() ? 0 : 1),
              ::testing::ExitedWithCode(0), "");
}

TEST(TcpShardTest, CoordinatorAllocatesNoDeclaredLength) {
  EXPECT_EXIT(std::_Exit(CoordinatorHangsUpHoldingNoDeclaredLength() ? 0 : 1),
              ::testing::ExitedWithCode(0), "");
}

// A batch frame's id and global indices (tcp_shard.cc's layout: u32 id,
// u32 root count and the roots, u32 count, then a u32 index and the
// requirement text per requirement).
struct BatchIndices {
  uint32_t id = 0;
  std::vector<uint32_t> indices;
};

BatchIndices DecodeBatchIndices(std::string_view payload) {
  snapshot::ByteReader r(payload);
  BatchIndices batch;
  batch.id = r.GetU32();
  const uint32_t roots = r.GetU32();
  for (uint32_t i = 0; i < roots && r.ok(); ++i) r.GetString();
  const uint32_t count = r.GetU32();
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    batch.indices.push_back(r.GetU32());
    r.GetString();
  }
  return batch;
}

// A kReports payload answering batch `id` with a SATISFIED report for
// each of `indices`.
std::string SatisfiedReports(uint32_t id,
                             const std::vector<uint32_t>& indices) {
  snapshot::ByteWriter w;
  w.PutU32(id);
  w.PutU32(static_cast<uint32_t>(indices.size()));
  for (uint32_t gi : indices) {
    service::wire::PutReport(w, gi, core::AnalysisReport{});
  }
  return w.Release();
}

// Audits `fleet`'s sheet against one fake worker. It answers the hello,
// reads the sheet's three batches, answers batch k with `reply(batches,
// k)`, and answers kDone with empty stats.
using FakeReply = std::function<std::pair<net::FrameType, std::string>(
    const std::vector<BatchIndices>&, size_t)>;

common::Result<service::ShardedBatchResult> AuditAgainstFakeWorker(
    const Fleet& fleet, const FakeReply& reply) {
  auto bound = net::Listener::Bind(0);
  if (!bound.ok()) return bound.status();
  net::Listener listener = std::move(bound).value();
  std::thread fake([&listener, &reply] {
    auto conn = listener.Accept(10000);
    net::FrameReader reader;
    net::Frame frame;
    if (!conn.ok() || !reader.Read(conn->fd(), &frame, 10000).ok() ||
        !net::WriteFrame(conn->fd(), net::FrameType::kHelloAck,
                         AcceptingAck(), 10000)
             .ok()) {
      return;
    }
    std::vector<BatchIndices> batches;
    while (batches.size() < 3 && reader.Read(conn->fd(), &frame, 10000).ok()) {
      batches.push_back(DecodeBatchIndices(frame.payload));
    }
    for (size_t k = 0; k < batches.size(); ++k) {
      auto [type, payload] = reply(batches, k);
      if (!net::WriteFrame(conn->fd(), type, payload, 10000).ok()) return;
    }
    while (reader.Read(conn->fd(), &frame, 10000).ok()) {
      if (frame.type != net::FrameType::kDone) continue;
      snapshot::ByteWriter stats;
      service::wire::PutStats(stats, service::ServiceStats{});
      net::WriteFrame(conn->fd(), net::FrameType::kStats, stats.buffer(), 10000)
          .ok();
      return;
    }
  });
  service::TcpTransportOptions tcp_options;
  tcp_options.workers = {common::StrCat("127.0.0.1:", listener.port())};
  tcp_options.max_in_flight = 4;  // all three batches before any reply
  auto run = service::TcpTransport(tcp_options).Run(*fleet.schema, *fleet.users,
                                                    fleet.sheet, nullptr);
  fake.join();
  return run;
}

// A reply must carry its own batch's indices. A fake worker that
// answers each batch with the next one's indices, all SATISFIED, would
// otherwise fill all nine requirements and hide the six flaws
// CheckBatch finds; instead it is treated as dead, and with it the
// only worker.
TEST(TcpShardTest, ReportsForAnotherBatchKillTheWorker) {
  Fleet fleet = MakeFleet();
  core::AnalysisSession session(*fleet.schema, *fleet.users);
  service::AnalysisService single(session);
  auto single_run = single.CheckBatch(fleet.sheet);
  ASSERT_TRUE(single_run.ok()) << single_run.status();
  size_t flagged = 0;
  for (const core::AnalysisReport& report : single_run.value()) {
    if (!report.satisfied) ++flagged;
  }
  EXPECT_EQ(flagged, 6u);

  auto run = AuditAgainstFakeWorker(
      fleet, [](const std::vector<BatchIndices>& batches, size_t k) {
        const BatchIndices& next = batches[(k + 1) % batches.size()];
        return std::make_pair(
            net::FrameType::kReports,
            SatisfiedReports(batches[k].id, next.indices));
      });
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("all workers died"),
            std::string::npos)
      << run.status();
}

// A kBatchError's index decides which error the run reports, so it must
// be one of its own batch's: a fake worker that blames the second
// batch's failure on the first batch's first requirement is treated as
// dead.
TEST(TcpShardTest, BatchErrorForAnotherBatchKillsTheWorker) {
  Fleet fleet = MakeFleet();
  auto run = AuditAgainstFakeWorker(
      fleet, [](const std::vector<BatchIndices>& batches, size_t k) {
        if (k != 1) {
          return std::make_pair(
              net::FrameType::kReports,
              SatisfiedReports(batches[k].id, batches[k].indices));
        }
        snapshot::ByteWriter error;
        error.PutU32(batches[k].id);
        error.PutU32(batches[0].indices[0]);
        error.PutU8(static_cast<uint8_t>(common::StatusCode::kInternal));
        error.PutString("failure blamed on another batch");
        return std::make_pair(net::FrameType::kBatchError, error.Release());
      });
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("all workers died"),
            std::string::npos)
      << run.status();
}

// A reply is decoded whole before any of its reports is merged. A fake
// worker beside a real one answers its first batch with a kReports
// frame, checksum intact, whose first report is a SATISFIED one for the
// batch's first requirement and whose other reports are missing. The
// fake dies, its batches re-queue to the real worker, and the run
// returns CheckBatch's bytes with one worker death.
TEST(TcpShardTest, MalformedReplyMergesNothing) {
  Fleet fleet = MakeFleet();
  core::AnalysisSession session(*fleet.schema, *fleet.users);
  service::AnalysisService single(session);
  auto single_run = single.CheckBatch(fleet.sheet);
  ASSERT_TRUE(single_run.ok()) << single_run.status();

  // The first signature's batches go to its ShardOf worker: the fake.
  const schema::User* user = fleet.users->Find(fleet.sheet[0].user);
  const int fake_index = service::ShardOf(
      service::SignatureFromRoots(core::AnalysisRoots(*fleet.schema, *user),
                                  ClosureOptions{}),
      2);
  std::vector<service::TcpWorkerOptions> real(1);
  LoopbackFleet loopback(*fleet.schema, real);
  auto bound = net::Listener::Bind(0);
  ASSERT_TRUE(bound.ok()) << bound.status();
  net::Listener listener = std::move(bound).value();
  std::thread fake([&listener] {
    auto conn = listener.Accept(10000);
    net::FrameReader reader;
    net::Frame frame;
    if (!conn.ok() || !reader.Read(conn->fd(), &frame, 10000).ok() ||
        !net::WriteFrame(conn->fd(), net::FrameType::kHelloAck,
                         AcceptingAck(), 10000)
             .ok() ||
        !reader.Read(conn->fd(), &frame, 10000).ok()) {
      return;
    }
    const BatchIndices batch = DecodeBatchIndices(frame.payload);
    snapshot::ByteWriter reports;
    reports.PutU32(batch.id);
    reports.PutU32(static_cast<uint32_t>(batch.indices.size()));
    service::wire::PutReport(reports, batch.indices[0],
                             core::AnalysisReport{});
    if (!net::WriteFrame(conn->fd(), net::FrameType::kReports,
                         reports.buffer(), 10000)
             .ok()) {
      return;
    }
    ReadUntilClosed(reader, conn->fd(), 10000);
  });
  service::TcpTransportOptions tcp_options;
  tcp_options.workers = {loopback.addresses()[0], loopback.addresses()[0]};
  tcp_options.workers[static_cast<size_t>(fake_index)] =
      common::StrCat("127.0.0.1:", listener.port());
  obs::Observability obs;
  auto run = service::TcpTransport(tcp_options).Run(
      *fleet.schema, *fleet.users, fleet.sheet, &obs);
  fake.join();
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run->reports.size(), fleet.sheet.size());
  for (size_t i = 0; i < fleet.sheet.size(); ++i) {
    EXPECT_EQ(run->reports[i].ToString(), single_run.value()[i].ToString())
        << i;
  }
  EXPECT_EQ(obs.metrics.counter("net.worker_deaths")->value(), 1u);
}

// The networked snapshot tier end to end: run one cold audit against a
// coordinator-side store (workers save what they build over the wire),
// then a second audit with cache-less workers that must warm entirely
// from remote snapshot hits — and report identical bytes.
TEST(TcpShardTest, SnapshotWarmedFleetServesRemoteHits) {
  Fleet fleet = MakeFleet();
  ScopedTempDir tmp("oodbsec_net_test");
  ASSERT_TRUE(tmp.ok());
  auto opened = snapshot::OpenPackedStore(tmp.path() + "/fleet.pack");
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::shared_ptr<snapshot::SnapshotStore> store = std::move(opened).value();

  core::AnalysisSession session(*fleet.schema, *fleet.users);
  service::AnalysisService single(session);
  auto single_run = single.CheckBatch(fleet.sheet);
  ASSERT_TRUE(single_run.ok()) << single_run.status();

  // persistent_cache off: every connection starts with an empty L1, so
  // the second run's warmth can only come from the remote store.
  std::vector<service::TcpWorkerOptions> workers(2);
  workers[0].persistent_cache = false;
  workers[1].persistent_cache = false;
  LoopbackFleet loopback(*fleet.schema, workers);

  service::TcpTransportOptions tcp_options;
  tcp_options.workers = loopback.addresses();
  tcp_options.snapshot_store = store;
  tcp_options.save_snapshots = true;
  service::TcpTransport tcp_transport(tcp_options);

  auto cold =
      tcp_transport.Run(*fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold.value().merged_stats.closures_built, 3u);
  EXPECT_EQ(cold.value().merged_stats.snapshot_hits, 0u);
  // The workers' saves crossed the wire into the coordinator's store.
  EXPECT_EQ(store->Stats().entries, 3u);

  auto warm =
      tcp_transport.Run(*fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm.value().merged_stats.closures_built, 0u);
  EXPECT_EQ(warm.value().merged_stats.snapshot_hits, 3u);

  for (size_t i = 0; i < fleet.sheet.size(); ++i) {
    EXPECT_EQ(cold.value().reports[i].ToString(),
              single_run.value()[i].ToString());
    EXPECT_EQ(warm.value().reports[i].ToString(),
              single_run.value()[i].ToString());
  }
  loopback.Stop();
}

// The shard hello is the one fingerprint check on the store path: a
// coordinator whose closure options differ from the worker's by one bit
// is refused before any batch is sent, and its store is never reached.
TEST(TcpShardTest, HelloRefusesAnotherFingerprint) {
  Fleet fleet = MakeFleet();
  ScopedTempDir tmp("oodbsec_net_test");
  ASSERT_TRUE(tmp.ok());
  std::shared_ptr<snapshot::SnapshotStore> store = OpenPack(tmp.path());
  ASSERT_NE(store, nullptr);

  std::vector<service::TcpWorkerOptions> workers(1);
  LoopbackFleet loopback(*fleet.schema, workers);
  service::TcpTransportOptions tcp_options;
  tcp_options.workers = loopback.addresses();
  tcp_options.snapshot_store = store;
  tcp_options.save_snapshots = true;
  tcp_options.closure.pi_join_to_ti = false;
  auto refused = service::TcpTransport(tcp_options).Run(
      *fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), common::StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("fingerprint"), std::string::npos)
      << refused.status();
  EXPECT_EQ(store->Stats().finds, 0u);
  EXPECT_EQ(store->Stats().saves, 0u);

  // The worker built nothing for the refused coordinator: its
  // persistent cache is still empty, so a matching run builds all three.
  tcp_options.closure = ClosureOptions{};
  auto accepted = service::TcpTransport(tcp_options).Run(
      *fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  EXPECT_EQ(accepted->merged_stats.closures_built, 3u);
  EXPECT_EQ(store->Stats().entries, 3u);
}

// A coordinator store that answers every Find with one entry, whatever
// roots were asked for.
class OneRecordStore : public snapshot::SnapshotStore {
 public:
  explicit OneRecordStore(std::shared_ptr<const core::CachedAnalysis> entry)
      : entry_(std::move(entry)) {}
  common::Result<std::shared_ptr<const core::CachedAnalysis>> Find(
      const schema::Schema&, const ClosureOptions&,
      const std::vector<std::string>&, obs::Observability*) override {
    return entry_;
  }
  common::Status Save(const schema::Schema&, const ClosureOptions&,
                      const core::CachedAnalysis&) override {
    return common::Status::Ok();
  }
  common::Result<snapshot::StoreSweepStats> Sweep(uint64_t) override {
    return snapshot::StoreSweepStats{};
  }
  snapshot::StoreStats Stats() const override { return {}; }
  std::vector<std::shared_ptr<const core::CachedAnalysis>> LoadAll(
      const schema::Schema&, const ClosureOptions&, size_t, size_t*,
      obs::Observability*) override {
    return {};
  }

 private:
  std::shared_ptr<const core::CachedAnalysis> entry_;
};

// A record for another root list is a miss, never the requested
// closure: served the auditors' closure for every signature, the
// workers take one snapshot hit (the auditors'), build the clerks' and
// updaters' closures cold, and report CheckBatch's bytes.
TEST(TcpShardTest, StoreRecordForOtherRootsIsAMiss) {
  Fleet fleet = MakeFleet();
  core::AnalysisSession session(*fleet.schema, *fleet.users);
  service::AnalysisService single(session);
  auto single_run = single.CheckBatch(fleet.sheet);
  ASSERT_TRUE(single_run.ok()) << single_run.status();

  core::ClosureCache builder(*fleet.schema, ClosureOptions{});
  auto auditor = builder.GetOrBuild(
      core::AnalysisRoots(*fleet.schema, *fleet.users->Find("auditor0")));
  ASSERT_TRUE(auditor.ok()) << auditor.status();

  std::vector<service::TcpWorkerOptions> workers(2);
  LoopbackFleet loopback(*fleet.schema, workers);
  service::TcpTransportOptions tcp_options;
  tcp_options.workers = loopback.addresses();
  tcp_options.snapshot_store =
      std::make_shared<OneRecordStore>(std::move(auditor).value());
  auto run = service::TcpTransport(tcp_options).Run(
      *fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->merged_stats.snapshot_hits, 1u);
  EXPECT_EQ(run->merged_stats.closures_built, 2u);
  ASSERT_EQ(run->reports.size(), fleet.sheet.size());
  for (size_t i = 0; i < fleet.sheet.size(); ++i) {
    EXPECT_EQ(run->reports[i].ToString(), single_run.value()[i].ToString());
  }
}

// A store frame from a worker whose hello offered no store breaks
// protocol: the coordinator treats the worker as dead and hangs up,
// well before the rogue's own 10 s read timeout would end its loop.
TEST(TcpShardTest, StoreFrameWhenNoneOfferedKillsTheWorker) {
  Fleet fleet = MakeFleet();
  auto bound = net::Listener::Bind(0);
  ASSERT_TRUE(bound.ok()) << bound.status();
  net::Listener listener = std::move(bound).value();
  std::chrono::milliseconds rogue_read{-1};
  std::thread rogue([&listener, &rogue_read] {
    auto conn = listener.Accept(10000);
    net::FrameReader reader;
    net::Frame frame;
    if (!conn.ok() || !reader.Read(conn->fd(), &frame, 10000).ok()) return;
    snapshot::ByteWriter find;
    find.PutU32(0);
    if (!net::WriteFrame(conn->fd(), net::FrameType::kHelloAck,
                         AcceptingAck(), 10000)
             .ok() ||
        !net::WriteFrame(conn->fd(), net::FrameType::kStoreFind,
                         find.buffer(), 10000)
             .ok()) {
      return;
    }
    rogue_read = ReadUntilClosed(reader, conn->fd(), 10000);
  });
  service::TcpTransportOptions tcp_options;
  tcp_options.workers = {common::StrCat("127.0.0.1:", listener.port())};
  auto run = service::TcpTransport(tcp_options).Run(
      *fleet.schema, *fleet.users, fleet.sheet, nullptr);
  rogue.join();
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("all workers died"),
            std::string::npos)
      << run.status();
  EXPECT_GE(rogue_read.count(), 0);
  EXPECT_LT(rogue_read.count(), 5000);
}

// The host's first non-loopback IPv4 address that is up; empty when
// there is none.
std::string NonLoopbackAddress() {
  struct ifaddrs* list = nullptr;
  if (::getifaddrs(&list) != 0) return "";
  std::string found;
  for (struct ifaddrs* it = list; it != nullptr && found.empty();
       it = it->ifa_next) {
    if (it->ifa_addr == nullptr || it->ifa_addr->sa_family != AF_INET ||
        (it->ifa_flags & IFF_UP) == 0 || (it->ifa_flags & IFF_LOOPBACK) != 0) {
      continue;
    }
    char text[INET_ADDRSTRLEN] = {};
    const auto* in = reinterpret_cast<const struct sockaddr_in*>(it->ifa_addr);
    if (::inet_ntop(AF_INET, &in->sin_addr, text, sizeof text) != nullptr) {
      found = text;
    }
  }
  ::freeifaddrs(list);
  return found;
}

// A worker dialed at a non-loopback address reaches the coordinator's
// store like a loopback one: the cold run saves the three closures it
// builds, and the rerun, its L1 cache empty, replays all three.
TEST(TcpShardTest, StoreReachesAWorkerDialedOffLoopback) {
  const std::string host = NonLoopbackAddress();
  if (host.empty()) GTEST_SKIP() << "no non-loopback IPv4 address is up";
  Fleet fleet = MakeFleet();
  ScopedTempDir tmp("oodbsec_net_test");
  ASSERT_TRUE(tmp.ok());
  std::shared_ptr<snapshot::SnapshotStore> store = OpenPack(tmp.path());
  ASSERT_NE(store, nullptr);

  auto bound = net::Listener::Bind(0, /*loopback_only=*/false);
  ASSERT_TRUE(bound.ok()) << bound.status();
  net::Listener listener = std::move(bound).value();
  service::TcpWorkerOptions worker;
  worker.persistent_cache = false;
  std::atomic<bool> stop{false};
  std::thread serving([&] {
    auto status =
        service::ServeShardWorker(listener, *fleet.schema, worker, &stop);
    EXPECT_TRUE(status.ok()) << status;
  });

  service::TcpTransportOptions tcp_options;
  tcp_options.workers = {common::StrCat(host, ":", listener.port())};
  tcp_options.snapshot_store = store;
  tcp_options.save_snapshots = true;
  service::TcpTransport transport(tcp_options);
  obs::Observability obs;
  auto cold = transport.Run(*fleet.schema, *fleet.users, fleet.sheet, &obs);
  const uint64_t saved = store->Stats().entries;
  auto warm = transport.Run(*fleet.schema, *fleet.users, fleet.sheet, &obs);
  stop.store(true);
  serving.join();

  ASSERT_TRUE(cold.ok()) << cold.status();
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(cold->merged_stats.closures_built, 3u);
  EXPECT_EQ(saved, 3u);
  EXPECT_EQ(warm->merged_stats.snapshot_hits, 3u);
  EXPECT_EQ(warm->merged_stats.closures_built, 0u);
  // On a clean run the coordinator's frames pair up with the worker's:
  // a batch per report, a store reply per request, kDone per kStats.
  EXPECT_EQ(obs.metrics.counter("net.frames_sent")->value(),
            obs.metrics.counter("net.frames_received")->value());
}

// ---------------------------------------------------------------------------
// The one decoder, fuzzed (seeded, no external engine): frame streams
// built with the real encoders, mutated and read through FrameReader in
// random chunks; then mutated payloads re-framed with valid checksums,
// which the reader lets through, sent to the payload decoders on both
// ends of a live connection.

constexpr uint64_t kFuzzSeed = 0x5eed0f0f1a7e5ULL;
constexpr int kFuzzReadTimeoutMs = 2000;

// What each end of a clean audit of the fleet sends, built with the
// encoders the transport uses.
struct WireCorpus {
  std::vector<net::Frame> coordinator;  // hello, batches, kDone, store replies
  std::vector<net::Frame> worker;       // ack, reports, stats, store requests
  std::vector<core::AnalysisReport> reports;  // CheckBatch's, in sheet order
};

std::string StatusPayload(common::StatusCode code, std::string_view message) {
  snapshot::ByteWriter w;
  w.PutU8(static_cast<uint8_t>(code));
  w.PutString(message);
  return w.Release();
}

WireCorpus MakeWireCorpus(const Fleet& fleet) {
  WireCorpus corpus;
  core::AnalysisSession session(*fleet.schema, *fleet.users);
  service::AnalysisService single(session);
  auto checked = single.CheckBatch(fleet.sheet);
  EXPECT_TRUE(checked.ok()) << checked.status();
  if (!checked.ok()) return corpus;
  corpus.reports = std::move(checked).value();
  corpus.coordinator.push_back(
      {net::FrameType::kHello, HelloPayload(*fleet.schema)});
  corpus.worker.push_back({net::FrameType::kHelloAck, AcceptingAck()});
  // The sheet is three roles of three accounts: one batch per role.
  const size_t per_role = fleet.sheet.size() / 3;
  std::vector<std::string> clerk_roots;
  for (uint32_t b = 0; b < 3; ++b) {
    const schema::User* user =
        fleet.users->Find(fleet.sheet[b * per_role].user);
    const std::vector<std::string> roots =
        core::AnalysisRoots(*fleet.schema, *user);
    if (b == 0) clerk_roots = roots;
    snapshot::ByteWriter batch;
    batch.PutU32(b);
    batch.PutU32(static_cast<uint32_t>(roots.size()));
    for (const std::string& root : roots) batch.PutString(root);
    batch.PutU32(static_cast<uint32_t>(per_role));
    snapshot::ByteWriter reports;
    reports.PutU32(b);
    reports.PutU32(static_cast<uint32_t>(per_role));
    for (size_t gi = b * per_role; gi < (b + 1) * per_role; ++gi) {
      batch.PutU32(static_cast<uint32_t>(gi));
      batch.PutString(fleet.sheet[gi].ToString());
      service::wire::PutReport(reports, static_cast<uint32_t>(gi),
                               corpus.reports[gi]);
    }
    corpus.coordinator.push_back({net::FrameType::kBatch, batch.Release()});
    corpus.worker.push_back({net::FrameType::kReports, reports.Release()});
  }
  service::ServiceStats stats;
  stats.closures_built = 3;
  stats.checks = fleet.sheet.size();
  snapshot::ByteWriter stats_payload;
  service::wire::PutStats(stats_payload, stats);
  corpus.worker.push_back({net::FrameType::kStats, stats_payload.Release()});
  corpus.coordinator.push_back({net::FrameType::kDone, ""});

  snapshot::ByteWriter find;
  find.PutU32(static_cast<uint32_t>(clerk_roots.size()));
  for (const std::string& root : clerk_roots) find.PutString(root);
  corpus.worker.push_back({net::FrameType::kStoreFind, find.Release()});
  core::ClosureCache builder(*fleet.schema, ClosureOptions{});
  auto clerks = builder.GetOrBuild(clerk_roots);
  EXPECT_TRUE(clerks.ok()) << clerks.status();
  if (clerks.ok()) {
    std::string record = snapshot::BuildEntryBytes(
        *fleet.schema, ClosureOptions{}, *clerks.value());
    corpus.coordinator.push_back({net::FrameType::kStoreFound, record});
    corpus.worker.push_back({net::FrameType::kStoreSave, std::move(record)});
  }
  corpus.coordinator.push_back({net::FrameType::kStoreMiss, "no record"});
  corpus.coordinator.push_back(
      {net::FrameType::kStoreFail,
       StatusPayload(common::StatusCode::kInternal, "store unavailable")});
  corpus.coordinator.push_back(
      {net::FrameType::kStoreSaveAck,
       StatusPayload(common::StatusCode::kOk, "")});
  return corpus;
}

std::string Encode(const net::Frame& frame) {
  return net::EncodeFrameHeader(frame.type, frame.payload) + frame.payload;
}

size_t Below(std::mt19937_64& rng, size_t n) { return n == 0 ? 0 : rng() % n; }

// Applies 1-4 seeded mutations to `bytes`: byte flips, truncations,
// insertions of random bytes, deletions, and splices from `donor`.
void Mutate(std::string& bytes, std::string_view donor,
            std::mt19937_64& rng) {
  for (size_t m = 1 + Below(rng, 4); m > 0; --m) {
    switch (Below(rng, 5)) {
      case 0:
        if (!bytes.empty()) {
          bytes[Below(rng, bytes.size())] ^=
              static_cast<char>(1 + Below(rng, 255));
        }
        break;
      case 1:
        bytes.resize(Below(rng, bytes.size() + 1));
        break;
      case 2: {
        std::string inserted(1 + Below(rng, 8), '\0');
        for (char& c : inserted) c = static_cast<char>(rng());
        bytes.insert(Below(rng, bytes.size() + 1), inserted);
        break;
      }
      case 3:
        if (!bytes.empty()) {
          const size_t at = Below(rng, bytes.size());
          bytes.erase(at,
                      1 + Below(rng, std::min<size_t>(64, bytes.size() - at)));
        }
        break;
      default: {
        const size_t from = Below(rng, donor.size());
        const size_t length =
            Below(rng, std::min<size_t>(256, donor.size() - from) + 1);
        bytes.insert(Below(rng, bytes.size() + 1), donor.substr(from, length));
        break;
      }
    }
  }
}

// What one FrameReader made of a stream: its frames, the status that
// ended it, whether every read returned inside its timeout with the
// buffer no larger than the stream plus one 64 KiB read, and the
// largest the buffer got.
struct ReadOutcome {
  std::vector<net::Frame> frames;
  common::Status end;
  bool bounded = true;
  size_t max_capacity = 0;
};

// Writes `stream` to a socketpair in chunks of the given sizes, each once
// the reader has drained the one before (so every read() returns one
// chunk), then ends the stream; reads it through FrameReader::Read until
// a read fails.
ReadOutcome ReadChunked(const std::string& stream,
                        const std::vector<size_t>& chunks) {
  ReadOutcome out;
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    out.end = common::InternalError("socketpair");
    return out;
  }
  std::atomic<bool> reading{true};
  std::thread writer([&] {
    size_t at = 0;
    for (size_t chunk : chunks) {
      for (int unread = 1; unread > 0 && reading.load();) {
        if (::ioctl(fds[1], FIONREAD, &unread) != 0) unread = 0;
        if (unread > 0) std::this_thread::yield();
      }
      if (!reading.load() ||
          !Send(fds[0], std::string_view(stream).substr(at, chunk))) {
        break;
      }
      at += chunk;
    }
    ::shutdown(fds[0], SHUT_WR);
  });
  net::FrameReader reader;
  for (;;) {
    net::Frame frame;
    const auto start = std::chrono::steady_clock::now();
    common::Status status = reader.Read(fds[1], &frame, kFuzzReadTimeoutMs);
    if (std::chrono::steady_clock::now() - start >=
            std::chrono::milliseconds(kFuzzReadTimeoutMs) ||
        reader.capacity() > stream.size() + (64 << 10)) {
      out.bounded = false;
    }
    out.max_capacity = std::max(out.max_capacity, reader.capacity());
    if (!status.ok()) {
      out.end = std::move(status);
      break;
    }
    out.frames.push_back(std::move(frame));
  }
  // A writer still inside a send the reader will never drain fails
  // with EPIPE instead of blocking.
  reading.store(false);
  ::shutdown(fds[1], SHUT_RD);
  writer.join();
  ::close(fds[0]);
  ::close(fds[1]);
  return out;
}

// 1-8 chunk sizes that add up to `size`.
std::vector<size_t> RandomChunks(size_t size, std::mt19937_64& rng) {
  std::vector<size_t> cuts = {0, size};
  for (size_t k = Below(rng, 8); k > 0; --k) {
    cuts.push_back(Below(rng, size + 1));
  }
  std::sort(cuts.begin(), cuts.end());
  std::vector<size_t> chunks;
  for (size_t i = 1; i < cuts.size(); ++i) {
    if (cuts[i] > cuts[i - 1]) chunks.push_back(cuts[i] - cuts[i - 1]);
  }
  return chunks;
}

bool SameFrames(const std::vector<net::Frame>& a,
                const std::vector<net::Frame>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type != b[i].type || a[i].payload != b[i].payload) return false;
  }
  return true;
}

// The reader keeps only the unread tail: a 1 MiB stream whose every
// read() ends mid-frame never grows its buffer past a few frames.
TEST(FrameFuzzTest, BufferHoldsOnlyTheUnreadTail) {
  const net::Frame frame{net::FrameType::kReports, std::string(1000, 'r')};
  const std::string one = Encode(frame);
  std::string stream;
  for (int k = 0; k < 1024; ++k) stream += one;
  std::vector<size_t> chunks(stream.size() / (one.size() + 7),
                             one.size() + 7);
  chunks.push_back(stream.size() - chunks.size() * chunks.front());
  ReadOutcome out = ReadChunked(stream, chunks);
  EXPECT_EQ(out.frames.size(), 1024u);
  EXPECT_EQ(out.end.message(), "frame: connection closed");
  EXPECT_LT(out.max_capacity, size_t{16} << 10);
}

// 10,000 rounds over streams of 1-6 corpus frames from both ends. Each
// read ends in ok, kNotFound or kFailedPrecondition within its timeout;
// a clean stream yields exactly its frames under any chunking; a
// mutated one yields the same frames and the same ending in random
// chunks as in one write; the buffer never outgrows what was sent plus
// one read.
TEST(FrameFuzzTest, MutatedStreamsThroughTheOneReader) {
  Fleet fleet = MakeFleet();
  WireCorpus corpus = MakeWireCorpus(fleet);
  std::vector<net::Frame> pool = corpus.coordinator;
  pool.insert(pool.end(), corpus.worker.begin(), corpus.worker.end());
  ASSERT_EQ(pool.size(), 16u);
  std::mt19937_64 rng(kFuzzSeed);
  size_t clean = 0, rejected = 0, frames_read = 0;
  for (int round = 0; round < 10000; ++round) {
    std::vector<net::Frame> sent;
    std::string stream;
    for (size_t k = 1 + Below(rng, 6); k > 0; --k) {
      sent.push_back(pool[Below(rng, pool.size())]);
      stream += Encode(sent.back());
    }
    const bool mutate = round % 10 != 0;
    if (mutate) Mutate(stream, Encode(pool[Below(rng, pool.size())]), rng);

    ReadOutcome chunked = ReadChunked(stream, RandomChunks(stream.size(), rng));
    const common::StatusCode code = chunked.end.code();
    ASSERT_TRUE(code == common::StatusCode::kNotFound ||
                code == common::StatusCode::kFailedPrecondition)
        << "round " << round << ": " << chunked.end;
    ASSERT_TRUE(chunked.bounded) << "round " << round;
    frames_read += chunked.frames.size();
    if (!mutate) {
      ++clean;
      ASSERT_TRUE(SameFrames(chunked.frames, sent)) << "round " << round;
      ASSERT_EQ(chunked.end.message(), "frame: connection closed")
          << "round " << round;
      continue;
    }
    if (code == common::StatusCode::kFailedPrecondition) ++rejected;
    ReadOutcome whole = ReadChunked(stream, {stream.size()});
    ASSERT_TRUE(whole.bounded) << "round " << round;
    ASSERT_TRUE(SameFrames(chunked.frames, whole.frames)) << "round " << round;
    ASSERT_EQ(chunked.end.code(), whole.end.code()) << "round " << round;
    ASSERT_EQ(chunked.end.message(), whole.end.message()) << "round " << round;
  }
  std::cerr << clean << " clean streams, " << rejected
            << " mutated streams rejected, " << frames_read
            << " frames read\n";
  EXPECT_EQ(clean, 1000u);
  EXPECT_GT(rejected, 0u);
}

// The 13 frame types the protocol knows.
net::FrameType AnyFrameType(std::mt19937_64& rng) {
  static constexpr net::FrameType kTypes[] = {
      net::FrameType::kHello,      net::FrameType::kHelloAck,
      net::FrameType::kBatch,      net::FrameType::kReports,
      net::FrameType::kBatchError, net::FrameType::kDone,
      net::FrameType::kStats,      net::FrameType::kStoreFind,
      net::FrameType::kStoreFound, net::FrameType::kStoreMiss,
      net::FrameType::kStoreFail,  net::FrameType::kStoreSave,
      net::FrameType::kStoreSaveAck};
  return kTypes[Below(rng, std::size(kTypes))];
}

// `frame` with its payload mutated (spliced from `donor`), re-framed with
// a valid checksum; one time in four under another type, one in eight
// with a pad byte set. FrameReader accepts every such frame.
std::string MutatedFrame(const net::Frame& frame, std::string_view donor,
                         std::mt19937_64& rng, bool retype = true) {
  std::string payload = frame.payload;
  Mutate(payload, donor, rng);
  const net::FrameType type =
      retype && Below(rng, 4) == 0 ? AnyFrameType(rng) : frame.type;
  std::string header = net::EncodeFrameHeader(type, payload);
  if (Below(rng, 8) == 0) {
    header[5 + Below(rng, 3)] = static_cast<char>(1 + Below(rng, 255));
  }
  return header + payload;
}

// 1,000 connections to a live worker with no cache across connections,
// each a valid hello (half of them offering the store) and then one
// coordinator frame: a clean batch half the time, else a mutated frame.
// Store requests get mutated records, misses, failures and acks. The
// worker replies or drops the connection, never stalls; its reports for
// a clean batch are CheckBatch's, whatever record it was served; and a
// clean audit afterwards still matches CheckBatch.
TEST(FrameFuzzTest, MutatedPayloadsReachALiveWorker) {
  Fleet fleet = MakeFleet();
  WireCorpus corpus = MakeWireCorpus(fleet);
  ASSERT_EQ(corpus.coordinator.size(), 9u);
  std::vector<service::TcpWorkerOptions> workers(1);
  workers[0].io_timeout_ms = kFuzzReadTimeoutMs;
  workers[0].persistent_cache = false;
  LoopbackFleet loopback(*fleet.schema, workers);
  std::mt19937_64 rng(kFuzzSeed + 1);
  size_t replied = 0, dropped = 0, store_answers = 0;
  for (int round = 0; round < 1000; ++round) {
    auto conn = net::Dial(loopback.addresses()[0]);
    ASSERT_TRUE(conn.ok()) << conn.status();
    std::string hello = HelloPayload(*fleet.schema);
    hello[hello.size() - 2] = Below(rng, 2) == 0 ? 1 : 0;  // serves store
    net::FrameReader reader;
    net::Frame frame;
    ASSERT_TRUE(
        net::WriteFrame(conn->fd(), net::FrameType::kHello, hello, 1000).ok());
    ASSERT_TRUE(reader.Read(conn->fd(), &frame, kFuzzReadTimeoutMs).ok());
    ASSERT_EQ(frame.payload, AcceptingAck()) << "round " << round;
    // A clean batch, or a mutated frame (mostly a batch, whose decoder
    // sits behind the reader).
    const size_t batch = Below(rng, 3);
    const bool clean = Below(rng, 2) == 0;
    if (clean) {
      ASSERT_TRUE(Send(conn->fd(), Encode(corpus.coordinator[1 + batch])));
    } else {
      const net::Frame& victim =
          Below(rng, 4) != 0
              ? corpus.coordinator[1 + batch]
              : corpus.coordinator[Below(rng, corpus.coordinator.size())];
      const std::string& donor =
          corpus.coordinator[Below(rng, corpus.coordinator.size())].payload;
      ASSERT_TRUE(Send(conn->fd(), MutatedFrame(victim, donor, rng)));
    }
    for (;;) {
      common::Status read =
          reader.Read(conn->fd(), &frame, 3 * kFuzzReadTimeoutMs);
      if (!read.ok()) {
        ASSERT_EQ(read.message().find("timed out"), std::string::npos)
            << "round " << round << ": the worker stalled";
        ASSERT_FALSE(clean) << "round " << round << ": " << read;
        ++dropped;
        break;
      }
      if (frame.type != net::FrameType::kStoreFind) {
        if (clean) {
          ASSERT_EQ(frame.type, net::FrameType::kReports) << "round " << round;
          ASSERT_EQ(frame.payload, corpus.worker[1 + batch].payload)
              << "round " << round;
        }
        ++replied;
        break;
      }
      // A store request: a mutated record half the time, else a mutated
      // miss, failure or save ack, each under its own type so that the
      // worker's round trip ends.
      ++store_answers;
      const net::Frame& answer = Below(rng, 2) == 0
                                     ? corpus.coordinator[5]
                                     : corpus.coordinator[6 + Below(rng, 3)];
      ASSERT_TRUE(Send(conn->fd(),
                       MutatedFrame(answer, corpus.coordinator[5].payload, rng,
                                    /*retype=*/false)));
    }
  }
  std::cerr << replied << " replies, " << dropped << " drops, "
            << store_answers << " store answers\n";
  EXPECT_GT(replied, 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(store_answers, 0u);

  service::TcpTransportOptions tcp_options;
  tcp_options.workers = loopback.addresses();
  auto run = service::TcpTransport(tcp_options).Run(
      *fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run->reports.size(), fleet.sheet.size());
  for (size_t i = 0; i < fleet.sheet.size(); ++i) {
    EXPECT_EQ(run->reports[i].ToString(), corpus.reports[i].ToString()) << i;
  }
}

// 1,000 audits against a fake worker that answers the hello and the
// three batches as a real one would, except that one frame of the
// conversation (the ack, one of the replies, or the stats) is mutated
// and re-framed. Every run ends in a status, well inside its timeouts.
TEST(FrameFuzzTest, MutatedPayloadsReachACoordinator) {
  Fleet fleet = MakeFleet();
  WireCorpus corpus = MakeWireCorpus(fleet);
  ASSERT_EQ(corpus.worker.size(), 7u);
  auto bound = net::Listener::Bind(0);
  ASSERT_TRUE(bound.ok()) << bound.status();
  net::Listener listener = std::move(bound).value();
  constexpr int kRuns = 1000;
  std::thread fake([&] {
    std::mt19937_64 rng(kFuzzSeed + 2);
    for (int run = 0; run < kRuns; ++run) {
      auto conn = listener.Accept(10000);
      if (!conn.ok()) return;
      const int fd = conn->fd();
      // 0: the ack; 1-3: a batch's reports; 4: the stats.
      const size_t victim = Below(rng, 5);
      auto send = [&](const net::Frame& frame, size_t step) {
        const std::string& donor =
            corpus.worker[Below(rng, corpus.worker.size())].payload;
        return Send(fd, step == victim ? MutatedFrame(frame, donor, rng)
                                       : Encode(frame));
      };
      net::FrameReader reader;
      net::Frame frame;
      if (!reader.Read(fd, &frame, kFuzzReadTimeoutMs).ok() ||
          !send(corpus.worker[0], 0)) {
        continue;
      }
      std::vector<BatchIndices> batches;
      while (batches.size() < 3 &&
             reader.Read(fd, &frame, kFuzzReadTimeoutMs).ok()) {
        batches.push_back(DecodeBatchIndices(frame.payload));
      }
      bool sent = batches.size() == 3;
      for (size_t k = 0; sent && k < batches.size(); ++k) {
        snapshot::ByteWriter reports;
        reports.PutU32(batches[k].id);
        reports.PutU32(static_cast<uint32_t>(batches[k].indices.size()));
        for (uint32_t gi : batches[k].indices) {
          service::wire::PutReport(reports, gi, corpus.reports[gi]);
        }
        sent = send({net::FrameType::kReports, reports.Release()}, 1 + k);
      }
      // A coordinator that accepted every reply sends kDone at once; one
      // still waiting gets the hang-up instead.
      if (sent && reader.Read(fd, &frame, 200).ok() &&
          frame.type == net::FrameType::kDone) {
        send(corpus.worker[4], 4);
      }
    }
  });
  service::TcpTransportOptions tcp_options;
  tcp_options.workers = {common::StrCat("127.0.0.1:", listener.port())};
  tcp_options.dial.attempts = 1;
  tcp_options.io_timeout_ms = kFuzzReadTimeoutMs;
  size_t ok = 0;
  for (int run = 0; run < kRuns; ++run) {
    const auto start = std::chrono::steady_clock::now();
    auto result = service::TcpTransport(tcp_options).Run(
        *fleet.schema, *fleet.users, fleet.sheet, nullptr);
    if (std::chrono::steady_clock::now() - start >=
        std::chrono::milliseconds(2 * kFuzzReadTimeoutMs)) {
      ADD_FAILURE() << "run " << run << " took too long: " << result.status();
      break;
    }
    if (result.ok()) ++ok;
  }
  fake.join();
  std::cerr << ok << " of " << kRuns << " runs succeeded\n";
  EXPECT_GT(ok, 0u);
  EXPECT_LT(ok, static_cast<size_t>(kRuns));
}

// ---------------------------------------------------------------------------
// The fork transport's lifecycle: however a run ends, every forked
// worker is killed and reaped before Run returns, and the coordinator
// starts no thread, so the caller is single-threaded again. (A child that dies
// mid-audit is just a dead TCP worker: WorkerDeathRequeuesToSurvivor
// and AllWorkersDeadFailsAudit pin that path.)

// ThreadSanitizer's runtime keeps a background thread of its own.
#if defined(__SANITIZE_THREAD__)
constexpr size_t kRuntimeThreads = 1;
#else
constexpr size_t kRuntimeThreads = 0;
#endif

void ExpectNoChildrenAndOneThread(const char* after) {
  int wstatus = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &wstatus, WNOHANG), -1)
      << "a forked worker outlived the " << after << " run";
  EXPECT_EQ(errno, ECHILD) << after;
  // A joined thread's task entry can outlive pthread_join by a moment
  // (the kernel wakes the joiner before it reaps the thread), so the
  // count gets a bounded moment to settle.
  size_t tasks = 0;
  for (int attempt = 0; attempt < 100; ++attempt) {
    tasks = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)entry;
      ++tasks;
    }
    if (tasks == 1 + kRuntimeThreads) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(tasks, 1 + kRuntimeThreads)
      << "threads left behind by the " << after << " run";
}

TEST(ForkShardTest, EveryRunReapsItsWorkersAndThreads) {
  Fleet fleet = MakeFleet();
  ScopedTempDir tmp("oodbsec_net_test");
  ASSERT_TRUE(tmp.ok());
  ExpectNoChildrenAndOneThread("earlier");

  service::ShardOptions options;
  options.shard_count = 2;
  service::ForkTransport clean_transport(options);
  auto clean =
      clean_transport.Run(*fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ExpectNoChildrenAndOneThread("clean");

  std::vector<core::Requirement> haunted = fleet.sheet;
  auto ghost = core::ParseRequirementString("(ghost, r_salary(x) : ti)");
  ASSERT_TRUE(ghost.ok()) << ghost.status();
  haunted.insert(haunted.begin() + 2, std::move(ghost).value());
  auto failed = service::RunShardedBatch(*fleet.schema, *fleet.users,
                                         haunted, options);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), common::StatusCode::kNotFound);
  ExpectNoChildrenAndOneThread("failing");

  std::shared_ptr<snapshot::SnapshotStore> store = OpenPack(tmp.path());
  ASSERT_NE(store, nullptr);
  options.snapshot_store = store;
  options.save_snapshots = true;
  auto stored = service::RunShardedBatch(*fleet.schema, *fleet.users,
                                         fleet.sheet, options);
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_EQ(stored->merged_stats.closures_built, 3u);
  EXPECT_EQ(store->Stats().entries, 3u);
  ExpectNoChildrenAndOneThread("stored");

  // Only now may a thread pool exist: the reference batch.
  core::AnalysisSession session(*fleet.schema, *fleet.users);
  service::AnalysisService single(session);
  auto single_run = single.CheckBatch(fleet.sheet);
  ASSERT_TRUE(single_run.ok()) << single_run.status();
  for (size_t i = 0; i < fleet.sheet.size(); ++i) {
    EXPECT_EQ(clean->reports[i].ToString(), single_run.value()[i].ToString());
    EXPECT_EQ(stored->reports[i].ToString(),
              single_run.value()[i].ToString());
  }
}

}  // namespace
}  // namespace oodbsec
