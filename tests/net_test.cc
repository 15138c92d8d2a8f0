// Distributed-transport tests: the frame codec's robustness contract,
// signal-free writes to vanished peers, the TCP shard transport's
// byte-identity triangle against fork and single-process CheckBatch,
// worker-death re-queue, the fork transport's process lifecycle, and
// the networked snapshot tier.
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

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
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

// Writes raw, unframed bytes to a test socket.
bool Send(int fd, std::string_view bytes) {
  return net::WriteFullTimeout(fd, bytes.data(), bytes.size(), 1000);
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

  net::Frame frame;
  ASSERT_TRUE(net::ReadFrame(fds[1], &frame, 1000).ok());
  EXPECT_EQ(frame.type, net::FrameType::kBatch);
  EXPECT_EQ(frame.payload, payload);
  ASSERT_TRUE(net::ReadFrame(fds[1], &frame, 1000).ok());
  EXPECT_EQ(frame.type, net::FrameType::kDone);
  EXPECT_TRUE(frame.payload.empty());

  // Clean EOF between frames: the orderly-shutdown signal.
  auto eof = net::ReadFrame(fds[1], &frame, 1000);
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

  net::Frame frame;
  auto status = net::ReadFrame(fds[1], &frame, 1000);
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

  net::Frame frame;
  auto status = net::ReadFrame(fds[1], &frame, 1000);
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

  net::Frame frame;
  auto status = net::ReadFrame(fds[1], &frame, 1000);
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

  net::Frame frame;
  auto status = net::ReadFrame(fds[1], &frame, 1000);
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
  net::Frame frame;
  auto status = net::ReadFrame(fds[1], &frame, 1000);
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
      !net::WriteFullTimeout(fds[0], bytes.data(), bytes.size(), 1000) &&
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
    tcp_failed = !net::WriteFullTimeout(dialed->fd(), bytes.data(),
                                        bytes.size(), 1000);
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
    net::Frame hello;
    if (!conn.ok() || !net::ReadFrame(conn->fd(), &hello, 10000).ok()) {
      std::_Exit(1);
    }
    snapshot::ByteWriter ack;
    ack.PutU8(1);
    ack.PutString("");
    if (!net::WriteFrame(conn->fd(), net::FrameType::kHelloAck, ack.buffer(),
                         10000)
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
// protocol: the coordinator treats the worker as dead.
TEST(TcpShardTest, StoreFrameWhenNoneOfferedKillsTheWorker) {
  Fleet fleet = MakeFleet();
  auto bound = net::Listener::Bind(0);
  ASSERT_TRUE(bound.ok()) << bound.status();
  net::Listener listener = std::move(bound).value();
  std::thread rogue([&listener] {
    auto conn = listener.Accept(10000);
    net::Frame frame;
    if (!conn.ok() || !net::ReadFrame(conn->fd(), &frame, 10000).ok()) return;
    snapshot::ByteWriter ack;
    ack.PutU8(1);
    ack.PutString("");
    snapshot::ByteWriter find;
    find.PutU32(0);
    if (!net::WriteFrame(conn->fd(), net::FrameType::kHelloAck, ack.buffer(),
                         10000)
             .ok() ||
        !net::WriteFrame(conn->fd(), net::FrameType::kStoreFind,
                         find.buffer(), 10000)
             .ok()) {
      return;
    }
    while (net::ReadFrame(conn->fd(), &frame, 10000).ok()) {
    }
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
