// The networked snapshot tier: a SnapshotStore client and the server
// that fronts a real store over TCP.
//
// A shard fleet (service/tcp_shard.h) wants every worker warm, but the
// packed segment lives on the coordinator's disk. Rather than share
// the pack file, the coordinator runs a StoreServer in front of its
// store and each worker — a forked child or a remote process alike —
// mounts a RemoteSnapshotStore: the same SnapshotStore interface the
// closure cache already speaks, so the L1/L2 tiering code does not
// know the L2 is remote. The server is then the store's single writer.
//
// What crosses the wire is one v3 snapshot record (BuildEntryBytes,
// snapshot/snapshot.h) — the same bytes a pack stores. Both ends
// validate independently: the server replays and digest-checks before
// encoding, the client re-validates with DecodeEntry after the bytes
// arrive (and the server does the same for a save before persisting),
// so a lying peer or a corrupted frame degrades to a miss, never to a
// wrong closure.
//
// Protocol (net/frame.h kStore* frames, one request in flight per
// connection): hello carries the protocol version, the byte-order
// mark, and the schema fingerprint; a mismatch in any is refused with
// a message. Then Find(roots) -> Found(bytes) | Miss | Fail,
// Save(bytes) -> SaveAck, Stats -> StatsReply. The client reconnects
// (bounded) after an I/O failure and fails an operation only when the
// retry also fails; a hello *refusal* is cached and fails fast — a
// fingerprint mismatch will not fix itself mid-audit.
#ifndef OODBSEC_SNAPSHOT_REMOTE_STORE_H_
#define OODBSEC_SNAPSHOT_REMOTE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/closure.h"
#include "net/socket.h"
#include "schema/schema.h"
#include "snapshot/snapshot_store.h"

namespace oodbsec::snapshot {

struct RemoteStoreOptions {
  // Per-operation stall bound (frame read/write).
  int io_timeout_ms = 30000;
  // Bounded-retry dialing (see net/socket.h).
  net::DialOptions dial;
};

// Opens a SnapshotStore speaking the store protocol to `host_port`.
// The connection is lazy (first Find/Save dials and hellos), so opening
// never blocks. Sweep is server-side only and returns kFailedPrecondition;
// LoadAll over the wire is deliberately unsupported (returns empty) —
// remote warmth comes from per-signature Finds.
std::shared_ptr<SnapshotStore> OpenRemoteStore(
    std::string host_port, const RemoteStoreOptions& options = {});

// Serves a backing SnapshotStore to RemoteSnapshotStore clients.
// Thread-per-connection; Start binds (ephemeral when port == 0, check
// port() after) and returns immediately. `schema` and `backing` must
// outlive the server. Stop() (and the destructor) drains connections.
class StoreServer {
 public:
  StoreServer() = default;
  ~StoreServer();
  StoreServer(const StoreServer&) = delete;
  StoreServer& operator=(const StoreServer&) = delete;

  common::Status Start(const schema::Schema& schema,
                       const core::ClosureOptions& options,
                       std::shared_ptr<SnapshotStore> backing,
                       uint16_t port = 0, bool loopback_only = true);
  uint16_t port() const { return port_; }
  bool running() const { return accept_thread_.joinable(); }
  void Stop();

 private:
  void AcceptLoop();
  void ServeConnection(net::Socket conn);

  const schema::Schema* schema_ = nullptr;
  core::ClosureOptions options_;
  std::shared_ptr<SnapshotStore> backing_;
  uint64_t fingerprint_ = 0;
  int io_timeout_ms_ = 30000;
  net::Listener listener_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::vector<std::thread> connections_;
};

}  // namespace oodbsec::snapshot

#endif  // OODBSEC_SNAPSHOT_REMOTE_STORE_H_
