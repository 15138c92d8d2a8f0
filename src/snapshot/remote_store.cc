#include "snapshot/remote_store.h"

#include <sys/socket.h>

#include <utility>

#include "common/strings.h"
#include "net/frame.h"
#include "snapshot/binio.h"
#include "snapshot/snapshot.h"

namespace oodbsec::snapshot {

namespace {

using net::Frame;
using net::FrameType;

// Encodes a non-ok status into a kStoreFail / kStoreSaveAck payload.
std::string EncodeStatusPayload(const common::Status& status) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
  return w.Release();
}

common::Status DecodeStatusPayload(std::string_view payload,
                                   std::string_view what) {
  ByteReader r(payload);
  auto code = static_cast<common::StatusCode>(r.GetU8());
  std::string message = r.GetString();
  if (!r.ok() || !r.exhausted()) {
    return common::InternalError(
        common::StrCat("remote store: malformed ", what, " payload"));
  }
  if (code == common::StatusCode::kOk) return common::Status::Ok();
  return common::Status(code, std::move(message));
}

// --- client ----------------------------------------------------------

class RemoteSnapshotStore : public SnapshotStore {
 public:
  RemoteSnapshotStore(std::string host_port, RemoteStoreOptions options)
      : host_port_(std::move(host_port)), options_(options) {}

  common::Result<std::shared_ptr<const core::CachedAnalysis>> Find(
      const schema::Schema& schema, const core::ClosureOptions& options,
      const std::vector<std::string>& roots, obs::Observability* obs) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++finds_;
    ByteWriter request;
    request.PutU32(static_cast<uint32_t>(roots.size()));
    for (const std::string& root : roots) request.PutString(root);
    Frame reply;
    OODBSEC_RETURN_IF_ERROR(RoundTrip(schema, options, FrameType::kStoreFind,
                                      request.buffer(), &reply));
    switch (reply.type) {
      case FrameType::kStoreFound:
        return DecodeEntry(schema, options,
                           common::StrCat("remote:", host_port_),
                           reply.payload, obs);
      case FrameType::kStoreMiss:
        return common::NotFoundError(reply.payload);
      case FrameType::kStoreFail:
        return DecodeStatusPayload(reply.payload, "find");
      default:
        Drop();
        return common::InternalError(
            "remote store: unexpected reply to find");
    }
  }

  common::Status Save(const schema::Schema& schema,
                      const core::ClosureOptions& options,
                      const core::CachedAnalysis& entry) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++saves_;
    std::string bytes = BuildEntryBytes(schema, options, entry);
    if (bytes.empty()) {
      return common::InvalidArgumentError("snapshot: entry has no closure");
    }
    Frame reply;
    OODBSEC_RETURN_IF_ERROR(
        RoundTrip(schema, options, FrameType::kStoreSave, bytes, &reply));
    if (reply.type != FrameType::kStoreSaveAck) {
      Drop();
      return common::InternalError("remote store: unexpected reply to save");
    }
    return DecodeStatusPayload(reply.payload, "save ack");
  }

  common::Result<StoreSweepStats> Sweep(uint64_t) override {
    return common::FailedPreconditionError(
        "remote store: sweep runs server-side (sweep the backing store)");
  }

  StoreStats Stats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    StoreStats stats = server_stats_;
    stats.description = common::StrCat("remote:", host_port_);
    stats.finds = finds_;
    stats.saves = saves_;
    stats.sweeps = 0;
    // Refresh sizing fields from the server when a helloed connection
    // is at hand; otherwise serve the last observation (never dial from
    // Stats — it is a diagnostics call, not an operation).
    if (conn_.valid()) {
      auto self = const_cast<RemoteSnapshotStore*>(this);
      Frame reply;
      if (net::WriteFrame(conn_.fd(), FrameType::kStoreStats, {},
                          options_.io_timeout_ms)
              .ok() &&
          net::ReadFrame(conn_.fd(), &reply, options_.io_timeout_ms).ok() &&
          reply.type == FrameType::kStoreStatsReply) {
        ByteReader r(reply.payload);
        StoreStats server;
        server.description = r.GetString();
        server.entries = r.GetU64();
        server.file_bytes = r.GetU64();
        server.live_bytes = r.GetU64();
        server.stale_bytes = r.GetU64();
        server.finds = r.GetU64();
        server.saves = r.GetU64();
        server.sweeps = r.GetU64();
        server.page_cache_hits = r.GetU64();
        server.page_cache_misses = r.GetU64();
        server.page_cache_evictions = r.GetU64();
        if (r.exhausted()) {
          self->server_stats_ = server;
          stats = server;
          stats.description =
              common::StrCat("remote:", host_port_, " -> ",
                             server.description);
          stats.finds = finds_;
          stats.saves = saves_;
        }
      } else {
        self->Drop();
      }
    }
    return stats;
  }

  std::vector<std::shared_ptr<const core::CachedAnalysis>> LoadAll(
      const schema::Schema&, const core::ClosureOptions&, size_t,
      size_t* invalid, obs::Observability*) override {
    if (invalid != nullptr) *invalid = 0;
    return {};
  }

 private:
  // Dial + hello if needed, send `request`, read one reply into *reply.
  // One bounded reconnect: an operation fails only when the retry also
  // fails. Caller holds mu_.
  common::Status RoundTrip(const schema::Schema& schema,
                           const core::ClosureOptions& options,
                           FrameType type, std::string_view request,
                           Frame* reply) {
    common::Status last =
        common::InternalError("remote store: no attempt made");
    for (int attempt = 0; attempt < 2; ++attempt) {
      common::Status connected = EnsureConnected(schema, options);
      if (!connected.ok()) {
        // A refused hello is terminal (version/endianness/fingerprint
        // mismatch); a failed dial may be transient.
        if (connected.code() == common::StatusCode::kFailedPrecondition) {
          return connected;
        }
        last = std::move(connected);
        continue;
      }
      if (!net::WriteFrame(conn_.fd(), type, request, options_.io_timeout_ms)
               .ok()) {
        Drop();
        last = common::InternalError("remote store: request write failed");
        continue;
      }
      common::Status read =
          net::ReadFrame(conn_.fd(), reply, options_.io_timeout_ms);
      if (!read.ok()) {
        Drop();
        last = common::InternalError(common::StrCat(
            "remote store: reply read failed: ", read.message()));
        continue;
      }
      return common::Status::Ok();
    }
    return last;
  }

  common::Status EnsureConnected(const schema::Schema& schema,
                                 const core::ClosureOptions& options) {
    if (!refused_.ok()) return refused_;
    if (conn_.valid()) return common::Status::Ok();
    auto dialed = net::Dial(host_port_, options_.dial);
    if (!dialed.ok()) return dialed.status();
    net::Socket conn = std::move(dialed).value();

    ByteWriter hello;
    hello.PutU32(net::kProtocolVersion);
    hello.PutU32(kByteOrderMark);
    hello.PutU64(SchemaFingerprint(schema, options));
    if (!net::WriteFrame(conn.fd(), FrameType::kStoreHello, hello.buffer(),
                         options_.io_timeout_ms)
             .ok()) {
      return common::InternalError("remote store: hello write failed");
    }
    Frame ack;
    common::Status read =
        net::ReadFrame(conn.fd(), &ack, options_.io_timeout_ms);
    if (!read.ok() || ack.type != FrameType::kStoreHelloAck) {
      return common::InternalError("remote store: hello ack not received");
    }
    ByteReader r(ack.payload);
    uint8_t accepted = r.GetU8();
    std::string message = r.GetString();
    if (!r.ok() || !r.exhausted()) {
      return common::InternalError("remote store: malformed hello ack");
    }
    if (accepted == 0) {
      refused_ = common::FailedPreconditionError(
          common::StrCat("remote store ", host_port_, " refused: ", message));
      return refused_;
    }
    conn_ = std::move(conn);
    return common::Status::Ok();
  }

  void Drop() { conn_.Close(); }

  const std::string host_port_;
  const RemoteStoreOptions options_;
  mutable std::mutex mu_;
  mutable net::Socket conn_;
  common::Status refused_ = common::Status::Ok();
  uint64_t finds_ = 0;
  uint64_t saves_ = 0;
  StoreStats server_stats_;
};

}  // namespace

std::shared_ptr<SnapshotStore> OpenRemoteStore(
    std::string host_port, const RemoteStoreOptions& options) {
  return std::make_shared<RemoteSnapshotStore>(std::move(host_port), options);
}

// --- server ----------------------------------------------------------

StoreServer::~StoreServer() { Stop(); }

common::Status StoreServer::Start(const schema::Schema& schema,
                                  const core::ClosureOptions& options,
                                  std::shared_ptr<SnapshotStore> backing,
                                  uint16_t port, bool loopback_only) {
  if (backing == nullptr) {
    return common::InvalidArgumentError("store server: no backing store");
  }
  if (running()) {
    return common::FailedPreconditionError("store server: already running");
  }
  auto bound = net::Listener::Bind(port, loopback_only);
  if (!bound.ok()) return bound.status();
  schema_ = &schema;
  options_ = options;
  backing_ = std::move(backing);
  fingerprint_ = SchemaFingerprint(schema, options);
  listener_ = std::move(bound).value();
  port_ = listener_.port();
  stop_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return common::Status::Ok();
}

void StoreServer::Stop() {
  if (!running()) return;
  stop_.store(true);
  // Wakes the accept loop out of its poll at once instead of at the
  // next 200ms timeout.
  ::shutdown(listener_.fd(), SHUT_RDWR);
  accept_thread_.join();
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections.swap(connections_);
  }
  for (std::thread& t : connections) t.join();
}

void StoreServer::AcceptLoop() {
  while (!stop_.load()) {
    auto accepted = listener_.Accept(/*timeout_ms=*/200);
    if (!accepted.ok()) continue;  // timeout: re-check the stop flag
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections_.emplace_back(
        [this, conn = std::move(accepted).value()]() mutable {
          ServeConnection(std::move(conn));
        });
  }
}

void StoreServer::ServeConnection(net::Socket conn) {
  bool helloed = false;
  while (!stop_.load()) {
    int ready = net::WaitReadable(conn.fd(), 200);
    if (ready < 0) return;
    if (ready == 0) continue;
    Frame frame;
    if (!net::ReadFrame(conn.fd(), &frame, io_timeout_ms_).ok()) return;

    if (frame.type == FrameType::kStoreHello) {
      ByteReader r(frame.payload);
      uint32_t version = r.GetU32();
      uint32_t byte_order = r.GetU32();
      uint64_t fingerprint = r.GetU64();
      std::string refuse;
      if (!r.ok() || !r.exhausted()) {
        refuse = "malformed hello";
      } else if (version != net::kProtocolVersion) {
        refuse = common::StrCat("protocol version mismatch (client ",
                                version, ", server ",
                                net::kProtocolVersion, ")");
      } else if (byte_order != kByteOrderMark) {
        refuse = "byte-order mismatch (foreign-endian peer)";
      } else if (fingerprint != fingerprint_) {
        refuse = "schema fingerprint mismatch (different schema or options)";
      }
      ByteWriter ack;
      ack.PutU8(refuse.empty() ? 1 : 0);
      ack.PutString(refuse);
      if (!net::WriteFrame(conn.fd(), FrameType::kStoreHelloAck, ack.buffer(),
                           io_timeout_ms_)
               .ok() ||
          !refuse.empty()) {
        return;
      }
      helloed = true;
      continue;
    }
    if (!helloed) return;  // protocol error: operations before hello

    switch (frame.type) {
      case FrameType::kStoreFind: {
        ByteReader r(frame.payload);
        std::vector<std::string> roots;
        uint32_t count = r.GetU32();
        for (uint32_t i = 0; i < count && r.ok(); ++i) {
          roots.push_back(r.GetString());
        }
        if (!r.ok() || !r.exhausted()) return;
        auto found = backing_->Find(*schema_, options_, roots);
        common::Status write = common::Status::Ok();
        if (found.ok()) {
          // Re-encode the replayed, digest-verified entry as a v3
          // record; the client re-validates on its side of the wire.
          write = net::WriteFrame(conn.fd(), FrameType::kStoreFound,
                                  BuildEntryBytes(*schema_, options_,
                                                  *found.value()),
                                  io_timeout_ms_);
        } else if (found.status().code() == common::StatusCode::kNotFound) {
          write = net::WriteFrame(conn.fd(), FrameType::kStoreMiss,
                                  found.status().message(), io_timeout_ms_);
        } else {
          write = net::WriteFrame(conn.fd(), FrameType::kStoreFail,
                                  EncodeStatusPayload(found.status()),
                                  io_timeout_ms_);
        }
        if (!write.ok()) return;
        break;
      }
      case FrameType::kStoreSave: {
        // Validate before touching the backing store: DecodeEntry
        // replays and digest-checks, so hostile or stale bytes are
        // refused here with the specific diagnosis.
        common::Status outcome = common::Status::Ok();
        auto decoded = DecodeEntry(*schema_, options_, "store-server save",
                                   frame.payload);
        if (decoded.ok()) {
          outcome = backing_->Save(*schema_, options_, *decoded.value());
        } else {
          outcome = decoded.status();
        }
        if (!net::WriteFrame(conn.fd(), FrameType::kStoreSaveAck,
                             EncodeStatusPayload(outcome), io_timeout_ms_)
                 .ok()) {
          return;
        }
        break;
      }
      case FrameType::kStoreStats: {
        StoreStats stats = backing_->Stats();
        ByteWriter w;
        w.PutString(stats.description);
        w.PutU64(stats.entries);
        w.PutU64(stats.file_bytes);
        w.PutU64(stats.live_bytes);
        w.PutU64(stats.stale_bytes);
        w.PutU64(stats.finds);
        w.PutU64(stats.saves);
        w.PutU64(stats.sweeps);
        w.PutU64(stats.page_cache_hits);
        w.PutU64(stats.page_cache_misses);
        w.PutU64(stats.page_cache_evictions);
        if (!net::WriteFrame(conn.fd(), FrameType::kStoreStatsReply,
                             w.buffer(), io_timeout_ms_)
                 .ok()) {
          return;
        }
        break;
      }
      default:
        return;  // unknown request: drop the connection
    }
  }
}

}  // namespace oodbsec::snapshot
