// TCP shard transport: the one shard transport.
//
// A coordinator dials a static worker list, streams signature-coalesced
// requirement batches as length-prefixed binio frames (net/frame.h),
// and merges the reply stream into a result byte-identical to
// single-process CheckBatch. The workers run ServeShardWorker, either
// as remote processes or as the forked children of RunShardedBatch
// (service/shard.h), which is this transport over a fleet it forks on
// loopback.
//
// What makes it fast rather than merely remote:
//
//   * Pipelined streaming. Up to max_in_flight batches ride unacked
//     per worker (1 = request/reply lockstep, the bench baseline), so
//     a worker finishing a batch always has the next one already in
//     its socket buffer instead of idling a round trip plus the
//     coordinator's service latency. The coordinator pumps every
//     worker from one poll() loop over nonblocking sockets. Each end
//     of a connection keeps one net::FrameQueue and one
//     net::FrameReader (net/frame.h): the queue drains through gather
//     sends of up to 32 frames (header and payload from their own
//     buffers — bytes are serialized exactly once), the reader
//     reassembles frames from whatever read() delivered, and a worker
//     coalesces the replies to the batches it already holds into one
//     send.
//   * Batch coalescing. Requirements sharing a capability signature
//     collapse into one batch (split at max_batch_requirements), so a
//     signature's closure crosses the planning path once per worker;
//     all chunks of a signature route to one worker. That worker is
//     the signature's ShardOf worker, for cache affinity across runs,
//     unless it already holds its fair share (ceil(requirements /
//     workers)) — then the least-loaded one, so a handful of
//     signatures still spreads evenly.
//   * Connection reuse. One connection per worker per Run; workers
//     keep their L1 closure cache across connections (persistent_cache)
//     so a warmed fleet answers repeat audits at exact-hit speed.
//
// Byte-identity under all of that — pipelining, requeue, persistent
// worker caches — holds because workers build cache misses COLD only
// (FindExact -> FindSnapshot -> cold BuildDetached; never a warm start
// or retraction): a fresh single-process CheckBatch builds every
// distinct signature cold, replaying a snapshot of a cold log is
// byte-identical to the cold build, and an exact hit returns the same
// object — so no matter which worker ends up with a batch, or whether
// it had the signature cached, the report bytes match.
//
// Robustness: every frame carries an FNV-1a checksum; connects retry
// bounded (net::DialOptions); reads and writes are stall-bounded. A
// worker that dies mid-audit (EOF, connection reset, poll error, or no
// progress for io_timeout_ms) has its unacknowledged and unsent
// batches re-queued to the surviving workers — a batch is acked only
// by a complete validated kReports/kBatchError frame that carries the
// batch's own indices, so nothing is double-applied and the merged
// report is unchanged. Only when the
// last worker dies does the audit fail. (Merged *stats* are
// best-effort under death: a dead worker never sends its kStats frame,
// so its counters are missing from merged_stats; the reports are the
// contract.)
//
// The networked snapshot tier: with a store configured, the
// coordinator's hello offers it, and a worker without a store of its
// own finds and saves through kStore* frames on the same connection,
// which the coordinator answers from its poll loop. A fresh fleet thus
// warms from the coordinator's packed segment without any file
// distribution, and (save_snapshots) persists what it builds back, the
// coordinator being the store's single writer. Both ends validate each
// record (DecodeEntry), and the worker also refuses a record whose
// roots are not the ones it asked for.
#ifndef OODBSEC_SERVICE_TCP_SHARD_H_
#define OODBSEC_SERVICE_TCP_SHARD_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/closure.h"
#include "core/closure_cache.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "schema/schema.h"
#include "schema/user.h"
#include "service/shard.h"
#include "snapshot/snapshot_store.h"

namespace oodbsec::service {

struct TcpTransportOptions {
  // Worker addresses ("host:port"), the static fleet. At least one.
  std::vector<std::string> workers;
  // Unacked batches allowed per worker. 1 = request/reply lockstep.
  int max_in_flight = 4;
  // Coalescing cap: a signature with more requirements is split into
  // chunks of this size (later chunks exact-hit the worker's cache).
  int max_batch_requirements = 32;
  core::ClosureOptions closure;
  // Stall bound for every socket operation; a worker making no
  // progress for this long is declared dead and its batches re-queued.
  int io_timeout_ms = 30000;
  net::DialOptions dial;
  // Coordinator-side snapshot store, offered in the hello and served
  // to workers over their shard connections.
  std::shared_ptr<snapshot::SnapshotStore> snapshot_store;
  // Ask workers to persist closures they build (into their own store,
  // or via kStoreSave into the coordinator's).
  bool save_snapshots = false;
};

// The TCP coordinator. Every transport owes the determinism contract
// of service/shard.h — reports byte-identical to single-process
// CheckBatch, earliest-failure error parity — which is what the
// transport parity tests pin. Run starts no thread, store or no store.
class TcpTransport {
 public:
  explicit TcpTransport(TcpTransportOptions options);

  common::Result<ShardedBatchResult> Run(
      const schema::Schema& schema, const schema::UserRegistry& users,
      const std::vector<core::Requirement>& requirements,
      obs::Observability* obs);

 private:
  TcpTransportOptions options_;
};

struct TcpWorkerOptions {
  core::ClosureOptions closure;
  size_t cache_capacity = core::ClosureCache::kDefaultCapacity;
  // Local store (L2). When null, the L2 is the store the coordinator's
  // hello offers, reached over the shard connection; a connection
  // whose hello offers none has no L2.
  std::shared_ptr<snapshot::SnapshotStore> snapshot_store;
  int io_timeout_ms = 30000;
  // Keep the L1 cache across connections (the warmed-fleet behaviour).
  bool persistent_cache = true;
  // Test seam: serve this many batches on a connection, then drop it
  // without kStats — a worker dying mid-audit. 0 = never.
  int abort_after_batches = 0;
};

// Serves shard batches on `listener` until `stop` goes true (checked
// every 200ms) or, when stop is null, forever. One connection at a
// time (a coordinator dials each worker exactly once per Run; repeat
// Runs reconnect and hit the persistent cache). `schema` must outlive
// the call. Returns only on stop (Ok) or a listener-level error.
common::Status ServeShardWorker(net::Listener& listener,
                                const schema::Schema& schema,
                                const TcpWorkerOptions& options,
                                const std::atomic<bool>* stop = nullptr);

}  // namespace oodbsec::service

#endif  // OODBSEC_SERVICE_TCP_SHARD_H_
