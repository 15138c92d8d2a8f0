// Sharded multi-process audit on one machine: fork N workers, fan a
// requirement batch out over them, merge their reports back
// deterministically.
//
// The paper's A(R) is per-user, so a population-scale audit partitions
// perfectly: no fact ever flows between two users' closures. The unit
// of partitioning is the *capability signature* (the service's cache
// key, capability_signature.h), not the user — all requirements whose
// users share a grant bundle land on the same worker, so each distinct
// fixpoint is computed exactly once across the whole fleet. A
// signature goes to its ShardOf worker, a pure function of the
// signature string, unless that worker already holds its fair share of
// the requirements (see TcpTransport's plan).
//
// The fork transport is the TCP transport (service/tcp_shard.h) with a
// fleet of forked children: RunShardedBatch binds shard_count loopback
// listeners, forks one child per listener that runs ServeShardWorker
// over the inherited schema (copy-on-write, no re-parsing), and drives
// them with a per-run TcpTransport. One transport means one wire, one
// worker loop, and one recovery story: a child that dies mid-audit has
// its batches re-queued to the survivors like any TCP worker's, and the
// audit fails only when every child died. Children hold no store of
// their own; when a snapshot store is configured they find and save
// through store frames on their shard connections, which the
// coordinator answers, so it is the store's single writer — a fleet
// restart replays persisted derivation logs instead of re-running
// fixpoints, and with save_snapshots set, workers persist what they
// built, warming the next run.
//
// Determinism contract: RunShardedBatch produces reports byte-identical
// to a fresh single-process AnalysisService::CheckBatch over the same
// requirements — same input order, same verdicts, flaw sites, fact
// counts, and derivation text — for any shard_count (workers build
// misses cold, and a loaded snapshot replays the saved cold log bit for
// bit). On failure the error is the one the earliest failing
// requirement in input order would have produced, exactly as
// CheckBatch reports it.
//
// Lifecycle: every child is killed and reaped before RunShardedBatch
// returns — on every path — and the coordinator starts no thread, so
// the caller is single-threaded again afterwards. Children also die with
// the coordinator (PR_SET_PDEATHSIG). fork() is only safe from a
// single-threaded process image: call RunShardedBatch before spinning
// up thread pools.
#ifndef OODBSEC_SERVICE_SHARD_H_
#define OODBSEC_SERVICE_SHARD_H_

#include <cstddef>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/closure.h"
#include "core/closure_cache.h"
#include "core/requirement.h"
#include "obs/obs.h"
#include "schema/schema.h"
#include "schema/user.h"
#include "service/analysis_service.h"
#include "snapshot/snapshot_store.h"

namespace oodbsec::service {

struct ShardOptions {
  // Worker processes to fork. 1 still forks (uniform code path).
  int shard_count = 4;
  // Threads per worker process. Each worker serves its batches on one
  // thread; any value but 1 is InvalidArgument.
  int threads = 1;
  // Fixpoint semantics, forwarded to every worker (closure.closure_threads
  // is ignored and part of no cache key).
  core::ClosureOptions closure;
  size_t cache_capacity = core::ClosureCache::kDefaultCapacity;
  // Workers persist every closure they build into snapshot_store.
  bool save_snapshots = false;
  // The coordinator's snapshot store, served to every worker as its L2
  // closure tier (see snapshot/snapshot_store.h).
  std::shared_ptr<snapshot::SnapshotStore> snapshot_store;
};

struct ShardedBatchResult {
  // Input order, byte-identical to single-process CheckBatch (see the
  // determinism contract above).
  std::vector<core::AnalysisReport> reports;
  // Element-wise sum of the workers' ServiceStats. Best-effort when a
  // worker died: its counters never arrive; the reports are the
  // contract.
  ServiceStats merged_stats;
  // Indexed by worker; workers with no requirements report zeros.
  std::vector<ServiceStats> shard_stats;
  // Requirements each worker answered.
  std::vector<size_t> shard_requirements;
};

// A signature's preferred worker. shard_count must be >= 1; the result
// is in [0, shard_count). Pure function of the bytes of `signature` —
// stable across processes, runs, and machines.
int ShardOf(std::string_view signature, int shard_count);

// Forks options.shard_count workers, audits `requirements` on them
// through a per-run TcpTransport, and reaps them. `obs` (optional,
// coordinator side) gets the transport's "tcp.batch" span and its
// "shard.*" / "net.*" counters.
common::Result<ShardedBatchResult> RunShardedBatch(
    const schema::Schema& schema, const schema::UserRegistry& users,
    const std::vector<core::Requirement>& requirements,
    const ShardOptions& options, obs::Observability* obs = nullptr);

// RunShardedBatch with its options bound, so audit code can hold a
// fork fleet's configuration the way it holds a TcpTransport. Carries
// the fork() caveat above: Run() must be called from a single-threaded
// process image.
class ForkTransport {
 public:
  explicit ForkTransport(ShardOptions options)
      : options_(std::move(options)) {}
  common::Result<ShardedBatchResult> Run(
      const schema::Schema& schema, const schema::UserRegistry& users,
      const std::vector<core::Requirement>& requirements,
      obs::Observability* obs) {
    return RunShardedBatch(schema, users, requirements, options_, obs);
  }

 private:
  ShardOptions options_;
};

}  // namespace oodbsec::service

#endif  // OODBSEC_SERVICE_SHARD_H_
