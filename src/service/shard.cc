#include "service/shard.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <string>
#include <utility>

#include "common/strings.h"
#include "net/socket.h"
#include "service/tcp_shard.h"
#include "snapshot/binio.h"

namespace oodbsec::service {

int ShardOf(std::string_view signature, int shard_count) {
  if (shard_count <= 1) return 0;
  // FNV-1a mixes poorly at both ends of the word: its low bits depend
  // only on the low bits of the input bytes (so `hash % n` piles
  // signatures that differ in a repeated digit onto one shard), and the
  // last byte reaches only the low ~44 bits (so the high word alone
  // piles signatures that differ in a trailing digit). The murmur3
  // finalizer spreads every bit over the word; multiply-high then maps
  // it onto [0, shard_count).
  uint64_t h = snapshot::Fnv1a64(signature);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return static_cast<int>((static_cast<unsigned __int128>(h) *
                           static_cast<uint64_t>(shard_count)) >>
                          64);
}

common::Result<ShardedBatchResult> RunShardedBatch(
    const schema::Schema& schema, const schema::UserRegistry& users,
    const std::vector<core::Requirement>& requirements,
    const ShardOptions& options, obs::Observability* obs) {
  if (options.shard_count < 1) {
    return common::InvalidArgumentError("shard_count must be >= 1");
  }
  if (options.threads != 1) {
    return common::InvalidArgumentError(
        "shard: threads must be 1 (each worker serves on one thread)");
  }

  // Bind every listener before the first fork, so the coordinator can
  // dial a child the moment it exists: connects queue on the listener
  // until the child accepts.
  std::vector<net::Listener> listeners;
  TcpTransportOptions tcp;
  for (int s = 0; s < options.shard_count; ++s) {
    OODBSEC_ASSIGN_OR_RETURN(net::Listener listener, net::Listener::Bind(0));
    tcp.workers.push_back(common::StrCat("127.0.0.1:", listener.port()));
    listeners.push_back(std::move(listener));
  }

  TcpWorkerOptions worker;
  worker.closure = options.closure;
  worker.cache_capacity = options.cache_capacity;
  std::vector<pid_t> children;
  const pid_t parent = ::getpid();
  for (size_t s = 0; s < listeners.size(); ++s) {
    const pid_t pid = ::fork();
    if (pid < 0) break;
    if (pid == 0) {
      // Child: die with the coordinator, keep only its own listener,
      // and serve until killed. _exit skips the inherited atexit state.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(1);
      net::Listener own = std::move(listeners[s]);
      listeners.clear();
      common::Status status = ServeShardWorker(own, schema, worker);
      ::_exit(status.ok() ? 0 : 1);
    }
    children.push_back(pid);
  }
  listeners.clear();  // each child holds its own copy

  common::Result<ShardedBatchResult> result =
      common::InternalError("shard: fork() failed");
  {
    tcp.closure = options.closure;
    tcp.snapshot_store = options.snapshot_store;
    tcp.save_snapshots = options.save_snapshots;
    TcpTransport transport(std::move(tcp));
    if (children.size() == static_cast<size_t>(options.shard_count)) {
      result = transport.Run(schema, users, requirements, obs);
    }
    // Kill the children before the transport (and its store server)
    // goes: their store connections then close at once instead of
    // holding the server's shutdown up.
    for (pid_t pid : children) ::kill(pid, SIGKILL);
    for (pid_t pid : children) {
      while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
      }
    }
  }
  return result;
}

}  // namespace oodbsec::service
