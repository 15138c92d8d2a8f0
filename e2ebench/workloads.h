// The measurement families every workload runs on its own generated
// workspace: cold population audits (in-process, fork, tcp), a packed
// store restart, and the workload's request stream; plus the traced
// layer-by-layer pass.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/closure_cache.h"
#include "generator.h"
#include "ledger.h"
#include "schema/user.h"
#include "text/workspace.h"

namespace e2ebench {

// Operations attempted and failed (errors and correctness-check
// mismatches alike). The first few failures are printed to stderr.
class Outcome {
 public:
  void Expect(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Loopback TCP shard workers, forked from a single-threaded process.
// The destructor kills and reaps every child.
class WorkerFleet {
 public:
  WorkerFleet(const oodbsec::schema::Schema& schema, int count,
              int closure_threads);
  ~WorkerFleet();
  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  bool ok() const { return ok_; }
  const std::vector<std::string>& addresses() const { return addresses_; }

 private:
  bool ok_ = false;
  std::vector<pid_t> pids_;
  std::vector<std::string> addresses_;
};

// A temporary directory under .bench_tmp/ in the working directory,
// removed with everything in it by the destructor.
class TempDir {
 public:
  TempDir();
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct Bench {
  const Inputs* in = nullptr;
  const oodbsec::text::Workspace* ws = nullptr;
  const std::vector<std::string>* tcp_workers = nullptr;
  std::string temp_dir;
  bool smoke = false;
  int nproc = 1;
  Outcome* outcome = nullptr;
  MetricSet* e2e = nullptr;
  MetricSet* layer = nullptr;
};

// One cold in-process audit of the workspace text (load + fresh
// session/service + CheckBatch): the set-up's warm-up.
bool AuditInProcessOnce(const Inputs& in);

// The measured families. The run interleaves them in short rounds, so
// each one samples the whole run window: Run(deadline) does at least one
// unit of work and keeps going until `deadline`; Finish() checks the
// outputs against the oracle (outside every timed region) and records
// the family's metrics.

// Cold population audits: in-process, fork and tcp, one of each a unit.
class AuditFamily {
 public:
  explicit AuditFamily(Bench& b) : b_(b) {}
  void Run(Clock::time_point deadline);
  void Finish();

 private:
  Bench& b_;
  bool broken_ = false;
  RoundSamples inproc_, fork_, tcp_;
  std::vector<oodbsec::core::AnalysisReport> reference_;
  std::string reference_bytes_;
  double imbalance_ = 0;
};

// Packed-store restarts of `users`' population: saved once (untimed)
// from a cold batch, then reopened and re-audited per unit.
class RestartFamily {
 public:
  explicit RestartFamily(Bench& b) : b_(b) {}
  // The population to save and restart; until set, Run does nothing.
  void SetPopulation(const oodbsec::schema::UserRegistry* users) {
    users_ = users;
  }
  void Run(Clock::time_point deadline);
  void Finish();

 private:
  void Save();

  Bench& b_;
  const oodbsec::schema::UserRegistry* users_ = nullptr;
  bool saved_ = false;
  bool broken_ = false;
  std::string pack_;
  std::string reference_bytes_;
  RoundSamples restart_;
  uint64_t file_bytes_ = 0;
  uint64_t page_hits_ = 0;
  uint64_t page_misses_ = 0;
};

// audit_deep / audit_wide requests: the population re-checked against a
// warm AnalysisSession cache, one RecheckRequirements per request.
class AuditRequestFamily {
 public:
  explicit AuditRequestFamily(Bench& b) : b_(b) {}
  void Run(Clock::time_point deadline);
  void Finish();

 private:
  Bench& b_;
  RoundSamples latency_;
  oodbsec::core::ClosureCache::Stats cache_;
};

// guard_stream: epochs of every scripted session on a fresh guard, two
// closed-loop clients.
class GuardFamily {
 public:
  explicit GuardFamily(Bench& b) : b_(b) {}
  void Run(Clock::time_point deadline);
  void Finish();

 private:
  struct Record {
    bool ok = false;
    bool denied = false;
    std::string rows;
  };
  void Reference();

  Bench& b_;
  RoundSamples latency_;  // busy time: the epochs' wall time, both clients
  size_t epochs_ = 0;
  oodbsec::core::ClosureCache::Stats cache_;
  std::vector<std::vector<Record>> expected_;
};

// policy_churn: passes over the grant/revoke sequence, each from a fresh
// warmed session; the first pass is checked against the oracle.
class ChurnFamily {
 public:
  explicit ChurnFamily(Bench& b);
  void Run(Clock::time_point deadline);
  void Finish();
  // The post-churn population, once the first pass is done.
  const oodbsec::schema::UserRegistry* final_users() const {
    return final_users_.get();
  }

 private:
  struct Verdict {
    bool satisfied = true;
    std::vector<int> sites;
    size_t facts = 0;
    bool operator==(const Verdict&) const = default;
  };

  Bench& b_;
  std::map<std::string, size_t> requirement_of_;
  std::vector<Verdict> first_;
  std::unique_ptr<oodbsec::schema::UserRegistry> final_users_;
  RoundSamples latency_;
  size_t passes_ = 0;
};

// The traced pass: per-layer metrics and the ledger table. `guard` and
// `churn` are the traced inputs for those layers (the workload's own, or
// the smoke-size ones when the workload has no such stream).
void RunTraced(Bench& b, const Inputs& guard, const Inputs& churn);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
