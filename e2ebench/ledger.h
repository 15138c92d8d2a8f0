// Measurement plumbing for the end-to-end benchmark: clocks, sample
// statistics, the benchmark's own span recorder (spans around calls into
// each layer's public functions), metric output, and the host-shape
// stamp every result carries.
#ifndef E2EBENCH_LEDGER_H_
#define E2EBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Collected latencies or durations (any unit; callers keep it uniform).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Mean() const;
  // Nearest-rank percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }

 private:
  std::vector<double> values_;
};

// One family's samples, kept per round of the interleaved run. Other
// tenants of a shared host slow every operation of a round at once, in
// bursts of a second or so, and how much of a run they cover varies from
// run to run. Quiet(p) pools the quieter half of the rounds, ranked by
// each round's p-th percentile, so the p-th percentile of the pool reads
// the program, not the neighbours.
class RoundSamples {
 public:
  // Starts a round; later samples and busy time go to it.
  void StartRound() { rounds_.emplace_back(); }
  void Add(double v);
  void Merge(const Samples& samples);
  // Wall time the round spent on the family, for a throughput.
  void AddBusy(double seconds);
  size_t size() const;
  bool empty() const { return size() == 0; }

  struct Pool {
    Samples samples;
    double busy_s = 0;
  };
  Pool Quiet(double percentile = 50) const;

 private:
  struct Round {
    Samples samples;
    double busy_s = 0;
  };
  Round& Current();
  std::vector<Round> rounds_;
};

// The benchmark's own spans: one per call into a layer's public API,
// recorded only in the traced pass. They never nest, so each span name
// is one disjoint row of the ledger.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_s = 0;
    double seconds = 0;
  };

  SpanRecorder() : epoch_(Clock::now()) {}
  int Begin(std::string name);
  void End(int id);
  const std::vector<Span>& spans() const { return spans_; }
  // Sum of durations of every span with this exact name.
  double Total(std::string_view name) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

class ScopedStep {
 public:
  ScopedStep(SpanRecorder* recorder, std::string name)
      : recorder_(recorder),
        id_(recorder ? recorder->Begin(std::move(name)) : -1) {}
  ~ScopedStep() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedStep(const ScopedStep&) = delete;
  ScopedStep& operator=(const ScopedStep&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

// Seconds spent in library spans named `name` (obs::Tracer records).
double TracerSeconds(const std::vector<oodbsec::obs::SpanRecord>& spans,
                     std::string_view name);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // nullptr when `name` was never set.
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
  std::map<std::string, size_t> index_;
};

// One ledger row: a layer's attributed seconds in the traced pass.
struct LedgerRow {
  std::string layer;
  double seconds = 0;
  size_t calls = 0;
};

// Prints the per-layer table; rows plus "unattributed" sum to `wall_s`.
void PrintLedger(const std::vector<LedgerRow>& rows, double wall_s);

struct HostShape {
  int nproc = 0;
  std::string build_type;
  std::string compiler;
  std::string ToJson() const;
};
HostShape CurrentHost();

// Peak resident set of this process, MiB.
double PeakRssMb();

// Whether this process is down to one thread (entries of
// /proc/self/task). A joined thread can stay listed for a moment after
// pthread_join returns, so this polls for up to 100 ms.
bool SingleThreaded();

// JSON number with all its digits.
std::string JsonNumber(double v);
std::string JsonString(std::string_view s);

}  // namespace e2ebench

#endif  // E2EBENCH_LEDGER_H_
