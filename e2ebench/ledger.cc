#include "ledger.h"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <utility>

namespace e2ebench {

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

RoundSamples::Round& RoundSamples::Current() {
  if (rounds_.empty()) rounds_.emplace_back();
  return rounds_.back();
}

void RoundSamples::Add(double v) { Current().samples.Add(v); }

void RoundSamples::Merge(const Samples& samples) {
  Current().samples.Merge(samples);
}

void RoundSamples::AddBusy(double seconds) { Current().busy_s += seconds; }

size_t RoundSamples::size() const {
  size_t n = 0;
  for (const Round& round : rounds_) n += round.samples.size();
  return n;
}

RoundSamples::Pool RoundSamples::Quiet(double percentile) const {
  std::vector<std::pair<double, const Round*>> ranked;
  for (const Round& round : rounds_) {
    if (!round.samples.empty()) {
      ranked.emplace_back(round.samples.Percentile(percentile), &round);
    }
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ranked.resize((ranked.size() + 1) / 2);
  Pool pool;
  for (const auto& [rank, round] : ranked) {
    pool.samples.Merge(round->samples);
    pool.busy_s += round->busy_s;
  }
  return pool;
}

int SpanRecorder::Begin(std::string name) {
  spans_.push_back(Span{std::move(name), SecondsSince(epoch_), 0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.seconds = SecondsSince(epoch_) - span.start_s;
}

double SpanRecorder::Total(std::string_view name) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.seconds;
  }
  return total;
}

double TracerSeconds(const std::vector<oodbsec::obs::SpanRecord>& spans,
                     std::string_view name) {
  int64_t ns = 0;
  for (const oodbsec::obs::SpanRecord& span : spans) {
    if (span.name == name && span.duration_ns > 0) ns += span.duration_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    metrics_[it->second] = Metric{name, value, unit};
    return;
  }
  index_.emplace(name, metrics_.size());
  metrics_.push_back(Metric{name, value, unit});
}

const Metric* MetricSet::Find(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &metrics_[it->second];
}

void PrintLedger(const std::vector<LedgerRow>& rows, double wall_s) {
  double attributed = 0;
  for (const LedgerRow& row : rows) attributed += row.seconds;
  std::printf("%-28s %12s %8s %8s\n", "layer", "ms", "calls", "share");
  auto line = [wall_s](const std::string& name, double s, size_t calls) {
    std::printf("%-28s %12.3f %8zu %7.1f%%\n", name.c_str(), s * 1e3, calls,
                wall_s > 0 ? 100.0 * s / wall_s : 0.0);
  };
  for (const LedgerRow& row : rows) line(row.layer, row.seconds, row.calls);
  line("unattributed", wall_s - attributed, 0);
  line("traced wall", wall_s, 0);
}

std::string HostShape::ToJson() const {
  return "{\"nproc\": " + std::to_string(nproc) +
         ", \"build_type\": " + JsonString(build_type) +
         ", \"compiler\": " + JsonString(compiler) + "}";
}

HostShape CurrentHost() {
  HostShape host;
  host.nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  host.build_type = E2EBENCH_BUILD_TYPE;
  host.compiler = E2EBENCH_COMPILER;
  return host;
}

double PeakRssMb() {
  struct rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

int ThreadCount() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int count = 0;
  while (const struct dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

}  // namespace

bool SingleThreaded() {
  for (int i = 0; i < 200; ++i) {
    if (ThreadCount() == 1) return true;
    ::usleep(500);
  }
  return false;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace e2ebench
