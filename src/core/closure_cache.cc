#include "core/closure_cache.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "obs/trace.h"
#include "snapshot/snapshot_store.h"

namespace oodbsec::core {

ClosureCache::ClosureCache(const schema::Schema& schema,
                           ClosureOptions options, size_t capacity,
                           obs::Observability* obs,
                           std::shared_ptr<snapshot::SnapshotStore> store)
    : schema_(schema),
      options_(options),
      capacity_(capacity == 0 ? 1 : capacity),
      obs_(obs),
      store_(std::move(store)) {}

std::string ClosureCache::KeyFor(const std::vector<std::string>& roots) {
  std::string key;
  for (const std::string& root : roots) {
    key += root;
    key += '|';
  }
  return key;
}

std::shared_ptr<const CachedAnalysis> ClosureCache::FindExact(
    const std::vector<std::string>& roots) {
  auto it = entries_.find(KeyFor(roots));
  if (it == entries_.end()) return nullptr;
  ++stats_.exact_hits;
  if (obs_ != nullptr) {
    obs_->metrics.counter("closure.cache.exact_hits")->Increment();
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.entry;
}

std::shared_ptr<const CachedAnalysis> ClosureCache::FindLargestSubset(
    const std::vector<std::string>& roots) const {
  std::vector<std::string> sorted(roots);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  const CachedAnalysis* best = nullptr;
  std::shared_ptr<const CachedAnalysis> best_entry;
  for (const auto& [key, slot] : entries_) {
    const CachedAnalysis& candidate = *slot.entry;
    if (candidate.sorted_roots.size() >= sorted.size()) continue;
    if (!std::includes(sorted.begin(), sorted.end(),
                       candidate.sorted_roots.begin(),
                       candidate.sorted_roots.end())) {
      continue;
    }
    // Largest subset wins — it replays the most facts. Ties break
    // toward the lexicographically smallest root list, so the choice
    // (and thus the warm-built derivation log) never depends on hash
    // iteration order.
    if (best == nullptr ||
        candidate.sorted_roots.size() > best->sorted_roots.size() ||
        (candidate.sorted_roots.size() == best->sorted_roots.size() &&
         candidate.sorted_roots < best->sorted_roots)) {
      best = &candidate;
      best_entry = slot.entry;
    }
  }
  return best_entry;
}

std::shared_ptr<const CachedAnalysis> ClosureCache::FindSmallestSuperset(
    const std::vector<std::string>& roots) const {
  std::vector<std::string> sorted(roots);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  const CachedAnalysis* best = nullptr;
  std::shared_ptr<const CachedAnalysis> best_entry;
  for (const auto& [key, slot] : entries_) {
    const CachedAnalysis& candidate = *slot.entry;
    if (candidate.sorted_roots.size() <= sorted.size()) continue;
    // The overlap gate: retraction replays the surviving facts, so it
    // only beats a warm build when most of the superset survives. Root
    // count proxies fact count here (roots unfold to comparable-size
    // programs); half is where the cone stops being the smaller side.
    if (candidate.sorted_roots.size() > sorted.size() * 2) continue;
    if (!std::includes(candidate.sorted_roots.begin(),
                       candidate.sorted_roots.end(), sorted.begin(),
                       sorted.end())) {
      continue;
    }
    // Smallest superset wins — it has the smallest cone to delete. Ties
    // break toward the lexicographically smallest root list, so the
    // choice never depends on hash iteration order.
    if (best == nullptr ||
        candidate.sorted_roots.size() < best->sorted_roots.size() ||
        (candidate.sorted_roots.size() == best->sorted_roots.size() &&
         candidate.sorted_roots < best->sorted_roots)) {
      best = &candidate;
      best_entry = slot.entry;
    }
  }
  return best_entry;
}

std::shared_ptr<const CachedAnalysis> ClosureCache::BuildRetracted(
    const std::vector<std::string>& roots, const CachedAnalysis& base,
    obs::SpanId parent) const {
  if (base.closure == nullptr) return nullptr;
  obs::ScopedSpan span(obs_ != nullptr ? &obs_->tracer : nullptr,
                       "closure.build", parent);
  auto set_or = unfold::UnfoldedSet::Build(schema_, roots, obs_);
  if (!set_or.ok()) return nullptr;
  std::unique_ptr<unfold::UnfoldedSet> set = std::move(set_or).value();
  std::unique_ptr<Closure> closure =
      Closure::Retract(*set, options_, obs_, *base.closure);
  if (closure == nullptr) return nullptr;
  auto entry = std::make_shared<CachedAnalysis>();
  entry->roots = roots;
  entry->sorted_roots = roots;
  std::sort(entry->sorted_roots.begin(), entry->sorted_roots.end());
  entry->sorted_roots.erase(
      std::unique(entry->sorted_roots.begin(), entry->sorted_roots.end()),
      entry->sorted_roots.end());
  entry->closure = std::move(closure);
  entry->set = std::move(set);
  return entry;
}

std::shared_ptr<const CachedAnalysis> ClosureCache::RetractEntry(
    const std::vector<std::string>& old_roots,
    const std::vector<std::string>& new_roots) {
  // Peek, not FindExact: a revoke landing on an already-cached state is
  // not a request-path hit and must not skew the hit-rate stats.
  auto resident = entries_.find(KeyFor(new_roots));
  if (resident != entries_.end()) return resident->second.entry;
  auto base = entries_.find(KeyFor(old_roots));
  if (base == entries_.end()) return nullptr;
  std::shared_ptr<const CachedAnalysis> entry =
      BuildRetracted(new_roots, *base->second.entry);
  if (entry == nullptr) return nullptr;
  CountRetract();
  Insert(entry);
  return entry;
}

common::Result<std::shared_ptr<const CachedAnalysis>>
ClosureCache::BuildDetached(const std::vector<std::string>& roots,
                            const CachedAnalysis* warm_base,
                            obs::SpanId parent) const {
  obs::ScopedSpan span(obs_ != nullptr ? &obs_->tracer : nullptr,
                       "closure.build", parent);
  OODBSEC_ASSIGN_OR_RETURN(std::unique_ptr<unfold::UnfoldedSet> set,
                           unfold::UnfoldedSet::Build(schema_, roots, obs_));
  auto entry = std::make_shared<CachedAnalysis>();
  entry->roots = roots;
  entry->sorted_roots = roots;
  std::sort(entry->sorted_roots.begin(), entry->sorted_roots.end());
  entry->sorted_roots.erase(
      std::unique(entry->sorted_roots.begin(), entry->sorted_roots.end()),
      entry->sorted_roots.end());
  entry->closure = std::make_unique<Closure>(
      *set, options_, obs_,
      warm_base != nullptr ? warm_base->closure.get() : nullptr);
  entry->set = std::move(set);
  return std::shared_ptr<const CachedAnalysis>(std::move(entry));
}

void ClosureCache::Insert(std::shared_ptr<const CachedAnalysis> entry) {
  std::string key = KeyFor(entry->roots);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  if (entries_.size() >= capacity_) {
    // Evict the least-recently-used entry. Holders of its shared_ptr
    // (including builds currently replaying it) are unaffected.
    ++stats_.evictions;
    if (obs_ != nullptr) {
      obs_->metrics.counter("closure.cache.evictions")->Increment();
    }
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(key);
  entries_.emplace(std::move(key),
                   Slot{std::move(entry), lru_.begin()});
}

void ClosureCache::CountRetract() {
  ++stats_.retract_builds;
  if (obs_ != nullptr) {
    obs_->metrics.counter("closure.cache.retract_builds")->Increment();
  }
}

void ClosureCache::CountBuild(bool warm) {
  if (warm) {
    ++stats_.warm_builds;
  } else {
    ++stats_.cold_builds;
  }
  if (obs_ != nullptr) {
    obs_->metrics
        .counter(warm ? "closure.cache.warm_builds"
                      : "closure.cache.cold_builds")
        ->Increment();
  }
}

std::shared_ptr<const CachedAnalysis> ClosureCache::FindSnapshot(
    const std::vector<std::string>& roots) {
  if (store_ == nullptr) return nullptr;
  auto loaded = store_->Find(schema_, options_, roots, obs_);
  const char* counter = nullptr;
  std::shared_ptr<const CachedAnalysis> entry;
  if (loaded.ok()) {
    // The store verifies the stored root list against the request
    // (signature collisions read as kNotFound), so ok means hit.
    ++stats_.snapshot_hits;
    counter = "closure.cache.snapshot_hits";
    entry = std::move(loaded).value();
  } else if (loaded.status().code() == common::StatusCode::kNotFound) {
    ++stats_.snapshot_misses;
    counter = "closure.cache.snapshot_misses";
  } else {
    // Truncated / corrupt / wrong fingerprint or version: fall back to
    // a build, never fail the request.
    ++stats_.snapshot_invalid;
    counter = "closure.cache.snapshot_invalid";
  }
  if (obs_ != nullptr) obs_->metrics.counter(counter)->Increment();
  return entry;
}

common::Status ClosureCache::SaveCacheSnapshot(
    const CachedAnalysis& entry) const {
  if (store_ == nullptr) {
    return common::FailedPreconditionError(
        "closure cache has no snapshot store");
  }
  return store_->Save(schema_, options_, entry);
}

common::Status ClosureCache::SaveCacheSnapshot() const {
  if (store_ == nullptr) {
    return common::FailedPreconditionError(
        "closure cache has no snapshot store");
  }
  common::Status first_error;
  for (const std::string& key : lru_) {
    common::Status status = SaveCacheSnapshot(*entries_.at(key).entry);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

size_t ClosureCache::LoadCacheSnapshot() {
  if (store_ == nullptr) return 0;
  size_t invalid = 0;
  std::vector<std::shared_ptr<const CachedAnalysis>> entries =
      store_->LoadAll(schema_, options_, capacity_, &invalid, obs_);
  stats_.snapshot_invalid += invalid;
  if (obs_ != nullptr && invalid > 0) {
    obs_->metrics.counter("closure.cache.snapshot_invalid")
        ->Increment(invalid);
  }
  for (auto& entry : entries) {
    ++stats_.snapshot_hits;
    if (obs_ != nullptr) {
      obs_->metrics.counter("closure.cache.snapshot_hits")->Increment();
    }
    Insert(std::move(entry));
  }
  return entries.size();
}

common::Result<std::shared_ptr<const CachedAnalysis>>
ClosureCache::GetOrBuild(const std::vector<std::string>& roots) {
  if (std::shared_ptr<const CachedAnalysis> hit = FindExact(roots)) {
    return hit;
  }
  if (std::shared_ptr<const CachedAnalysis> loaded = FindSnapshot(roots)) {
    Insert(loaded);
    return loaded;
  }
  if (std::shared_ptr<const CachedAnalysis> super =
          FindSmallestSuperset(roots)) {
    if (std::shared_ptr<const CachedAnalysis> entry =
            BuildRetracted(roots, *super)) {
      CountRetract();
      Insert(entry);
      return entry;
    }
  }
  std::shared_ptr<const CachedAnalysis> base = FindLargestSubset(roots);
  OODBSEC_ASSIGN_OR_RETURN(std::shared_ptr<const CachedAnalysis> entry,
                           BuildDetached(roots, base.get()));
  CountBuild(entry->closure->warm_started());
  Insert(entry);
  return entry;
}

}  // namespace oodbsec::core
