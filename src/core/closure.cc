#include "core/closure.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <map>
#include <mutex>
#include <thread>

#include "common/strings.h"
#include "core/thread_pool.h"

namespace oodbsec::core {

using unfold::Node;
using unfold::NodeKind;

namespace {

// Round-crew sizing. Rounds below the frontier threshold run inline —
// dispatch latency would swamp the work — and parallel rounds split
// into at most kChunksPerThread chunks per worker of at least
// kMinChunkFacts facts each, so the atomic chunk claim amortizes while
// stragglers can still be rebalanced. None of these affect the output:
// candidates merge in frontier order whatever the chunking.
constexpr size_t kParallelFrontierThreshold = 256;
constexpr size_t kMinChunkFacts = 64;
constexpr size_t kChunksPerThread = 4;
constexpr int kMaxClosureThreads = 64;

int ResolveClosureThreads(int requested) {
  if (requested == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    requested = hw == 0 ? 1 : static_cast<int>(hw);
  }
  if (requested < 1) requested = 1;
  if (requested > kMaxClosureThreads) requested = kMaxClosureThreads;
  return requested;
}

// Sorted-unique insert/erase for the small per-rep key lists that
// replace std::set in the hot tables.
void InsertSortedUnique(std::vector<std::pair<int, int>>& keys,
                        std::pair<int, int> key) {
  auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) keys.insert(it, key);
}

void EraseSorted(std::vector<std::pair<int, int>>& keys,
                 std::pair<int, int> key) {
  auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it != keys.end() && *it == key) keys.erase(it);
}

void InsertSortedUniqueById(std::vector<const Node*>& nodes,
                            const Node* node) {
  auto it = std::lower_bound(
      nodes.begin(), nodes.end(), node,
      [](const Node* a, const Node* b) { return a->id < b->id; });
  if (it == nodes.end() || *it != node) nodes.insert(it, node);
}

}  // namespace

std::string Origin::ToString() const {
  return common::StrCat("(", num, ",", std::string(1, dir), ")");
}

// The worker crew for one Run(): a lazily-spawned pool (first round
// that crosses the parallel threshold) plus one EvalCtx per worker and
// the per-chunk output buffers, all reused across rounds. The crew
// lives on Run()'s stack, so small builds (warm deltas, replays) never
// spawn a thread.
struct Closure::RoundCrew {
  explicit RoundCrew(int threads) : threads(threads) {}

  int threads;  // resolved cap (>= 1)
  std::unique_ptr<ThreadPool> pool;
  std::vector<std::unique_ptr<EvalCtx>> worker_ctxs;
  std::vector<ChunkOut> outs;
  // Context for rounds evaluated on the calling thread.
  EvalCtx inline_ctx;
};

Closure::Closure(const unfold::UnfoldedSet& set, ClosureOptions options,
                 obs::Observability* obs, const Closure* warm_base)
    : set_(&set), options_(options), obs_(obs) {
  obs::Tracer* tracer = obs_ != nullptr ? &obs_->tracer : nullptr;
  obs::ScopedSpan closure_span(tracer, "closure");
  InitTables();

  std::vector<int> delta_ids;
  if (warm_base != nullptr) {
    std::vector<int> old_to_new;
    if (ComputeWarmMap(*warm_base, old_to_new)) {
      obs::ScopedSpan replay_span(tracer, "closure.delta.replay");
      ReplayBase(*warm_base, old_to_new);
      warm_started_ = true;
      // Occurrences the base does not cover: the added roots' blocks.
      // Replayed facts never enter the frontier, so a rule keyed on an
      // old occurrence (e.g. "alterability via write object", whose
      // conclusions span every read of the attribute) would never see
      // these new targets. Rederive() re-fires the per-occurrence and
      // per-class producers from the new nodes' perspective, reading the
      // replayed state the frontier skipped.
      std::vector<char> mapped(set.node_count() + 1, 0);
      for (int old_id = 1; old_id < static_cast<int>(old_to_new.size());
           ++old_id) {
        if (old_to_new[old_id] != 0) mapped[old_to_new[old_id]] = 1;
      }
      for (int id = 1; id <= set.node_count(); ++id) {
        if (mapped[id] == 0) delta_ids.push_back(id);
      }
    }
  }

  {
    obs::ScopedSpan seed_span(tracer, "closure.seed");
    Seed();
  }
  if (!delta_ids.empty()) Rederive(delta_ids, {});
  Run();
  FlushMetrics();
}

Closure::Closure(const unfold::UnfoldedSet& set, ClosureOptions options,
                 obs::Observability* obs, const ReplayView& view)
    : set_(&set), options_(options), obs_(obs) {
  obs::Tracer* tracer = obs_ != nullptr ? &obs_->tracer : nullptr;
  obs::ScopedSpan closure_span(tracer, "closure");
  InitTables();
  {
    obs::ScopedSpan replay_span(tracer, "closure.snapshot.replay");
    ReplayPackedSteps(view);
    warm_started_ = true;
  }
  // A complete log already contains every axiom and every fixpoint
  // conclusion, so the seed pass and the (empty-frontier) run below only
  // dedup — they exist to make a *partial or stale* log merely slow
  // instead of wrong, and they keep the derivation log byte-identical to
  // the saved one in the complete case (dedup appends nothing).
  {
    obs::ScopedSpan seed_span(tracer, "closure.seed");
    Seed();
  }
  Run();
  FlushMetrics();
}

void Closure::InitTables() {
  int n = set_->node_count();
  const unfold::UnfoldedSet& set = *set_;
  uf_parent_.resize(n + 1);
  uf_rank_.assign(n + 1, 0);
  members_.resize(n + 1);
  eq_edges_.resize(n + 1);
  ta_.assign(n + 1, kNoFact);
  pa_.assign(n + 1, kNoFact);
  ti_.resize(n + 1);
  pi_.resize(n + 1);
  pistar_touching_.resize(n + 1);
  touching_calls_.resize(n + 1);
  obj_reads_.resize(n + 1);
  obj_writes_.resize(n + 1);
  binder_of_bound_expr_.assign(n + 1, -1);
  InitCtx(direct_ctx_);
  for (int i = 1; i <= n; ++i) {
    uf_parent_[i] = i;
    members_[i] = {i};
  }
  // Cross-reference tables.
  for (int i = 1; i <= n; ++i) {
    const Node* node = set.node(i);
    if (node->kind == NodeKind::kBasicCall) {
      InsertSortedUniqueById(touching_calls_[node->id], node);
      for (const Node* child : node->children) {
        InsertSortedUniqueById(touching_calls_[child->id], node);
      }
    }
    if (node->kind == NodeKind::kReadAttr) {
      obj_reads_[node->object_child()->id].push_back(node);
    }
    if (node->kind == NodeKind::kWriteAttr) {
      obj_writes_[node->object_child()->id].push_back(node);
    }
  }
  for (const unfold::Binder& binder : set.binders()) {
    if (binder.bound_expr != nullptr) {
      binder_of_bound_expr_[binder.bound_expr->id] = binder.id;
    }
  }
  BuildPremiseIndex();
}

void Closure::BuildPremiseIndex() {
  int n = set_->node_count();
  // The alterability triggers are collected per-id and then flattened
  // into the CSR pair (never merged, so the layout can freeze here);
  // the class-keyed tables stay vectors because MergeClasses folds
  // them on every union.
  std::vector<std::vector<RuleRef>> alter_triggers(n + 1);
  alter_trigger_offsets_.assign(n + 2, 0);
  alter_trigger_refs_.clear();
  infer_triggers_.resize(n + 1);
  pistar_triggers_.resize(n + 1);
  if (!options_.basic_function_rules) return;
  auto insert_ref = [](std::vector<RuleRef>& refs, RuleRef ref) {
    auto it = std::lower_bound(refs.begin(), refs.end(), ref);
    if (it == refs.end() || !(*it == ref)) refs.insert(it, ref);
  };
  for (int i = 1; i <= n; ++i) {
    const Node* node = set_->node(i);
    if (node->kind != NodeKind::kBasicCall) continue;
    for (const BasicRule& rule : RulesFor(*node->basic)) {
      RuleRef ref{node, &rule};
      for (const RuleAtom& atom : rule.premises) {
        int id = atom.pos == kResultPos ? node->id
                                        : node->children[atom.pos]->id;
        switch (atom.pred) {
          case RuleAtom::Pred::kTa:
          case RuleAtom::Pred::kPa:
            insert_ref(alter_triggers[id], ref);
            break;
          case RuleAtom::Pred::kTi:
          case RuleAtom::Pred::kPi:
            // One shared table for ti and pi atoms: "ti => pi" and the
            // pi-join write the sibling table before the triggers run
            // (see ProcessTi / ProcessPi), so either event can complete
            // either atom.
            insert_ref(infer_triggers_[id], ref);
            break;
          case RuleAtom::Pred::kPiStar: {
            insert_ref(pistar_triggers_[id], ref);
            int id2 = atom.pos2 == kResultPos
                          ? node->id
                          : node->children[atom.pos2]->id;
            insert_ref(pistar_triggers_[id2], ref);
            break;
          }
        }
      }
    }
  }
  for (int id = 0; id <= n; ++id) {
    alter_trigger_offsets_[id] =
        static_cast<uint32_t>(alter_trigger_refs_.size());
    alter_trigger_refs_.insert(alter_trigger_refs_.end(),
                               alter_triggers[id].begin(),
                               alter_triggers[id].end());
  }
  alter_trigger_offsets_[n + 1] =
      static_cast<uint32_t>(alter_trigger_refs_.size());
}

bool Closure::ComputeWarmMap(const Closure& base,
                             std::vector<int>& old_to_new) const {
  if (&base == this || !(base.options_ == options_)) return false;
  const std::vector<unfold::Root>& old_roots = base.set_->roots();
  const std::vector<unfold::Root>& new_roots = set_->roots();
  // Match the k-th duplicate of a name to the k-th duplicate: unfolding
  // a function is deterministic, so position within the root list never
  // changes a root's shape (see unfold::Root).
  std::map<std::string_view, std::vector<size_t>> available;
  for (size_t j = 0; j < new_roots.size(); ++j) {
    available[new_roots[j].function_name].push_back(j);
  }
  std::map<std::string_view, size_t> next;
  old_to_new.assign(base.set_->node_count() + 1, 0);
  for (const unfold::Root& old_root : old_roots) {
    auto it = available.find(old_root.function_name);
    if (it == available.end()) return false;
    size_t& cursor = next[old_root.function_name];
    if (cursor >= it->second.size()) return false;
    const unfold::Root& new_root = new_roots[it->second[cursor++]];
    int old_first = old_root.first_node_id;
    int old_last = old_root.body->id;
    int new_first = new_root.first_node_id;
    if (old_last - old_first != new_root.body->id - new_first) {
      return false;  // shape mismatch: schemas differ, fall back cold
    }
    for (int id = old_first; id <= old_last; ++id) {
      old_to_new[id] = id - old_first + new_first;
    }
  }
  return true;
}

void Closure::ReplayBase(const Closure& base,
                         const std::vector<int>& old_to_new) {
  replayed_facts_ = base.steps_.size();
  steps_.reserve(base.steps_.size() + base.steps_.size() / 4);
  fact_of_.reserve(steps_.capacity());
  premise_arena_.reserve(base.premise_arena_.size());
  for (const DerivationStep& bstep : base.steps_) {
    // Translate the fact into this set's id space. Origin nums are
    // occurrence ids too (0 marks observation/equality axioms and maps
    // to itself).
    Fact fact = bstep.fact;
    fact.a = old_to_new[fact.a];
    if (fact.kind == Fact::Kind::kPiStar || fact.kind == Fact::Kind::kEq) {
      fact.b = old_to_new[fact.b];
    }
    fact.origin.num = old_to_new[fact.origin.num];
    // Append the step verbatim. Every base step becomes exactly one
    // replayed step, so premise FactIds keep their values and are
    // copied raw. Rule labels have static storage — nothing borrows
    // from the base after construction.
    FactId id = static_cast<FactId>(steps_.size());
    DerivationStep step;
    step.fact = fact;
    step.rule = bstep.rule;
    step.premise_offset = static_cast<uint32_t>(premise_arena_.size());
    step.premise_count = bstep.premise_count;
    const FactId* src = base.premise_arena_.data() + bstep.premise_offset;
    premise_arena_.insert(premise_arena_.end(), src,
                          src + bstep.premise_count);
    steps_.push_back(step);
    fact_of_.push_back(fact);
    // Apply the table effect. Replayed facts never enter the frontier:
    // the follow-up Seed() + Run() re-derive only what the added roots
    // contribute, re-firing rules through the premise index as new
    // facts interact with the replayed state.
    ApplyReplayedFact(fact, id);
  }
}

void Closure::ReplayPackedSteps(const ReplayView& view) {
  replayed_facts_ = view.steps.size();
  steps_.reserve(view.steps.size() + view.steps.size() / 4);
  fact_of_.reserve(steps_.capacity());
  premise_arena_.reserve(view.premise_arena.size());
  for (const PackedStep& pstep : view.steps) {
    // Decode the fixed-width image into a live step. Ids are already in
    // this set's id space (packed records, like snapshots, replay into
    // an unfold over the same roots).
    Fact fact;
    fact.kind = static_cast<Fact::Kind>(pstep.kind);
    fact.a = pstep.a;
    fact.b = pstep.b;
    fact.origin.num = pstep.origin_num;
    fact.origin.dir = static_cast<char>(pstep.origin_dir);
    FactId id = static_cast<FactId>(steps_.size());
    DerivationStep step;
    step.fact = fact;
    step.rule = view.rules[pstep.rule];
    step.premise_offset = static_cast<uint32_t>(premise_arena_.size());
    step.premise_count = pstep.premise_count;
    const FactId* src = view.premise_arena.data() + pstep.premise_offset;
    premise_arena_.insert(premise_arena_.end(), src,
                          src + pstep.premise_count);
    steps_.push_back(step);
    fact_of_.push_back(fact);
    ApplyReplayedFact(fact, id);
  }
}

void Closure::ApplyReplayedFact(const Fact& fact, FactId id) {
  switch (fact.kind) {
    case Fact::Kind::kTa:
      ta_[fact.a] = id;
      break;
    case Fact::Kind::kPa:
      pa_[fact.a] = id;
      break;
    case Fact::Kind::kTi:
      ti_[Find(fact.a)].Insert(fact.origin, id);
      break;
    case Fact::Kind::kPi:
      pi_[Find(fact.a)].Insert(fact.origin, id);
      break;
    case Fact::Kind::kPiStar: {
      std::pair<int, int> key = {Find(fact.a), Find(fact.b)};
      pistar_[PairKey(key.first, key.second)].Insert(fact.origin, id);
      InsertSortedUnique(pistar_touching_[key.first], key);
      InsertSortedUnique(pistar_touching_[key.second], key);
      break;
    }
    case Fact::Kind::kEq: {
      int ra = Find(fact.a);
      int rb = Find(fact.b);
      if (ra != rb) {
        ++eq_merges_;
        eq_edges_[fact.a].emplace_back(fact.b, id);
        eq_edges_[fact.b].emplace_back(fact.a, id);
        MergeClasses(ra, rb);
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------
// Retraction (DRed, delete-and-rederive). See the Retract() contract in
// the header and DESIGN.md §12 for the invariants.

std::unique_ptr<Closure> Closure::Retract(const unfold::UnfoldedSet& set,
                                          ClosureOptions options,
                                          obs::Observability* obs,
                                          const Closure& base) {
  std::unique_ptr<Closure> closure(
      new Closure(set, options, obs, base, RetractTag{}));
  if (!closure->retracted_) return nullptr;
  return closure;
}

bool Closure::ComputeShrinkMap(const Closure& base,
                               std::vector<int>& old_to_new) const {
  if (&base == this || !(base.options_ == options_)) return false;
  const std::vector<unfold::Root>& old_roots = base.set_->roots();
  const std::vector<unfold::Root>& new_roots = set_->roots();
  // ComputeWarmMap's k-th-duplicate matching with the roles reversed:
  // every *new* root claims a distinct old root; old roots nobody
  // claims are the revoked ones, and their id ranges stay mapped to 0.
  std::map<std::string_view, std::vector<size_t>> available;
  for (size_t j = 0; j < old_roots.size(); ++j) {
    available[old_roots[j].function_name].push_back(j);
  }
  std::map<std::string_view, size_t> next;
  old_to_new.assign(base.set_->node_count() + 1, 0);
  for (const unfold::Root& new_root : new_roots) {
    auto it = available.find(new_root.function_name);
    if (it == available.end()) return false;
    size_t& cursor = next[new_root.function_name];
    if (cursor >= it->second.size()) return false;
    const unfold::Root& old_root = old_roots[it->second[cursor++]];
    int old_first = old_root.first_node_id;
    int old_last = old_root.body->id;
    int new_first = new_root.first_node_id;
    if (old_last - old_first != new_root.body->id - new_first) {
      return false;  // shape mismatch: schemas differ, fall back cold
    }
    for (int id = old_first; id <= old_last; ++id) {
      old_to_new[id] = id - old_first + new_first;
    }
  }
  return true;
}

Closure::Closure(const unfold::UnfoldedSet& set, ClosureOptions options,
                 obs::Observability* obs, const Closure& base, RetractTag)
    : set_(&set), options_(options), obs_(obs) {
  obs::Tracer* tracer = obs_ != nullptr ? &obs_->tracer : nullptr;
  obs::ScopedSpan closure_span(tracer, "closure");
  InitTables();
  std::vector<int> old_to_new;
  if (!ComputeShrinkMap(base, old_to_new)) return;  // discarded by Retract()

  // Over-delete the cone of base steps that mention a revoked
  // occurrence — as subject, pair partner, or origin provenance — or
  // depend on a marked step. Premise edges alone do not close the cone:
  // the class-level rules (pi*: join, join of partial inferabilities,
  // EvalRule's pi* atoms) match their premises through the equivalence
  // tables, and the eq facts that merged the mediating class are NOT in
  // the recorded premise list. Classes whose mediation may have changed
  // are marked *suspect*, and every premise-bearing fact whose own or
  // premise endpoints touch a suspect class is over-deleted as well.
  //
  // Suspicion is connectivity-based, not loss-based: a class only
  // becomes suspect when its *surviving* members are no longer all
  // connected by the *surviving* eq facts. Losing an eq edge that the
  // class can route around (e.g. revoking one department of a scaled
  // workload whose argument class is held together by the other
  // departments' axioms) changes nothing any class-mediated derivation
  // relied on — every "a ~ b" among survivors still holds — so those
  // facts are kept and the cone stays proportional to the revoked
  // delta instead of swallowing the whole log. Deleting an eq late in
  // the log can split a class and thereby indict a join earlier in it,
  // so the sweep repeats to a fixpoint, recomputing connectivity from
  // the thinner edge set each round (splits are monotone: edges only
  // disappear). Over-deletion is always safe: the rederive pass
  // restores whatever has surviving support.
  std::vector<char> deleted(base.steps_.size(), 0);
  std::vector<int> touched;
  std::vector<DeletedPair> deleted_pairs;
  {
    obs::ScopedSpan delete_span(tracer, "closure.retract.delete");
    auto removed = [&old_to_new](int id) {
      return id != 0 && old_to_new[id] == 0;
    };
    int base_n = base.set_->node_count();
    std::vector<char> suspect(base_n + 1, 0);
    std::vector<int> parent(base_n + 1);
    std::vector<int> first_member(base_n + 1);
    auto find = [&parent](int x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    auto recompute_suspect = [&] {
      for (int id = 0; id <= base_n; ++id) parent[id] = id;
      for (size_t i = 0; i < base.steps_.size(); ++i) {
        if (deleted[i] != 0) continue;
        const Fact& fact = base.steps_[i].fact;
        if (fact.kind != Fact::Kind::kEq) continue;
        if (removed(fact.a) || removed(fact.b)) continue;
        parent[find(fact.a)] = find(fact.b);
      }
      std::fill(first_member.begin(), first_member.end(), 0);
      for (int id = 1; id <= base_n; ++id) {
        if (removed(id)) continue;
        int rep = base.Rep(id);
        if (first_member[rep] == 0) {
          first_member[rep] = id;
        } else if (find(id) != find(first_member[rep])) {
          suspect[rep] = 1;  // sticky: splits are monotone across rounds
        }
      }
    };
    auto is_pair = [](const Fact& f) {
      return f.kind == Fact::Kind::kPiStar || f.kind == Fact::Kind::kEq;
    };
    auto endpoint_suspect = [&](const Fact& f) {
      if (suspect[base.Rep(f.a)] != 0) return true;
      return is_pair(f) && suspect[base.Rep(f.b)] != 0;
    };
    bool changed = true;
    while (changed) {
      recompute_suspect();
      changed = false;
      for (size_t i = 0; i < base.steps_.size(); ++i) {
        if (deleted[i] != 0) continue;
        const DerivationStep& bstep = base.steps_[i];
        const Fact& fact = bstep.fact;
        bool pair = is_pair(fact);
        bool gone = removed(fact.a) || removed(fact.origin.num) ||
                    (pair && removed(fact.b));
        if (!gone && bstep.premise_count > 0) {
          gone = endpoint_suspect(fact);
          for (FactId premise : base.premises(static_cast<FactId>(i))) {
            if (gone) break;
            gone = deleted[premise] != 0 ||
                   endpoint_suspect(base.steps_[premise].fact);
          }
        }
        if (!gone) continue;
        deleted[i] = 1;
        changed = true;
        ++retracted_facts_;
        if (int a = old_to_new[fact.a]; a != 0) touched.push_back(a);
        if (pair) {
          if (int b = old_to_new[fact.b]; b != 0) touched.push_back(b);
        }
        if (fact.kind == Fact::Kind::kPiStar) {
          int a = old_to_new[fact.a];
          int b = old_to_new[fact.b];
          int onum = fact.origin.num == 0 ? 0 : old_to_new[fact.origin.num];
          if (a != 0 && b != 0 && (fact.origin.num == 0 || onum != 0)) {
            deleted_pairs.push_back({a, b, Origin{onum, fact.origin.dir}});
          }
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
  }
  {
    obs::ScopedSpan replay_span(tracer, "closure.retract.replay");
    ReplaySurvivors(base, old_to_new, deleted);
  }
  warm_started_ = true;  // replay-prefix semantics (replayed_fact_count)
  retracted_ = true;
  // Seed() re-adds every axiom the cone lost and re-evaluates every
  // basic-function rule against the survivor tables; the targeted pass
  // covers the structural rules. Both only enqueue genuinely missing
  // facts, and Run() propagates their consequences to the fixpoint.
  {
    obs::ScopedSpan seed_span(tracer, "closure.seed");
    Seed();
  }
  {
    obs::ScopedSpan rederive_span(tracer, "closure.retract.rederive");
    Rederive(touched, deleted_pairs);
  }
  Run();
  FlushMetrics();
}

void Closure::ReplaySurvivors(const Closure& base,
                              const std::vector<int>& old_to_new,
                              const std::vector<char>& deleted) {
  // Like ReplayBase, but survivors compact: premise FactIds shift, so
  // each is remapped through the old-index -> new-index table (always
  // already filled — a survivor's premises are survivors).
  std::vector<FactId> remap(base.steps_.size(), kNoFact);
  steps_.reserve(base.steps_.size());
  fact_of_.reserve(base.steps_.size());
  premise_arena_.reserve(base.premise_arena_.size());
  for (size_t i = 0; i < base.steps_.size(); ++i) {
    if (deleted[i] != 0) continue;
    const DerivationStep& bstep = base.steps_[i];
    Fact fact = bstep.fact;
    fact.a = old_to_new[fact.a];
    if (fact.kind == Fact::Kind::kPiStar || fact.kind == Fact::Kind::kEq) {
      fact.b = old_to_new[fact.b];
    }
    fact.origin.num = old_to_new[fact.origin.num];
    FactId id = static_cast<FactId>(steps_.size());
    remap[i] = id;
    DerivationStep step;
    step.fact = fact;
    step.rule = bstep.rule;
    step.premise_offset = static_cast<uint32_t>(premise_arena_.size());
    step.premise_count = bstep.premise_count;
    for (FactId premise : base.premises(static_cast<FactId>(i))) {
      premise_arena_.push_back(remap[premise]);
    }
    steps_.push_back(step);
    fact_of_.push_back(fact);
    ApplyReplayedFact(fact, id);
  }
  replayed_facts_ = steps_.size();
}

void Closure::Rederive(const std::vector<int>& touched,
                       const std::vector<DeletedPair>& pairs) {
  // Every over-deleted fact's conclusion site is a touched occurrence
  // (or was itself revoked, in which case nothing concludes there any
  // more), so firing every structural producer *at* the touched sites
  // and classes restores exactly the alternate-support facts. Producers
  // whose premises appear only later — added by Seed(), this pass, or
  // the fixpoint — re-fire through the normal Process() handlers when
  // those premises drain from the frontier.
  std::vector<int> reps;
  reps.reserve(touched.size());
  for (int id : touched) reps.push_back(Find(id));
  std::sort(reps.begin(), reps.end());
  reps.erase(std::unique(reps.begin(), reps.end()), reps.end());
  for (int id : touched) RederiveNode(id);
  for (int rep : reps) RederiveClass(rep);
  // Conclusion-driven DRed: probe one-step alternate support for
  // exactly the over-deleted pi* facts. Deeper chains resolve in Run()
  // — every fact a probe restores re-enters the frontier, and
  // ProcessPiStar fires the full swap/join consequences from there.
  for (const DeletedPair& pair : pairs) RederivePair(pair);
}

void Closure::RederiveNode(int id) {
  // The per-occurrence producers, in ProcessTa/ProcessPa order:
  // implication first, then the let and read/write rules.
  if (ta_[id] != kNoFact && pa_[id] == kNoFact) {
    AddPa(direct_ctx_, id, "ta => pa", {ta_[id]});
  }
  const Node* node = set_->node(id);
  if (node->kind == NodeKind::kVarRef && node->binder_id >= 0) {
    const unfold::Binder& binder = set_->binder(node->binder_id);
    if (binder.bound_expr != nullptr) {
      int bound = binder.bound_expr->id;
      if (ta_[bound] != kNoFact) {
        AddTa(direct_ctx_, id, "let: bound expression to variable",
              {ta_[bound]});
      } else if (pa_[bound] != kNoFact) {
        AddPa(direct_ctx_, id, "let: bound expression to variable",
              {pa_[bound]});
      }
    }
  }
  if (node->is_let()) {
    int body = node->body()->id;
    if (ta_[body] != kNoFact) {
      AddTa(direct_ctx_, id, "let: body to let value", {ta_[body]});
    } else if (pa_[body] != kNoFact) {
      AddPa(direct_ctx_, id, "let: body to let value", {pa_[body]});
    }
  }
  if (node->kind != NodeKind::kReadAttr) return;
  const Node* object = node->object_child();
  if (pa_[object->id] != kNoFact) {
    if (options_.read_object_total_alterability) {
      AddTa(direct_ctx_, id, "alterability via read object",
            {pa_[object->id]});
    } else {
      AddPa(direct_ctx_, id, "alterability via read object",
            {pa_[object->id]});
    }
  }
  if (!options_.write_read_equality) return;
  for (const Node* write : set_->writes(node->attribute)) {
    if (pa_[write->object_child()->id] != kNoFact) {
      AddTa(direct_ctx_, id, "alterability via write object",
            {pa_[write->object_child()->id]});
    }
    if (Find(write->object_child()->id) != Find(object->id)) continue;
    if (Find(write->value_child()->id) != Find(id)) {
      std::vector<FactId> premises;
      ExplainEquality(direct_ctx_, write->object_child()->id, object->id,
                      premises);
      std::sort(premises.begin(), premises.end());
      premises.erase(std::unique(premises.begin(), premises.end()),
                     premises.end());
      AddEq(direct_ctx_, write->value_child()->id, id,
            "=: written value equals read", premises);
    }
    FactId alter = ta_[write->value_child()->id] != kNoFact
                       ? ta_[write->value_child()->id]
                       : pa_[write->value_child()->id];
    if (alter != kNoFact) {
      FireWriteValueRules(direct_ctx_, write, alter, node);
    }
  }
  for (const Node* other : obj_reads_[Find(object->id)]) {
    if (other == node || other->attribute != node->attribute) continue;
    if (Find(other->id) == Find(id)) continue;
    std::vector<FactId> premises;
    ExplainEquality(direct_ctx_, object->id, other->object_child()->id,
                    premises);
    AddEq(direct_ctx_, id, other->id, "=: reads of equal objects",
          premises);
  }
}

void Closure::RederiveClass(int rep) {
  // The per-class producers: the ti/pi implication and join, the
  // equal-pair pi* axiom, and the pi* swap/join around every pair key
  // touching the class. Origin sets are copied before iterating — the
  // Add* calls below may insert into the very sets being walked.
  {
    OriginSet tis = ti_[rep];
    for (const OriginSet::Entry& entry : tis.entries()) {
      if (pi_[rep].Lookup(entry.origin) == kNoFact) {
        AddPi(direct_ctx_, fact_of_[entry.fact].a, entry.origin,
              "ti => pi", {entry.fact});
      }
    }
  }
  if (options_.pi_join_to_ti) {
    OriginSet pis = pi_[rep];
    if (pis.size() >= 2) {
      for (const OriginSet::Entry& entry : pis.entries()) {
        if (ti_[rep].Lookup(entry.origin) != kNoFact) continue;
        for (const OriginSet::Entry& other : pis.entries()) {
          if (other.origin == entry.origin) continue;
          AddTi(direct_ctx_, fact_of_[entry.fact].a, entry.origin,
                "join of partial inferabilities",
                {entry.fact, other.fact});
          break;
        }
      }
    }
  }
  if (members_[rep].size() >= 2) {
    auto it = pistar_.find(PairKey(rep, rep));
    if (it == pistar_.end() || it->second.Lookup({0, '+'}) == kNoFact) {
      int m0 = members_[rep][0];
      int m1 = members_[rep][1];
      std::vector<FactId> premises;
      ExplainEquality(direct_ctx_, m0, m1, premises);
      AddPiStar(direct_ctx_, m0, m1, {0, '+'}, "=: pair of equals",
                premises);
    }
  }
}

void Closure::RederivePair(const DeletedPair& pair) {
  // One-step alternate support for an over-deleted pi*(a, b, origin):
  // either the swap of a surviving pi*(b, a, origin), or a join
  // pi*(a, m, origin) + pi*(m, b, _) through some surviving mediator m.
  // The mediator scan walks whichever endpoint's adjacency list is
  // shorter, so probes stay cheap even against a hub class.
  int ra = Find(pair.a);
  int rb = Find(pair.b);
  if (ra == rb) return;  // intra-class pairs come from "=: pair of equals"
  auto it = pistar_.find(PairKey(ra, rb));
  if (it != pistar_.end() && it->second.Lookup(pair.origin) != kNoFact) {
    return;  // already restored (replay kept it, or an earlier probe did)
  }
  auto swap_it = pistar_.find(PairKey(rb, ra));
  if (swap_it != pistar_.end()) {
    FactId swapped = swap_it->second.Lookup(pair.origin);
    if (swapped != kNoFact) {
      AddPiStar(direct_ctx_, pair.a, pair.b, pair.origin, "pi*: swap",
                {swapped});
      return;
    }
  }
  const std::vector<std::pair<int, int>>& left_adj = pistar_touching_[ra];
  const std::vector<std::pair<int, int>>& right_adj = pistar_touching_[rb];
  bool scan_left = left_adj.size() <= right_adj.size();
  const std::vector<std::pair<int, int>>& adj =
      scan_left ? left_adj : right_adj;
  for (const std::pair<int, int>& key : adj) {
    // Scanning from the left wants keys (ra, m); from the right, (m, rb).
    int mediator = scan_left ? key.second : key.first;
    if (scan_left ? key.first != ra : key.second != rb) continue;
    if (mediator == ra || mediator == rb) continue;
    auto left_it = pistar_.find(PairKey(ra, mediator));
    if (left_it == pistar_.end()) continue;
    FactId left_fact = left_it->second.Lookup(pair.origin);
    if (left_fact == kNoFact) continue;
    auto right_it = pistar_.find(PairKey(mediator, rb));
    if (right_it == pistar_.end() || right_it->second.empty()) continue;
    AddPiStar(direct_ctx_, pair.a, pair.b, pair.origin, "pi*: join",
              {left_fact, right_it->second.entries()[0].fact});
    return;
  }
}

// ---------------------------------------------------------------------
// Union-find with proof forest.

int Closure::Find(int id) {
  ++find_calls_;
  int root = id;
  while (uf_parent_[root] != root) root = uf_parent_[root];
  while (uf_parent_[id] != root) {
    int next = uf_parent_[id];
    uf_parent_[id] = root;
    id = next;
  }
  return root;
}

void Closure::InitCtx(EvalCtx& ctx) const {
  size_t n = static_cast<size_t>(set_->node_count()) + 1;
  if (ctx.bfs_seen_epoch.size() != n) {
    ctx.bfs_prev_node.resize(n);
    ctx.bfs_prev_edge.resize(n);
    ctx.bfs_seen_epoch.assign(n, 0);
    ctx.bfs_epoch = 0;
  }
}

void Closure::ExplainEquality(EvalCtx& ctx, int id1, int id2,
                              std::vector<FactId>& out) {
  if (id1 == id2) return;
  // BFS through the proof forest (paths are unique). The scratch state
  // is per-context and epoch-stamped: no per-call clearing, no
  // allocation, no sharing between chunk workers. In buffering mode
  // eq_edges_ is frozen (edges are only added in phase B and replay),
  // so concurrent walks are pure reads.
  ++ctx.bfs_epoch;
  ctx.bfs_queue.clear();
  ctx.bfs_queue.push_back(id1);
  ctx.bfs_seen_epoch[id1] = ctx.bfs_epoch;
  ctx.bfs_prev_node[id1] = id1;
  for (size_t head = 0; head < ctx.bfs_queue.size(); ++head) {
    int current = ctx.bfs_queue[head];
    if (current == id2) break;
    for (const auto& [next, edge] : eq_edges_[current]) {
      if (ctx.bfs_seen_epoch[next] == ctx.bfs_epoch) continue;
      ctx.bfs_seen_epoch[next] = ctx.bfs_epoch;
      ctx.bfs_prev_node[next] = current;
      ctx.bfs_prev_edge[next] = edge;
      ctx.bfs_queue.push_back(next);
    }
  }
  assert(ctx.bfs_seen_epoch[id2] == ctx.bfs_epoch &&
         "equality explanation requested for non-equal occurrences");
  for (int at = id2; at != id1; at = ctx.bfs_prev_node[at]) {
    out.push_back(ctx.bfs_prev_edge[at]);
  }
}

// ---------------------------------------------------------------------
// Fact derivation.

FactId Closure::Log(Fact fact, std::string_view rule, Premises premises) {
  FactId id = static_cast<FactId>(steps_.size());
  DerivationStep step;
  step.fact = fact;
  step.rule = rule;
  step.premise_offset = static_cast<uint32_t>(premise_arena_.size());
  step.premise_count = static_cast<uint32_t>(premises.size());
  premise_arena_.insert(premise_arena_.end(), premises.begin(),
                        premises.end());
  steps_.push_back(step);
  fact_of_.push_back(fact);
  next_frontier_.push_back(id);
  return id;
}

FactId Closure::Buffer(EvalCtx& ctx, const Fact& fact, std::string_view rule,
                       Premises premises) {
  ChunkOut& out = *ctx.out;
  Candidate candidate;
  candidate.fact = fact;
  candidate.rule = rule;
  candidate.premise_offset = static_cast<uint32_t>(out.premise_pool.size());
  candidate.premise_count = static_cast<uint32_t>(premises.size());
  out.premise_pool.insert(out.premise_pool.end(), premises.begin(),
                          premises.end());
  out.candidates.push_back(candidate);
  return kNoFact;
}

// The Add* bodies run in both modes. Dedup reads the (frozen or live)
// tables either way; the tail then either logs + mutates (direct) or
// buffers the candidate (chunk worker). A candidate that passes the
// frozen dedup can still lose at the barrier — an earlier candidate
// this round claimed the slot — where the direct re-check drops it.

FactId Closure::AddTa(EvalCtx& ctx, int id, std::string_view rule,
                      Premises premises) {
  if (ctx.buffering()) ++ctx.out->add_attempts;
  else ++add_attempts_;
  if (ta_[id] != kNoFact) return ta_[id];
  if (ctx.buffering()) {
    return Buffer(ctx, {Fact::Kind::kTa, id, 0, {}}, rule, premises);
  }
  FactId fact = Log({Fact::Kind::kTa, id, 0, {}}, rule, premises);
  ta_[id] = fact;
  return fact;
}

FactId Closure::AddPa(EvalCtx& ctx, int id, std::string_view rule,
                      Premises premises) {
  if (ctx.buffering()) ++ctx.out->add_attempts;
  else ++add_attempts_;
  if (pa_[id] != kNoFact) return pa_[id];
  if (ctx.buffering()) {
    return Buffer(ctx, {Fact::Kind::kPa, id, 0, {}}, rule, premises);
  }
  FactId fact = Log({Fact::Kind::kPa, id, 0, {}}, rule, premises);
  pa_[id] = fact;
  return fact;
}

FactId Closure::AddTi(EvalCtx& ctx, int id, Origin origin,
                      std::string_view rule, Premises premises) {
  if (ctx.buffering()) ++ctx.out->add_attempts;
  else ++add_attempts_;
  if (ctx.buffering()) {
    const OriginSet& origins = ti_[CtxFind(ctx, id)];
    FactId existing = origins.Lookup(origin);
    if (existing != kNoFact) return existing;
    if (origins.full()) return kNoFact;
    return Buffer(ctx, {Fact::Kind::kTi, id, 0, origin}, rule, premises);
  }
  OriginSet& origins = ti_[Find(id)];
  FactId existing = origins.Lookup(origin);
  if (existing != kNoFact) return existing;
  if (origins.full()) return kNoFact;
  FactId fact = Log({Fact::Kind::kTi, id, 0, origin}, rule, premises);
  origins.Insert(origin, fact);
  return fact;
}

FactId Closure::AddPi(EvalCtx& ctx, int id, Origin origin,
                      std::string_view rule, Premises premises) {
  if (ctx.buffering()) ++ctx.out->add_attempts;
  else ++add_attempts_;
  if (ctx.buffering()) {
    const OriginSet& origins = pi_[CtxFind(ctx, id)];
    FactId existing = origins.Lookup(origin);
    if (existing != kNoFact) return existing;
    if (origins.full()) return kNoFact;
    return Buffer(ctx, {Fact::Kind::kPi, id, 0, origin}, rule, premises);
  }
  OriginSet& origins = pi_[Find(id)];
  FactId existing = origins.Lookup(origin);
  if (existing != kNoFact) return existing;
  if (origins.full()) return kNoFact;
  FactId fact = Log({Fact::Kind::kPi, id, 0, origin}, rule, premises);
  origins.Insert(origin, fact);
  return fact;
}

FactId Closure::AddPiStar(EvalCtx& ctx, int id1, int id2, Origin origin,
                          std::string_view rule, Premises premises) {
  if (ctx.buffering()) ++ctx.out->add_attempts;
  else ++add_attempts_;
  std::pair<int, int> key = {CtxFind(ctx, id1), CtxFind(ctx, id2)};
  if (ctx.buffering()) {
    // No operator[]: the map must not grow (or rehash) under the other
    // chunk workers.
    auto it = pistar_.find(PairKey(key.first, key.second));
    if (it != pistar_.end()) {
      FactId existing = it->second.Lookup(origin);
      if (existing != kNoFact) return existing;
      if (it->second.full()) return kNoFact;
    }
    return Buffer(ctx, {Fact::Kind::kPiStar, id1, id2, origin}, rule,
                  premises);
  }
  OriginSet& origins = pistar_[PairKey(key.first, key.second)];
  FactId existing = origins.Lookup(origin);
  if (existing != kNoFact) return existing;
  if (origins.full()) return kNoFact;
  FactId fact = Log({Fact::Kind::kPiStar, id1, id2, origin}, rule, premises);
  origins.Insert(origin, fact);
  InsertSortedUnique(pistar_touching_[key.first], key);
  InsertSortedUnique(pistar_touching_[key.second], key);
  return fact;
}

FactId Closure::AddEq(EvalCtx& ctx, int id1, int id2, std::string_view rule,
                      Premises premises) {
  if (ctx.buffering()) ++ctx.out->add_attempts;
  else ++add_attempts_;
  if (CtxFind(ctx, id1) == CtxFind(ctx, id2)) return kNoFact;  // known
  if (ctx.buffering()) {
    return Buffer(ctx, {Fact::Kind::kEq, id1, id2, {}}, rule, premises);
  }
  return Log({Fact::Kind::kEq, id1, id2, {}}, rule, premises);
}

// ---------------------------------------------------------------------
// Seeding: the axioms of Table 2.

void Closure::Seed() {
  const unfold::UnfoldedSet& set = *set_;

  // Axioms for outer-most argument variables: ta[x] and ti[x, l, +].
  for (const unfold::Binder& binder : set.binders()) {
    if (!binder.is_root_arg) continue;
    for (const Node* occurrence : binder.occurrences) {
      AddTa(direct_ctx_, occurrence->id,
            "axiom: outer-most argument (alterable)", {});
      AddTi(direct_ctx_, occurrence->id, {occurrence->id, '+'},
            "axiom: outer-most argument (known)", {});
    }
  }

  // Axioms for constants and observed results.
  for (int i = 1; i <= set.node_count(); ++i) {
    const Node* node = set.node(i);
    if (node->kind == NodeKind::kConstant) {
      AddTi(direct_ctx_, node->id, {node->id, '+'}, "axiom: constant",
            {});
    }
  }
  for (const unfold::Root& root : set.roots()) {
    AddTi(direct_ctx_, root.body->id, {0, '-'},
          "axiom: observed result", {});
  }

  // Equality axioms: occurrences of the same variable, let bindings, and
  // let bodies.
  for (const unfold::Binder& binder : set.binders()) {
    for (size_t i = 1; i < binder.occurrences.size(); ++i) {
      AddEq(direct_ctx_, binder.occurrences[0]->id,
            binder.occurrences[i]->id, "axiom for =: same variable", {});
    }
    if (binder.bound_expr != nullptr && !binder.occurrences.empty()) {
      AddEq(direct_ctx_, binder.occurrences[0]->id,
            binder.bound_expr->id, "axiom for =: let binding", {});
    }
  }
  for (int i = 1; i <= set.node_count(); ++i) {
    const Node* node = set.node(i);
    if (node->is_let()) {
      AddEq(direct_ctx_, node->body()->id, node->id,
            "axiom for =: let value", {});
    }
  }

  // The pessimistic axiom: outer-most argument variables of the same
  // type may be given the same value (paper Table 2, rule 3).
  if (options_.same_type_argument_equality) {
    std::map<const types::Type*, const Node*> representative;
    for (const unfold::Binder& binder : set.binders()) {
      if (!binder.is_root_arg || binder.occurrences.empty()) continue;
      const Node* occurrence = binder.occurrences[0];
      auto [it, inserted] =
          representative.emplace(binder.type, occurrence);
      if (!inserted) {
        AddEq(direct_ctx_, it->second->id, occurrence->id,
              "axiom for =: outer-most arguments of the same type", {});
      }
    }
  }

  // Premise-free basic-function rules (e.g. "abs: non-negative image")
  // and rules whose premises are all axioms.
  if (options_.basic_function_rules) {
    for (int i = 1; i <= set.node_count(); ++i) {
      if (set.node(i)->kind == NodeKind::kBasicCall) {
        ReevalBasicCall(direct_ctx_, set.node(i));
      }
    }
  }
}

void Closure::Run() {
  obs::Tracer* tracer = obs_ != nullptr ? &obs_->tracer : nullptr;
  obs::Histogram* round_facts =
      obs_ != nullptr ? obs_->metrics.histogram("closure.fixpoint.round_facts")
                      : nullptr;
  RoundCrew crew(ResolveClosureThreads(options_.closure_threads));
  {
    obs::ScopedSpan fixpoint_span(tracer, "closure.fixpoint");
    // Semi-naive delta rounds: one round processes exactly the facts
    // derived before it began (the delta); conclusions land in
    // next_frontier_ and form the next round. Each round runs the
    // two-phase discipline documented on Run() in the header — frozen
    // chunk evaluation, a canonical-order merge, then the sequential
    // equality merges — so the log is byte-identical for every value
    // of closure_threads.
    while (!next_frontier_.empty()) {
      ++rounds_;
      obs::ScopedSpan round_span(tracer, "closure.fixpoint.round");
      size_t facts_before = steps_.size();
      frontier_.clear();
      std::swap(frontier_, next_frontier_);
      RunRound(crew);
      if (round_facts != nullptr) {
        round_facts->Record(steps_.size() - facts_before);
      }
    }
  }
  // Fully compress the union-find: afterwards every parent link points
  // at its root, Rep() is a single read, and the structure is safe for
  // concurrent readers (no mutation behind const).
  obs::ScopedSpan compress_span(tracer, "closure.compress");
  for (int i = 1; i < static_cast<int>(uf_parent_.size()); ++i) {
    uf_parent_[i] = Find(i);
  }
}

void Closure::RunRound(RoundCrew& crew) {
  size_t frontier_size = frontier_.size();
  // Phase A: evaluate every non-eq frontier fact against the frozen
  // round-start tables, buffering conclusions per chunk. Nothing
  // shared is written until every worker has finished.
  bool parallel =
      crew.threads > 1 && frontier_size >= kParallelFrontierThreshold;
  if (!parallel) {
    InitCtx(crew.inline_ctx);
    if (crew.outs.empty()) crew.outs.resize(1);
    ChunkOut& out = crew.outs[0];
    out.Clear();
    crew.inline_ctx.out = &out;
    EvalFrontierChunk(crew.inline_ctx, 0, frontier_size);
    crew.inline_ctx.out = nullptr;
    SnapshotChunkCounters(out);
    ApplyChunk(out);
  } else {
    size_t max_chunks =
        static_cast<size_t>(crew.threads) * kChunksPerThread;
    size_t chunks =
        std::clamp<size_t>(frontier_size / kMinChunkFacts, 1, max_chunks);
    size_t chunk_size = (frontier_size + chunks - 1) / chunks;
    if (crew.pool == nullptr) {
      crew.pool = std::make_unique<ThreadPool>(crew.threads);
      crew.worker_ctxs.reserve(static_cast<size_t>(crew.threads));
      for (int w = 0; w < crew.threads; ++w) {
        crew.worker_ctxs.push_back(std::make_unique<EvalCtx>());
        InitCtx(*crew.worker_ctxs.back());
      }
    }
    if (crew.outs.size() < chunks) crew.outs.resize(chunks);
    // One task per worker; tasks claim chunks through a shared cursor,
    // so a worker stuck on a dense chunk sheds the rest of the range
    // to its siblings. Each task owns one context; each chunk owns one
    // output buffer — no writable state is shared.
    std::atomic<size_t> next_chunk{0};
    for (int w = 0; w < crew.threads; ++w) {
      EvalCtx* ctx = crew.worker_ctxs[static_cast<size_t>(w)].get();
      crew.pool->Submit([this, &crew, &next_chunk, ctx, chunks, chunk_size,
                         frontier_size] {
        for (;;) {
          size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
          if (chunk >= chunks) break;
          size_t begin = chunk * chunk_size;
          size_t end = std::min(frontier_size, begin + chunk_size);
          ChunkOut& out = crew.outs[chunk];
          out.Clear();
          ctx->out = &out;
          EvalFrontierChunk(*ctx, begin, end);
          ctx->out = nullptr;
        }
      });
    }
    crew.pool->Wait();
    // Barrier: fold counters and apply candidates in chunk order —
    // which is frontier order, so the log can't see the chunking.
    ++parallel_rounds_;
    parallel_chunks_ += chunks;
    uint64_t total_candidates = 0;
    uint64_t max_candidates = 0;
    for (size_t chunk = 0; chunk < chunks; ++chunk) {
      const ChunkOut& out = crew.outs[chunk];
      SnapshotChunkCounters(out);
      total_candidates += out.candidates.size();
      max_candidates = std::max<uint64_t>(max_candidates,
                                          out.candidates.size());
    }
    if (obs_ != nullptr && chunks > 1 && total_candidates > 0) {
      // Max-over-mean chunk load in percent: 100 = perfectly balanced.
      obs_->metrics.histogram("closure.parallel.chunk_imbalance_pct")
          ->Record(max_candidates * 100 * chunks / total_candidates);
    }
    for (size_t chunk = 0; chunk < chunks; ++chunk) {
      ApplyChunk(crew.outs[chunk]);
    }
  }
  // Phase B: equality merges, sequential and mutating, in frontier
  // order. They run after the candidate merge so the cross-class
  // re-fires see everything this round derived.
  for (size_t i = 0; i < frontier_size; ++i) {
    FactId fact_id = frontier_[i];
    Fact fact = fact_of_[fact_id];  // copy: fact_of_ grows as rules fire
    if (fact.kind == Fact::Kind::kEq) ProcessEqMerge(fact, fact_id);
  }
}

void Closure::EvalFrontierChunk(EvalCtx& ctx, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    FactId fact_id = frontier_[i];
    const Fact fact = fact_of_[fact_id];
    switch (fact.kind) {
      case Fact::Kind::kTa:
        ProcessTa(ctx, fact, fact_id);
        break;
      case Fact::Kind::kPa:
        ProcessPa(ctx, fact, fact_id);
        break;
      case Fact::Kind::kEq:
        break;  // merged in phase B
      case Fact::Kind::kTi:
        ProcessTi(ctx, fact, fact_id);
        break;
      case Fact::Kind::kPi:
        ProcessPi(ctx, fact, fact_id);
        break;
      case Fact::Kind::kPiStar:
        ProcessPiStar(ctx, fact, fact_id);
        break;
    }
  }
}

void Closure::ApplyChunk(const ChunkOut& out) {
  for (const Candidate& candidate : out.candidates) {
    Premises premises{out.premise_pool.data() + candidate.premise_offset,
                      candidate.premise_count};
    const Fact& fact = candidate.fact;
    switch (fact.kind) {
      case Fact::Kind::kTa:
        AddTa(direct_ctx_, fact.a, candidate.rule, premises);
        break;
      case Fact::Kind::kPa:
        AddPa(direct_ctx_, fact.a, candidate.rule, premises);
        break;
      case Fact::Kind::kTi:
        AddTi(direct_ctx_, fact.a, fact.origin, candidate.rule, premises);
        break;
      case Fact::Kind::kPi:
        AddPi(direct_ctx_, fact.a, fact.origin, candidate.rule, premises);
        break;
      case Fact::Kind::kPiStar:
        AddPiStar(direct_ctx_, fact.a, fact.b, fact.origin, candidate.rule,
                  premises);
        break;
      case Fact::Kind::kEq:
        AddEq(direct_ctx_, fact.a, fact.b, candidate.rule, premises);
        break;
    }
  }
}

void Closure::SnapshotChunkCounters(const ChunkOut& out) {
  find_calls_ += out.find_calls;
  add_attempts_ += out.add_attempts;
  rule_evals_ += out.rule_evals;
  basic_reevals_ += out.basic_reevals;
}

// ---------------------------------------------------------------------
// Alterability rules (Table 2, rule 1).

void Closure::FireWriteValueRules(EvalCtx& ctx, const Node* write,
                                  FactId alter_fact, const Node* read) {
  // Premises: the alterability of the written value plus the equality of
  // the write and read objects.
  const Node* value = write->value_child();
  std::vector<FactId> premises = {alter_fact};
  ExplainEquality(ctx, write->object_child()->id, read->object_child()->id,
                  premises);
  if (ta_[value->id] != kNoFact) {
    AddTa(ctx, read->id, "alterability based on = (written value, total)",
          premises);
  } else {
    AddPa(ctx, read->id, "alterability based on = (written value)",
          premises);
  }
}

void Closure::FireLetAndWriteRulesForAlterability(EvalCtx& ctx, int id,
                                                  bool total,
                                                  FactId fact_id) {
  const Node* node = set_->node(id);
  const Node* parent = node->parent;

  // Written value -> reads of the same attribute on a provably equal
  // object.
  if (options_.write_read_equality && parent != nullptr &&
      parent->kind == NodeKind::kWriteAttr && node->child_index == 1) {
    for (const Node* read : set_->reads(parent->attribute)) {
      if (CtxFind(ctx, parent->object_child()->id) ==
          CtxFind(ctx, read->object_child()->id)) {
        FireWriteValueRules(ctx, parent, fact_id, read);
      }
    }
  }

  // Let rules: a bound expression's alterability reaches every
  // occurrence of the variable; a body's reaches the let value.
  int binder_id = binder_of_bound_expr_[id];
  if (binder_id >= 0) {
    for (const Node* occurrence : set_->binder(binder_id).occurrences) {
      if (total) {
        AddTa(ctx, occurrence->id, "let: bound expression to variable",
              {fact_id});
      } else {
        AddPa(ctx, occurrence->id, "let: bound expression to variable",
              {fact_id});
      }
    }
  }
  if (parent != nullptr && parent->is_let() && parent->body() == node) {
    if (total) {
      AddTa(ctx, parent->id, "let: body to let value", {fact_id});
    } else {
      AddPa(ctx, parent->id, "let: body to let value", {fact_id});
    }
  }
}

void Closure::ProcessTa(EvalCtx& ctx, const Fact& fact, FactId fact_id) {
  AddPa(ctx, fact.a, "ta => pa", {fact_id});
  FireLetAndWriteRulesForAlterability(ctx, fact.a, /*total=*/true, fact_id);
  // The index lists the (parent-call) rules with a ta or pa premise on
  // this occurrence. In the frozen phase the "ta => pa" conclusion above
  // is only a buffered candidate, so a rule needing the pa premise fails
  // here and fires next round, when the pa fact drains from the
  // frontier and re-runs these triggers itself.
  if (options_.basic_function_rules) {
    EvalTriggered(ctx, AlterTriggers(fact.a));
  }
}

void Closure::ProcessPa(EvalCtx& ctx, const Fact& fact, FactId fact_id) {
  const Node* node = set_->node(fact.a);
  const Node* parent = node->parent;

  if (parent != nullptr && node->child_index == 0) {
    if (parent->kind == NodeKind::kReadAttr) {
      // Altering which object is read alters the read result (see
      // ClosureOptions::read_object_total_alterability for the
      // conclusion's strength).
      if (options_.read_object_total_alterability) {
        AddTa(ctx, parent->id, "alterability via read object", {fact_id});
      } else {
        AddPa(ctx, parent->id, "alterability via read object", {fact_id});
      }
    }
    if (parent->kind == NodeKind::kWriteAttr &&
        options_.write_read_equality) {
      // Altering which object is written lets the user hit the object of
      // any read of the attribute.
      for (const Node* read : set_->reads(parent->attribute)) {
        AddTa(ctx, read->id, "alterability via write object", {fact_id});
      }
    }
  }

  FireLetAndWriteRulesForAlterability(ctx, fact.a, /*total=*/false, fact_id);

  if (options_.basic_function_rules) {
    EvalTriggered(ctx, AlterTriggers(fact.a));
  }
}

// ---------------------------------------------------------------------
// Equality merges (Table 2, rules 2 & 3).

void Closure::ProcessEqMerge(const Fact& fact, FactId fact_id) {
  int ra = Find(fact.a);
  int rb = Find(fact.b);
  if (ra == rb) return;  // derived redundantly while queued
  ++eq_merges_;

  // Proof forest edge between the original endpoints.
  eq_edges_[fact.a].emplace_back(fact.b, fact_id);
  eq_edges_[fact.b].emplace_back(fact.a, fact_id);

  // Read/read and write/read equality rules, fired across the two halves
  // before the merge (within-half pairs were handled earlier).
  if (options_.write_read_equality) {
    auto cross = [&](int obj_side, int read_side) {
      for (const Node* write : obj_writes_[obj_side]) {
        for (const Node* read : obj_reads_[read_side]) {
          if (write->attribute != read->attribute) continue;
          // =[e1,e2] -> =[e3, r_att(e2)] where w_att(e1, e3): the written
          // value equals reads of the attribute on an equal object.
          std::vector<FactId> premises;
          ExplainEquality(direct_ctx_, write->object_child()->id,
                          read->object_child()->id, premises);
          // The merge is in progress: the chain runs through this fact.
          premises.push_back(fact_id);
          std::sort(premises.begin(), premises.end());
          premises.erase(std::unique(premises.begin(), premises.end()),
                         premises.end());
          AddEq(direct_ctx_, write->value_child()->id, read->id,
                "=: written value equals read", premises);
          // Alterability of the written value transfers to the read.
          FactId alter = ta_[write->value_child()->id] != kNoFact
                             ? ta_[write->value_child()->id]
                             : pa_[write->value_child()->id];
          if (alter != kNoFact) {
            FireWriteValueRules(direct_ctx_, write, alter, read);
          }
        }
      }
      for (const Node* read1 : obj_reads_[obj_side]) {
        for (const Node* read2 : obj_reads_[read_side]) {
          if (read1 == read2 || read1->attribute != read2->attribute) {
            continue;
          }
          AddEq(direct_ctx_, read1->id, read2->id,
                "=: reads of equal objects", {fact_id});
        }
      }
    };
    cross(ra, rb);
    cross(rb, ra);
  }

  // Snapshot both sides' pi* keys before the union erases the side
  // distinction: the merge is about to make cross-side chains joinable,
  // and every pair involved is an already-processed fact the semi-naive
  // frontier will never revisit. Without the cross-join below, whether
  // pi*[(ea,ec)] gets derived would depend on whether this eq fact
  // happened to precede the two pair facts — an order dependence that
  // cold and warm runs resolve differently (warm starts replay old pairs
  // without processing them, so a late bridge eq would silently drop the
  // joins a cold build happens to catch).
  std::vector<std::pair<int, int>> side_a = pistar_touching_[ra];
  std::vector<std::pair<int, int>> side_b = pistar_touching_[rb];

  int root = MergeClasses(ra, rb);

  // Join: pi*[(ea,eb)], pi*[(eb',ec)] -> pi*[(ea,ec)] where this merge
  // united eb with eb'. Same rule as ProcessPiStar's join, fired at
  // merge time for the cross-side combinations that only now chain.
  // Within-side joins already fired when the later pair was processed.
  auto cross_join = [&](const std::vector<std::pair<int, int>>& into,
                        int into_rep,
                        const std::vector<std::pair<int, int>>& from,
                        int from_rep) {
    for (const std::pair<int, int>& left : into) {
      if (left.second != into_rep) continue;
      for (const std::pair<int, int>& right : from) {
        if (right.first != from_rep) continue;
        // The snapshots hold pre-merge keys; the absorbed side's entries
        // were re-keyed to `root`, so look up through Find.
        auto left_it =
            pistar_.find(PairKey(Find(left.first), Find(left.second)));
        if (left_it == pistar_.end() || left_it->second.empty()) continue;
        auto right_it =
            pistar_.find(PairKey(Find(right.first), Find(right.second)));
        if (right_it == pistar_.end() || right_it->second.empty()) {
          continue;
        }
        const OriginSet::Entry& left_entry = left_it->second.entries()[0];
        const OriginSet::Entry& right_entry =
            right_it->second.entries()[0];
        const Fact& left_fact = fact_of_[left_entry.fact];
        const Fact& right_fact = fact_of_[right_entry.fact];
        if (Find(left_fact.a) == Find(right_fact.b)) continue;
        // Conclusion keeps the first pair's provenance, mirroring
        // ProcessPiStar.
        AddPiStar(direct_ctx_, left_fact.a, right_fact.b, left_entry.origin,
                  "pi*: join", {left_entry.fact, right_entry.fact});
      }
    }
  };
  cross_join(side_a, ra, side_b, rb);
  cross_join(side_b, rb, side_a, ra);

  // =[e1,e2] -> pi*[(e1,e2), 0, +]: equal expressions form a known pair.
  AddPiStar(direct_ctx_, fact.a, fact.b, {0, '+'}, "=: pair of equals",
            {fact_id});

  // The merged class may have gained inferability origins (pi-join) and
  // new rule opportunities.
  if (options_.pi_join_to_ti) {
    const OriginSet& joined = pi_[root];
    if (joined.size() >= 2) {
      std::span<const OriginSet::Entry> entries = joined.entries();
      AddTi(direct_ctx_, fact.a, entries[0].origin,
            "join of partial inferabilities",
            {entries[0].fact, entries[1].fact});
    }
  }
  if (options_.basic_function_rules) ReevalCallsTouching(root);
}

int Closure::MergeClasses(int ra, int rb) {
  // Union by rank.
  int root = ra;
  int absorbed = rb;
  if (uf_rank_[root] < uf_rank_[absorbed]) std::swap(root, absorbed);
  if (uf_rank_[root] == uf_rank_[absorbed]) ++uf_rank_[root];
  uf_parent_[absorbed] = root;

  // Merge per-class tables (append, preserving per-side order).
  auto merge_members = [&](auto& table) {
    auto& source = table[absorbed];
    if (source.empty()) return;
    auto& target = table[root];
    target.insert(target.end(), source.begin(), source.end());
    source.clear();
    source.shrink_to_fit();
  };
  merge_members(members_);
  merge_members(obj_reads_);
  merge_members(obj_writes_);
  {
    // touching_calls_ keeps set semantics: sorted-by-id merge, unique.
    auto& source = touching_calls_[absorbed];
    if (!source.empty()) {
      auto& target = touching_calls_[root];
      for (const Node* call : source) {
        InsertSortedUniqueById(target, call);
      }
      source.clear();
      source.shrink_to_fit();
    }
  }
  // Trigger lists follow their class (same sorted-unique semantics).
  auto merge_triggers = [&](std::vector<std::vector<RuleRef>>& table) {
    std::vector<RuleRef>& source = table[absorbed];
    if (source.empty()) return;
    std::vector<RuleRef>& target = table[root];
    for (const RuleRef& ref : source) {
      auto it = std::lower_bound(target.begin(), target.end(), ref);
      if (it == target.end() || !(*it == ref)) target.insert(it, ref);
    }
    source.clear();
    source.shrink_to_fit();
  };
  merge_triggers(infer_triggers_);
  merge_triggers(pistar_triggers_);

  // Merge inferability origin sets ("=: inferability propagation" is
  // materialized by class-level storage).
  auto merge_origins = [&](std::vector<OriginSet>& table) {
    OriginSet& source = table[absorbed];
    if (source.empty()) return;
    OriginSet& target = table[root];
    for (const OriginSet::Entry& entry : source.entries()) {
      if (target.full()) break;
      target.Insert(entry.origin, entry.fact);
    }
    source.Clear();
  };
  merge_origins(ti_);
  merge_origins(pi_);

  // Re-key pi* pairs that touch the absorbed class.
  {
    std::vector<std::pair<int, int>> keys =
        std::move(pistar_touching_[absorbed]);
    pistar_touching_[absorbed].clear();
    for (const std::pair<int, int>& key : keys) {
      auto pair_it = pistar_.find(PairKey(key.first, key.second));
      if (pair_it == pistar_.end()) continue;
      OriginSet origins = pair_it->second;
      pistar_.erase(pair_it);
      EraseSorted(pistar_touching_[key.first], key);
      EraseSorted(pistar_touching_[key.second], key);
      std::pair<int, int> new_key = {
          key.first == absorbed ? root : key.first,
          key.second == absorbed ? root : key.second};
      OriginSet& target = pistar_[PairKey(new_key.first, new_key.second)];
      for (const OriginSet::Entry& entry : origins.entries()) {
        if (target.full()) break;
        target.Insert(entry.origin, entry.fact);
      }
      InsertSortedUnique(pistar_touching_[new_key.first], new_key);
      InsertSortedUnique(pistar_touching_[new_key.second], new_key);
    }
  }
  return root;
}

// ---------------------------------------------------------------------
// Inferability rules (Table 2, rule 2 + basic-function rules).

void Closure::ProcessTi(EvalCtx& ctx, const Fact& fact, FactId fact_id) {
  AddPi(ctx, fact.a, fact.origin, "ti => pi", {fact_id});
  // infer_triggers_ covers rules with a ti *or* pi premise in the class.
  // The "ti => pi" conclusion above is only buffered, so a rule whose pi
  // premise it would satisfy fails here and fires when that pi fact
  // drains from the frontier next round.
  if (options_.basic_function_rules) {
    EvalTriggered(ctx, infer_triggers_[CtxFind(ctx, fact.a)]);
  }
}

void Closure::ProcessPi(EvalCtx& ctx, const Fact& fact, FactId fact_id) {
  if (options_.pi_join_to_ti) {
    const OriginSet& origins = pi_[CtxFind(ctx, fact.a)];
    if (origins.size() >= 2) {
      // pi[e,n1,d1], pi[e,n2,d2] -> ti[e,n1,d1] for (n1,d1) != (n2,d2):
      // two differently-obtained candidate sets may intersect to a
      // single value (pessimistic assumption 2 of §4.1).
      for (const OriginSet::Entry& entry : origins.entries()) {
        if (entry.origin == fact.origin) continue;
        AddTi(ctx, fact.a, fact.origin, "join of partial inferabilities",
              {fact_id, entry.fact});
        AddTi(ctx, fact.a, entry.origin, "join of partial inferabilities",
              {entry.fact, fact_id});
        break;
      }
    }
  }
  if (options_.basic_function_rules) {
    EvalTriggered(ctx, infer_triggers_[CtxFind(ctx, fact.a)]);
  }
}

void Closure::ProcessPiStar(EvalCtx& ctx, const Fact& fact,
                            FactId fact_id) {
  // pi*[(e1,e2)] -> pi*[(e2,e1)] (transposing the set is free).
  AddPiStar(ctx, fact.b, fact.a, fact.origin, "pi*: swap", {fact_id});

  // Join: pi*[(ea,eb)], pi*[(eb,ec)] -> pi*[(ea,ec)]. Frontier dispatch
  // only reaches here in the frozen phase, where pistar_touching_ cannot
  // grow (AddPiStar buffers instead of inserting), so iterating the
  // lists in place is safe.
  int ra = CtxFind(ctx, fact.a);
  int rb = CtxFind(ctx, fact.b);
  for (const std::pair<int, int>& key : pistar_touching_[rb]) {
    if (key.first != rb) continue;
    auto it = pistar_.find(PairKey(key.first, key.second));
    if (it == pistar_.end() || it->second.empty()) continue;
    int rc = key.second;
    if (rc == ra) continue;
    // Conclusion keeps the first pair's provenance (paper Table 2).
    AddPiStar(ctx, fact.a, members_[rc].front(), fact.origin, "pi*: join",
              {fact_id, it->second.entries()[0].fact});
  }
  for (const std::pair<int, int>& key : pistar_touching_[ra]) {
    if (key.second != ra) continue;
    auto it = pistar_.find(PairKey(key.first, key.second));
    if (it == pistar_.end() || it->second.empty()) continue;
    int rc = key.first;
    if (rc == rb) continue;
    AddPiStar(ctx, members_[rc].front(), fact.b,
              it->second.entries()[0].origin, "pi*: join",
              {it->second.entries()[0].fact, fact_id});
  }

  if (options_.basic_function_rules) {
    EvalTriggered(ctx, pistar_triggers_[ra]);
    if (rb != ra) EvalTriggered(ctx, pistar_triggers_[rb]);
  }
}

// ---------------------------------------------------------------------
// Basic-function rules (§4.1).

bool Closure::PickOrigin(const OriginSet& origins, const Origin* excluded,
                         Origin& origin_out, FactId& fact_out) {
  for (const OriginSet::Entry& entry : origins.entries()) {
    if (excluded != nullptr && entry.origin == *excluded) continue;
    origin_out = entry.origin;
    fact_out = entry.fact;
    return true;
  }
  return false;
}

void Closure::EvalRule(EvalCtx& ctx, const Node* call,
                       const BasicRule& rule) {
  if (ctx.buffering()) ++ctx.out->rule_evals;
  else ++rule_evals_;
  auto id_at = [&](int pos) {
    return pos == kResultPos ? call->id : call->children[pos]->id;
  };
  // The feedback guards of §4.1: an argument premise must not originate
  // from this call's result rules, a result-involving premise must not
  // originate from this call's argument rules.
  Origin arg_guard = {call->id, '-'};
  Origin result_guard = {call->id, '+'};

  {
    std::vector<FactId>& premises = ctx.scratch_premises;
    premises.clear();
    bool ok = true;
    for (const RuleAtom& atom : rule.premises) {
      int id = id_at(atom.pos);
      switch (atom.pred) {
        case RuleAtom::Pred::kTa:
          if (ta_[id] == kNoFact) ok = false;
          else premises.push_back(ta_[id]);
          break;
        case RuleAtom::Pred::kPa:
          if (pa_[id] == kNoFact) ok = false;
          else premises.push_back(pa_[id]);
          break;
        case RuleAtom::Pred::kTi:
        case RuleAtom::Pred::kPi: {
          const Origin* excluded =
              atom.pos == kResultPos ? &result_guard : &arg_guard;
          const OriginSet& origins =
              (atom.pred == RuleAtom::Pred::kTi ? ti_
                                                : pi_)[CtxFind(ctx, id)];
          Origin origin;
          FactId fact;
          if (!PickOrigin(origins, excluded, origin, fact)) {
            ok = false;
          } else {
            premises.push_back(fact);
            // The stored fact may live on another member of id's
            // equality class; include the =-chain in the justification.
            int stored_at = fact_of_[fact].a;
            if (stored_at != id) {
              ExplainEquality(ctx, stored_at, id, premises);
            }
          }
          break;
        }
        case RuleAtom::Pred::kPiStar: {
          bool involves_result =
              atom.pos == kResultPos || atom.pos2 == kResultPos;
          const Origin* excluded =
              involves_result ? &result_guard : &arg_guard;
          auto it = pistar_.find(
              PairKey(CtxFind(ctx, id), CtxFind(ctx, id_at(atom.pos2))));
          Origin origin;
          FactId fact;
          if (it == pistar_.end() ||
              !PickOrigin(it->second, excluded, origin, fact)) {
            ok = false;
          } else {
            premises.push_back(fact);
          }
          break;
        }
      }
      if (!ok) break;
    }
    if (!ok) return;

    bool premise_involves_result = false;
    for (const RuleAtom& atom : rule.premises) {
      if (atom.pos == kResultPos ||
          (atom.pred == RuleAtom::Pred::kPiStar &&
           atom.pos2 == kResultPos)) {
        premise_involves_result = true;
      }
    }
    char dir = premise_involves_result ? '-' : '+';

    const RuleAtom& conclusion = rule.conclusion;
    switch (conclusion.pred) {
      case RuleAtom::Pred::kTa:
        AddTa(ctx, id_at(conclusion.pos), rule.label, premises);
        break;
      case RuleAtom::Pred::kPa:
        AddPa(ctx, id_at(conclusion.pos), rule.label, premises);
        break;
      case RuleAtom::Pred::kTi:
        AddTi(ctx, id_at(conclusion.pos),
              {call->id, conclusion.pos == kResultPos ? '+' : '-'},
              rule.label, premises);
        break;
      case RuleAtom::Pred::kPi:
        AddPi(ctx, id_at(conclusion.pos),
              {call->id, conclusion.pos == kResultPos ? '+' : '-'},
              rule.label, premises);
        break;
      case RuleAtom::Pred::kPiStar:
        AddPiStar(ctx, id_at(conclusion.pos), id_at(conclusion.pos2),
                  {call->id, dir}, rule.label, premises);
        break;
    }
  }
}

void Closure::ReevalBasicCall(EvalCtx& ctx, const Node* call) {
  if (ctx.buffering()) ++ctx.out->basic_reevals;
  else ++basic_reevals_;
  for (const BasicRule& rule : RulesFor(*call->basic)) {
    EvalRule(ctx, call, rule);
  }
}

void Closure::EvalTriggered(EvalCtx& ctx, std::span<const RuleRef> triggers) {
  // Safe to iterate in place: rule firing only logs or buffers facts
  // (merges happen at ProcessEqMerge time, never inside Add*), so the
  // trigger tables cannot move under us.
  for (const RuleRef& ref : triggers) EvalRule(ctx, ref.call, *ref.rule);
}

void Closure::ReevalCallsTouching(int rep) {
  // Copy: merges triggered by derived equalities may mutate the table.
  std::vector<const Node*> calls = touching_calls_[rep];
  for (const Node* call : calls) ReevalBasicCall(direct_ctx_, call);
}

// ---------------------------------------------------------------------
// Metrics publication.

namespace {

// Groups a derivation-rule label into its Table-2 family. Labels are
// stable strings (closure.cc literals or BasicRule labels), so prefix
// tests are enough.
std::string_view RuleFamily(std::string_view rule) {
  if (rule.starts_with("axiom")) return "axiom";        // incl. "axiom for ="
  if (rule.starts_with("=:")) return "equality";
  if (rule.starts_with("pi*")) return "pistar";
  if (rule.starts_with("let:")) return "let";
  if (rule.starts_with("alterability")) return "read_write";
  if (rule == "ta => pa" || rule == "ti => pi") return "implication";
  if (rule == "join of partial inferabilities") return "join";
  return "basic_function";
}

std::string_view KindName(Fact::Kind kind) {
  switch (kind) {
    case Fact::Kind::kTa: return "ta";
    case Fact::Kind::kPa: return "pa";
    case Fact::Kind::kTi: return "ti";
    case Fact::Kind::kPi: return "pi";
    case Fact::Kind::kPiStar: return "pistar";
    case Fact::Kind::kEq: return "eq";
  }
  return "?";
}

}  // namespace

void Closure::FlushMetrics() {
  if (obs_ == nullptr) return;
  obs::MetricsRegistry& metrics = obs_->metrics;
  metrics.counter("closure.builds")->Increment();
  metrics.counter("closure.facts.total")->Increment(steps_.size());
  metrics.counter("closure.fixpoint.rounds")->Increment(rounds_);
  metrics.counter("closure.uf.finds")->Increment(find_calls_);
  metrics.counter("closure.add.attempts")->Increment(add_attempts_);
  metrics.counter("closure.basic_call.reevals")->Increment(basic_reevals_);
  metrics.counter("closure.eq.merges")->Increment(eq_merges_);
  metrics.counter("closure.delta.rule_evals")->Increment(rule_evals_);
  if (parallel_rounds_ > 0) {
    metrics.counter("closure.parallel.rounds")->Increment(parallel_rounds_);
    metrics.counter("closure.parallel.chunks")->Increment(parallel_chunks_);
  }
  if (warm_started_ && !retracted_) {
    metrics.counter("closure.delta.warm_starts")->Increment();
    metrics.counter("closure.delta.replayed_facts")
        ->Increment(replayed_facts_);
    metrics.counter("closure.delta.new_facts")
        ->Increment(steps_.size() - replayed_facts_);
  }
  if (retracted_) {
    metrics.counter("closure.retract.builds")->Increment();
    metrics.counter("closure.retract.cone_facts")
        ->Increment(retracted_facts_);
    metrics.counter("closure.retract.replayed_facts")
        ->Increment(replayed_facts_);
    metrics.counter("closure.retract.rederived_facts")
        ->Increment(steps_.size() - replayed_facts_);
  }

  // Per-family and per-kind fact counts come from one pass over the
  // derivation log — nothing in the hot path pays for them.
  std::array<uint64_t, 6> by_kind{};
  std::map<std::string_view, uint64_t> by_family;
  for (const DerivationStep& step : steps_) {
    ++by_kind[static_cast<size_t>(step.fact.kind)];
    ++by_family[RuleFamily(step.rule)];
  }
  for (size_t k = 0; k < by_kind.size(); ++k) {
    if (by_kind[k] == 0) continue;
    metrics
        .counter(common::StrCat("closure.facts.kind.",
                                KindName(static_cast<Fact::Kind>(k))))
        ->Increment(by_kind[k]);
  }
  for (const auto& [family, count] : by_family) {
    metrics.counter(common::StrCat("closure.facts.family.", family))
        ->Increment(count);
  }
}

// ---------------------------------------------------------------------
// Queries and rendering.

bool Closure::HasTi(int id) const { return !ti_[Rep(id)].empty(); }

bool Closure::HasPi(int id) const {
  return HasTi(id) || !pi_[Rep(id)].empty();
}

bool Closure::AreEqual(int id1, int id2) const {
  return Rep(id1) == Rep(id2);
}

FactId Closure::TiFact(int id) const {
  const OriginSet& origins = ti_[Rep(id)];
  return origins.empty() ? kNoFact : origins.entries()[0].fact;
}

FactId Closure::PiFact(int id) const {
  const OriginSet& origins = pi_[Rep(id)];
  if (!origins.empty()) return origins.entries()[0].fact;
  return TiFact(id);
}

std::string Closure::FactSetDigest() const {
  int n = set_->node_count();
  std::string out;
  out.reserve(static_cast<size_t>(n) * 4 + 32);
  // Per-occurrence predicate bits, one hex digit per occurrence.
  for (int id = 1; id <= n; ++id) {
    unsigned bits = (HasTa(id) ? 1u : 0u) | (HasPa(id) ? 2u : 0u) |
                    (HasTi(id) ? 4u : 0u) | (HasPi(id) ? 8u : 0u);
    out.push_back("0123456789abcdef"[bits]);
  }
  out.push_back('|');
  // Equality partition, canonicalized: each occurrence maps to the
  // smallest member of its class.
  std::vector<int> leader(n + 1, 0);
  for (int id = 1; id <= n; ++id) {
    int rep = Rep(id);
    if (leader[rep] == 0) leader[rep] = id;  // ids ascend: first is min
  }
  for (int id = 1; id <= n; ++id) {
    out += common::StrCat(leader[Rep(id)], ",");
  }
  out.push_back('|');
  // pi* pairs as (min member, min member), sorted for determinism.
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(pistar_.size());
  for (const auto& [key, origins] : pistar_) {
    if (origins.empty()) continue;
    pairs.emplace_back(leader[static_cast<int>(key >> 32)],
                       leader[static_cast<int>(key & 0xffffffffu)]);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  for (const auto& [a, b] : pairs) {
    out += common::StrCat(a, ":", b, ",");
  }
  return out;
}

std::string Closure::FactToString(const Fact& fact) const {
  switch (fact.kind) {
    case Fact::Kind::kTa:
      return common::StrCat("ta[", set_->ShortLabel(fact.a), "]");
    case Fact::Kind::kPa:
      return common::StrCat("pa[", set_->ShortLabel(fact.a), "]");
    case Fact::Kind::kTi:
      return common::StrCat("ti[", set_->ShortLabel(fact.a), ", ",
                            fact.origin.ToString(), "]");
    case Fact::Kind::kPi:
      return common::StrCat("pi[", set_->ShortLabel(fact.a), ", ",
                            fact.origin.ToString(), "]");
    case Fact::Kind::kPiStar:
      return common::StrCat("pi*[(", set_->ShortLabel(fact.a), ", ",
                            set_->ShortLabel(fact.b), "), ",
                            fact.origin.ToString(), "]");
    case Fact::Kind::kEq:
      return common::StrCat("=[", set_->ShortLabel(fact.a), ", ",
                            set_->ShortLabel(fact.b), "]");
  }
  return "?";
}

std::string Closure::ExplainFact(FactId fact) const {
  return ExplainFacts({fact});
}

std::string Closure::ExplainFacts(const std::vector<FactId>& facts) const {
  // Collect the supporting sub-derivation, then print in derivation
  // order (premises always precede conclusions because FactIds grow).
  // Purely local state: safe for concurrent callers.
  std::vector<bool> needed(steps_.size(), false);
  std::vector<FactId> stack(facts.begin(), facts.end());
  while (!stack.empty()) {
    FactId current = stack.back();
    stack.pop_back();
    if (current == kNoFact || needed[current]) continue;
    needed[current] = true;
    for (FactId premise : premises(current)) {
      stack.push_back(premise);
    }
  }
  std::string out;
  for (FactId id = 0; id < static_cast<FactId>(steps_.size()); ++id) {
    if (!needed[id]) continue;
    const DerivationStep& step = steps_[id];
    out += FactToString(step.fact);
    out += "   (";
    out += step.rule;
    out += ")\n";
  }
  return out;
}

}  // namespace oodbsec::core
