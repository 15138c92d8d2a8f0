#include "core/closure.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <span>

#include "common/strings.h"

namespace oodbsec::core {

using unfold::Node;
using unfold::NodeKind;

namespace {

void InsertSortedUniqueById(std::vector<const Node*>& nodes,
                            const Node* node) {
  auto it = std::lower_bound(
      nodes.begin(), nodes.end(), node,
      [](const Node* a, const Node* b) { return a->id < b->id; });
  if (it == nodes.end() || *it != node) nodes.insert(it, node);
}

// The two shapes a finished derivation log comes in, behind the
// accessors Closure::Replay reads: a live closure's steps, and a
// snapshot record's fixed-width image (decoded one step at a time,
// straight out of the record bytes).
struct LogSource {
  std::span<const DerivationStep> steps;
  std::span<const FactId> arena;

  size_t size() const { return steps.size(); }
  size_t arena_size() const { return arena.size(); }
  Fact fact(size_t i) const { return steps[i].fact; }
  std::string_view rule(size_t i) const { return steps[i].rule; }
  std::span<const FactId> premises(size_t i) const {
    return {arena.data() + steps[i].premise_offset, steps[i].premise_count};
  }
};

struct PackedSource {
  const ReplayView& view;

  size_t size() const { return view.steps.size(); }
  size_t arena_size() const { return view.premise_arena.size(); }
  Fact fact(size_t i) const {
    const PackedStep& packed = view.steps[i];
    Fact fact;
    fact.kind = static_cast<Fact::Kind>(packed.kind);
    fact.a = packed.a;
    fact.b = packed.b;
    fact.origin.num = packed.origin_num;
    fact.origin.dir = static_cast<char>(packed.origin_dir);
    return fact;
  }
  std::string_view rule(size_t i) const {
    return view.rules[view.steps[i].rule];
  }
  std::span<const FactId> premises(size_t i) const {
    const PackedStep& packed = view.steps[i];
    return {view.premise_arena.data() + packed.premise_offset,
            packed.premise_count};
  }
};

}  // namespace

std::string Origin::ToString() const {
  return common::StrCat("(", num, ",", std::string(1, dir), ")");
}

Closure::Closure(const unfold::UnfoldedSet& set, ClosureOptions options,
                 obs::Observability* obs, const Closure* base)
    : set_(&set), options_(options), obs_(obs) {
  Build(base, nullptr);
}

Closure::Closure(const unfold::UnfoldedSet& set, ClosureOptions options,
                 obs::Observability* obs, const ReplayView& view)
    : set_(&set), options_(options), obs_(obs) {
  Build(nullptr, &view);
}

void Closure::Build(const Closure* base, const ReplayView* view) {
  obs::Tracer* tracer = obs_ != nullptr ? &obs_->tracer : nullptr;
  obs::ScopedSpan closure_span(tracer, "closure");
  InitTables();

  std::vector<int> old_to_new;
  Reuse reuse = base != nullptr ? MatchRoots(*base, old_to_new) : Reuse::kCold;
  // Where the rederive pass re-fires the structural rules: the
  // occurrences a shrink's cone touched, or a grow's new occurrences.
  std::vector<int> touched;
  std::vector<char> deleted;
  if (reuse == Reuse::kShrink) {
    obs::ScopedSpan delete_span(tracer, "closure.retract.delete");
    OverDelete(*base, old_to_new, deleted, touched);
  }
  if (view != nullptr || reuse != Reuse::kCold) {
    obs::ScopedSpan replay_span(tracer, "closure.replay");
    if (view != nullptr) {
      Replay(PackedSource{*view}, nullptr, nullptr);
    } else {
      Replay(LogSource{base->steps_, base->premise_arena_}, &old_to_new,
             reuse == Reuse::kShrink ? &deleted : nullptr);
    }
    warm_started_ = true;
    retracted_ = reuse == Reuse::kShrink;
  }
  if (reuse == Reuse::kGrow) {
    // Occurrences the base does not cover: the added roots' blocks.
    // Replayed facts never enter the frontier, so a rule keyed on an
    // old occurrence (e.g. "alterability via write object", whose
    // conclusions span every read of the attribute) would never see
    // these new targets. Rederive() re-fires the per-occurrence and
    // per-class producers from the new nodes' perspective, reading the
    // replayed state the frontier skipped.
    std::vector<char> mapped(set_->node_count() + 1, 0);
    for (int old_id = 1; old_id < static_cast<int>(old_to_new.size());
         ++old_id) {
      if (old_to_new[old_id] != 0) mapped[old_to_new[old_id]] = 1;
    }
    for (int id = 1; id <= set_->node_count(); ++id) {
      if (mapped[id] == 0) touched.push_back(id);
    }
  }

  // Seed() adds every axiom the log lacks and re-evaluates every
  // basic-function rule against the replayed tables; Rederive() covers
  // the structural rules at the touched sites. Both only enqueue
  // genuinely missing facts, and Run() propagates their consequences to
  // the fixpoint. After a complete snapshot log they append nothing,
  // which keeps that replay byte-identical to the saved closure; they
  // run anyway so that a partial or stale log is merely slow, not wrong.
  {
    obs::ScopedSpan seed_span(tracer, "closure.seed");
    Seed();
  }
  {
    std::optional<obs::ScopedSpan> rederive_span;
    if (retracted_) rederive_span.emplace(tracer, "closure.retract.rederive");
    Rederive(touched);
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
  comp_parent_.resize(n + 1);
  comp_rank_.assign(n + 1, 0);
  comp_origins_.resize(n + 1);
  pistar_edges_.resize(n + 1);
  pair_of_equals_.assign(n + 1, kNoFact);
  touching_calls_.resize(n + 1);
  obj_reads_.resize(n + 1);
  obj_writes_.resize(n + 1);
  binder_of_bound_expr_.assign(n + 1, -1);
  bfs_prev_node_.resize(n + 1);
  bfs_prev_edge_.resize(n + 1);
  bfs_seen_epoch_.assign(n + 1, 0);
  for (int i = 1; i <= n; ++i) {
    uf_parent_[i] = i;
    comp_parent_[i] = i;
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
  // the class- and component-keyed tables stay vectors because
  // MergeClasses and UnionComponents fold them on every union.
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

Closure::Reuse Closure::MatchRoots(const Closure& base,
                                   std::vector<int>& old_to_new) const {
  if (!(base.options_ == options_)) return Reuse::kCold;
  const std::vector<unfold::Root>& old_roots = base.set_->roots();
  const std::vector<unfold::Root>& new_roots = set_->roots();
  // Pair the k-th duplicate of a name with the k-th duplicate: unfolding
  // a function is deterministic, so position within the root list never
  // changes a root's shape (see unfold::Root).
  std::map<std::string_view, std::vector<size_t>> new_by_name;
  for (size_t j = 0; j < new_roots.size(); ++j) {
    new_by_name[new_roots[j].function_name].push_back(j);
  }
  std::map<std::string_view, size_t> seen;
  old_to_new.assign(base.set_->node_count() + 1, 0);
  size_t paired = 0;
  for (const unfold::Root& old_root : old_roots) {
    size_t k = seen[old_root.function_name]++;
    auto it = new_by_name.find(old_root.function_name);
    if (it == new_by_name.end() || k >= it->second.size()) continue;
    const unfold::Root& new_root = new_roots[it->second[k]];
    int old_first = old_root.first_node_id;
    int old_last = old_root.body->id;
    int new_first = new_root.first_node_id;
    if (old_last - old_first != new_root.body->id - new_first) {
      return Reuse::kCold;  // shape mismatch: schemas differ
    }
    for (int id = old_first; id <= old_last; ++id) {
      old_to_new[id] = id - old_first + new_first;
    }
    ++paired;
  }
  if (paired == old_roots.size()) return Reuse::kGrow;
  if (paired == new_roots.size()) return Reuse::kShrink;
  return Reuse::kCold;
}

template <typename Source>
void Closure::Replay(const Source& source, const std::vector<int>* old_to_new,
                     const std::vector<char>* skip) {
  const size_t n = source.size();
  // Old step index -> new FactId; only needed when survivors compact.
  std::vector<FactId> remap(skip != nullptr ? n : 0, kNoFact);
  steps_.reserve(n + n / 4);
  fact_of_.reserve(steps_.capacity());
  premise_arena_.reserve(source.arena_size());
  for (size_t i = 0; i < n; ++i) {
    if (skip != nullptr && (*skip)[i] != 0) continue;
    // Translate the fact into this set's id space. Origin nums are
    // occurrence ids too (0 marks observation/equality axioms and maps
    // to itself).
    Fact fact = source.fact(i);
    if (old_to_new != nullptr) {
      const std::vector<int>& map = *old_to_new;
      fact.a = map[fact.a];
      if (fact.kind == Fact::Kind::kPiStar || fact.kind == Fact::Kind::kEq) {
        fact.b = map[fact.b];
      }
      fact.origin.num = map[fact.origin.num];
    }
    // Rule labels have static storage (or are interned for the process
    // lifetime) — nothing borrows from the source after construction.
    FactId id = static_cast<FactId>(steps_.size());
    std::span<const FactId> premises = source.premises(i);
    DerivationStep step;
    step.fact = fact;
    step.rule = source.rule(i);
    step.premise_offset = static_cast<uint32_t>(premise_arena_.size());
    step.premise_count = static_cast<uint32_t>(premises.size());
    if (skip == nullptr) {
      // Every source step becomes exactly one replayed step, so premise
      // FactIds keep their values.
      premise_arena_.insert(premise_arena_.end(), premises.begin(),
                            premises.end());
    } else {
      remap[i] = id;
      for (FactId premise : premises) premise_arena_.push_back(remap[premise]);
    }
    steps_.push_back(step);
    fact_of_.push_back(fact);
    ApplyReplayedFact(fact, id);
  }
  replayed_facts_ = steps_.size();
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
    case Fact::Kind::kPiStar:
      ApplyPiStar(fact, id);
      break;
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
// Retraction (DRed, delete-and-rederive): the over-delete half of a
// shrink. See the Closure constructor contract in the header and
// DESIGN.md §12 for the invariants.

void Closure::OverDelete(const Closure& base,
                         const std::vector<int>& old_to_new,
                         std::vector<char>& deleted,
                         std::vector<int>& touched) {
  // Over-delete the cone of base steps that mention a revoked
  // occurrence — as subject, pair partner, or origin provenance — or
  // depend on a marked step. Premise edges alone do not close the cone:
  // the class-level rules (join of partial inferabilities, EvalRule's
  // ti/pi atoms and the component walks behind its pi* atoms) match
  // their premises through the equivalence tables, and the eq facts
  // that merged the mediating class are NOT in the recorded premise
  // list. Classes whose mediation may have changed
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
  // the log can split a class and thereby indict a class-mediated
  // firing earlier in it, so the sweep repeats to a fixpoint,
  // recomputing connectivity from the thinner edge set each round
  // (splits are monotone: edges only disappear). Over-deletion is
  // always safe: the rederive pass restores whatever has surviving
  // support.
  deleted.assign(base.steps_.size(), 0);
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
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()),
                touched.end());
}

void Closure::Rederive(const std::vector<int>& touched) {
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
}

void Closure::RederiveNode(int id) {
  // The per-occurrence producers, in ProcessTa/ProcessPa order:
  // implication first, then the let and read/write rules.
  if (ta_[id] != kNoFact && pa_[id] == kNoFact) {
    AddPa(id, "ta => pa", {ta_[id]});
  }
  const Node* node = set_->node(id);
  if (node->kind == NodeKind::kVarRef && node->binder_id >= 0) {
    const unfold::Binder& binder = set_->binder(node->binder_id);
    if (binder.bound_expr != nullptr) {
      int bound = binder.bound_expr->id;
      if (ta_[bound] != kNoFact) {
        AddTa(id, "let: bound expression to variable", {ta_[bound]});
      } else if (pa_[bound] != kNoFact) {
        AddPa(id, "let: bound expression to variable", {pa_[bound]});
      }
    }
  }
  if (node->is_let()) {
    int body = node->body()->id;
    if (ta_[body] != kNoFact) {
      AddTa(id, "let: body to let value", {ta_[body]});
    } else if (pa_[body] != kNoFact) {
      AddPa(id, "let: body to let value", {pa_[body]});
    }
  }
  if (node->kind != NodeKind::kReadAttr) return;
  const Node* object = node->object_child();
  if (pa_[object->id] != kNoFact) {
    if (options_.read_object_total_alterability) {
      AddTa(id, "alterability via read object", {pa_[object->id]});
    } else {
      AddPa(id, "alterability via read object", {pa_[object->id]});
    }
  }
  if (!options_.write_read_equality) return;
  for (const Node* write : set_->writes(node->attribute)) {
    if (pa_[write->object_child()->id] != kNoFact) {
      AddTa(id, "alterability via write object",
            {pa_[write->object_child()->id]});
    }
    if (Find(write->object_child()->id) != Find(object->id)) continue;
    if (Find(write->value_child()->id) != Find(id)) {
      std::vector<FactId> premises;
      ExplainEquality(write->object_child()->id, object->id, premises);
      std::sort(premises.begin(), premises.end());
      premises.erase(std::unique(premises.begin(), premises.end()),
                     premises.end());
      AddEq(write->value_child()->id, id,
            "=: written value equals read", premises);
    }
    FactId alter = ta_[write->value_child()->id] != kNoFact
                       ? ta_[write->value_child()->id]
                       : pa_[write->value_child()->id];
    if (alter != kNoFact) {
      FireWriteValueRules(write, alter, node);
    }
  }
  for (const Node* other : obj_reads_[Find(object->id)]) {
    if (other == node || other->attribute != node->attribute) continue;
    if (Find(other->id) == Find(id)) continue;
    std::vector<FactId> premises;
    ExplainEquality(object->id, other->object_child()->id, premises);
    AddEq(id, other->id, "=: reads of equal objects", premises);
  }
}

void Closure::RederiveClass(int rep) {
  // The per-class producers: the ti/pi implication and join, and the
  // equal-pair pi* axiom. Origin sets are copied before iterating — the
  // Add* calls below may insert into the very sets being walked.
  {
    OriginSet tis = ti_[rep];
    for (const OriginSet::Entry& entry : tis.entries()) {
      if (pi_[rep].Lookup(entry.origin) == kNoFact) {
        AddPi(fact_of_[entry.fact].a, entry.origin, "ti => pi", {entry.fact});
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
          AddTi(fact_of_[entry.fact].a, entry.origin,
                "join of partial inferabilities",
                {entry.fact, other.fact});
          break;
        }
      }
    }
  }
  if (members_[rep].size() >= 2 && pair_of_equals_[rep] == kNoFact) {
    int m0 = members_[rep][0];
    int m1 = members_[rep][1];
    std::vector<FactId> premises;
    ExplainEquality(m0, m1, premises);
    AddPiStar(m0, m1, {0, '+'}, "=: pair of equals", premises);
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

void Closure::ExplainEquality(int id1, int id2, std::vector<FactId>& out) {
  if (id1 == id2) return;
  // BFS through the proof forest (paths are unique). The scratch state
  // is epoch-stamped: no per-call clearing, no allocation.
  ++bfs_epoch_;
  bfs_queue_.clear();
  bfs_queue_.push_back(id1);
  bfs_seen_epoch_[id1] = bfs_epoch_;
  bfs_prev_node_[id1] = id1;
  for (size_t head = 0; head < bfs_queue_.size(); ++head) {
    int current = bfs_queue_[head];
    if (current == id2) break;
    for (const auto& [next, edge] : eq_edges_[current]) {
      if (bfs_seen_epoch_[next] == bfs_epoch_) continue;
      bfs_seen_epoch_[next] = bfs_epoch_;
      bfs_prev_node_[next] = current;
      bfs_prev_edge_[next] = edge;
      bfs_queue_.push_back(next);
    }
  }
  assert(bfs_seen_epoch_[id2] == bfs_epoch_ &&
         "equality explanation requested for non-equal occurrences");
  for (int at = id2; at != id1; at = bfs_prev_node_[at]) {
    out.push_back(bfs_prev_edge_[at]);
  }
}

// ---------------------------------------------------------------------
// pi* components (see the header comment).

int Closure::CompFind(int id) {
  ++find_calls_;
  int root = id;
  while (comp_parent_[root] != root) root = comp_parent_[root];
  while (comp_parent_[id] != root) {
    int next = comp_parent_[id];
    comp_parent_[id] = root;
    id = next;
  }
  return root;
}

int Closure::UnionComponents(int ca, int cb) {
  int root = ca;
  int absorbed = cb;
  if (comp_rank_[root] < comp_rank_[absorbed]) std::swap(root, absorbed);
  if (comp_rank_[root] == comp_rank_[absorbed]) ++comp_rank_[root];
  comp_parent_[absorbed] = root;
  FoldOrigins(comp_origins_[root], comp_origins_[absorbed]);
  FoldTriggers(pistar_triggers_[root], pistar_triggers_[absorbed]);
  return root;
}

void Closure::FoldTriggers(std::vector<RuleRef>& target,
                           std::vector<RuleRef>& source) {
  // Sorted-unique union, so the list keeps the evaluation order of the
  // per-call scan it replaces.
  for (const RuleRef& ref : source) {
    auto it = std::lower_bound(target.begin(), target.end(), ref);
    if (it == target.end() || !(*it == ref)) target.insert(it, ref);
  }
  source.clear();
  source.shrink_to_fit();
}

void Closure::FoldOrigins(OriginSet& target, OriginSet& source) {
  for (const OriginSet::Entry& entry : source.entries()) {
    target.Insert(entry.origin, entry.fact);  // a no-op once full
  }
  source.Clear();
}

void Closure::ApplyPiStar(const Fact& fact, FactId id) {
  int ca = CompFind(fact.a);
  int cb = CompFind(fact.b);
  if (ca != cb) {
    pistar_edges_[fact.a].emplace_back(fact.b, id);
    pistar_edges_[fact.b].emplace_back(fact.a, id);
    ca = UnionComponents(ca, cb);
  }
  comp_origins_[ca].Insert(fact.origin, id);
  // Origin num 0 is "=: pair of equals", whose endpoints are equal.
  if (fact.origin.num == 0) {
    FactId& slot = pair_of_equals_[Find(fact.a)];
    if (slot == kNoFact) slot = id;
  }
}

bool Closure::PiStarIsNew(int id1, int id2, Origin origin) {
  int ca = CompFind(id1);
  if (ca != CompFind(id2)) return true;
  const OriginSet& origins = comp_origins_[ca];
  if (origins.Lookup(origin) == kNoFact && !origins.full()) return true;
  return origin.num == 0 && pair_of_equals_[Find(id1)] == kNoFact;
}

bool Closure::PiStarPremise(int i, int j, const Origin& guard,
                            std::vector<FactId>& out) {
  int ri = Find(i);
  int rj = Find(j);
  if (ri == rj) {
    // Equal operands: the class's "=: pair of equals" fact, origin
    // (0,+), which no guard excludes.
    if (pair_of_equals_[ri] == kNoFact) return false;
    out.push_back(pair_of_equals_[ri]);
    return true;
  }
  int ci = CompFind(ri);
  if (ci != CompFind(rj)) return false;
  Origin origin;
  FactId carrier;
  if (!PickOrigin(comp_origins_[ci], &guard, origin, carrier)) return false;
  // Swap and join carry the carrier's origin along any walk through
  // the component, so the walk i -> carrier -> j justifies the premise.
  size_t begin = out.size();
  const Fact& via = fact_of_[carrier];
  ExplainComponentPath(ri, via.a, out);
  out.push_back(carrier);
  ExplainComponentPath(via.b, rj, out);
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end());
  out.erase(std::unique(out.begin() + static_cast<std::ptrdiff_t>(begin),
                        out.end()),
            out.end());
  return true;
}

void Closure::ExplainComponentPath(int id1, int id2, std::vector<FactId>& out) {
  int from = Find(id1);
  int to = Find(id2);
  if (from == to) return;
  // BFS over classes: a class's neighbours are the classes at the far
  // end of its members' forest edges. Same epoch-stamped scratch as
  // ExplainEquality.
  ++bfs_epoch_;
  bfs_queue_.clear();
  bfs_queue_.push_back(from);
  bfs_seen_epoch_[from] = bfs_epoch_;
  for (size_t head = 0; head < bfs_queue_.size(); ++head) {
    int current = bfs_queue_[head];
    if (current == to) break;
    for (int member : members_[current]) {
      for (const auto& [next_id, edge] : pistar_edges_[member]) {
        int next = Find(next_id);
        if (bfs_seen_epoch_[next] == bfs_epoch_) continue;
        bfs_seen_epoch_[next] = bfs_epoch_;
        bfs_prev_node_[next] = current;
        bfs_prev_edge_[next] = edge;
        bfs_queue_.push_back(next);
      }
    }
  }
  assert(bfs_seen_epoch_[to] == bfs_epoch_ &&
         "component walk requested across two components");
  for (int at = to; at != from; at = bfs_prev_node_[at]) {
    out.push_back(bfs_prev_edge_[at]);
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

FactId Closure::Defer(const Fact& fact, std::string_view rule,
                      Premises premises) {
  Candidate candidate;
  candidate.fact = fact;
  candidate.rule = rule;
  candidate.premise_offset =
      static_cast<uint32_t>(pending_->premise_pool.size());
  candidate.premise_count = static_cast<uint32_t>(premises.size());
  pending_->premise_pool.insert(pending_->premise_pool.end(),
                                premises.begin(), premises.end());
  pending_->candidates.push_back(candidate);
  return kNoFact;
}

// Each Add* dedups against the tables — frozen in phase A, live
// otherwise — and then either defers the conclusion (phase A) or logs it
// and updates the tables. A candidate that passes the frozen dedup can
// still lose at the barrier — an earlier candidate this round claimed
// the slot — where the live re-check drops it.

FactId Closure::AddTa(int id, std::string_view rule, Premises premises) {
  CountAttempt(Fact::Kind::kTa);
  if (ta_[id] != kNoFact) return ta_[id];
  Fact fact{Fact::Kind::kTa, id, 0, {}};
  if (pending_ != nullptr) return Defer(fact, rule, premises);
  ta_[id] = Log(fact, rule, premises);
  return ta_[id];
}

FactId Closure::AddPa(int id, std::string_view rule, Premises premises) {
  CountAttempt(Fact::Kind::kPa);
  if (pa_[id] != kNoFact) return pa_[id];
  Fact fact{Fact::Kind::kPa, id, 0, {}};
  if (pending_ != nullptr) return Defer(fact, rule, premises);
  pa_[id] = Log(fact, rule, premises);
  return pa_[id];
}

FactId Closure::AddTi(int id, Origin origin, std::string_view rule,
                      Premises premises) {
  CountAttempt(Fact::Kind::kTi);
  OriginSet& origins = ti_[Find(id)];
  FactId existing = origins.Lookup(origin);
  if (existing != kNoFact) return existing;
  if (origins.full()) return kNoFact;
  Fact fact{Fact::Kind::kTi, id, 0, origin};
  if (pending_ != nullptr) return Defer(fact, rule, premises);
  FactId fact_id = Log(fact, rule, premises);
  origins.Insert(origin, fact_id);
  return fact_id;
}

FactId Closure::AddPi(int id, Origin origin, std::string_view rule,
                      Premises premises) {
  CountAttempt(Fact::Kind::kPi);
  OriginSet& origins = pi_[Find(id)];
  FactId existing = origins.Lookup(origin);
  if (existing != kNoFact) return existing;
  if (origins.full()) return kNoFact;
  Fact fact{Fact::Kind::kPi, id, 0, origin};
  if (pending_ != nullptr) return Defer(fact, rule, premises);
  FactId fact_id = Log(fact, rule, premises);
  origins.Insert(origin, fact_id);
  return fact_id;
}

FactId Closure::AddPiStar(int id1, int id2, Origin origin,
                          std::string_view rule, Premises premises) {
  CountAttempt(Fact::Kind::kPiStar);
  // Only base facts reach here; the component tables answer for every
  // swap and join consequence (see the header comment).
  if (!PiStarIsNew(id1, id2, origin)) return kNoFact;
  Fact fact{Fact::Kind::kPiStar, id1, id2, origin};
  if (pending_ != nullptr) return Defer(fact, rule, premises);
  FactId id = Log(fact, rule, premises);
  ApplyPiStar(fact, id);
  return id;
}

FactId Closure::AddEq(int id1, int id2, std::string_view rule,
                      Premises premises) {
  CountAttempt(Fact::Kind::kEq);
  if (Find(id1) == Find(id2)) return kNoFact;  // known
  Fact fact{Fact::Kind::kEq, id1, id2, {}};
  if (pending_ != nullptr) return Defer(fact, rule, premises);
  return Log(fact, rule, premises);
}

// ---------------------------------------------------------------------
// Seeding: the axioms of Table 2.

void Closure::Seed() {
  const unfold::UnfoldedSet& set = *set_;

  // Axioms for outer-most argument variables: ta[x] and ti[x, l, +].
  for (const unfold::Binder& binder : set.binders()) {
    if (!binder.is_root_arg) continue;
    for (const Node* occurrence : binder.occurrences) {
      AddTa(occurrence->id, "axiom: outer-most argument (alterable)", {});
      AddTi(occurrence->id, {occurrence->id, '+'},
            "axiom: outer-most argument (known)", {});
    }
  }

  // Axioms for constants and observed results.
  for (int i = 1; i <= set.node_count(); ++i) {
    const Node* node = set.node(i);
    if (node->kind == NodeKind::kConstant) {
      AddTi(node->id, {node->id, '+'}, "axiom: constant", {});
    }
  }
  for (const unfold::Root& root : set.roots()) {
    AddTi(root.body->id, {0, '-'}, "axiom: observed result", {});
  }

  // Equality axioms: occurrences of the same variable, let bindings, and
  // let bodies.
  for (const unfold::Binder& binder : set.binders()) {
    for (size_t i = 1; i < binder.occurrences.size(); ++i) {
      AddEq(binder.occurrences[0]->id,
            binder.occurrences[i]->id, "axiom for =: same variable", {});
    }
    if (binder.bound_expr != nullptr && !binder.occurrences.empty()) {
      AddEq(binder.occurrences[0]->id,
            binder.bound_expr->id, "axiom for =: let binding", {});
    }
  }
  for (int i = 1; i <= set.node_count(); ++i) {
    const Node* node = set.node(i);
    if (node->is_let()) {
      AddEq(node->body()->id, node->id, "axiom for =: let value", {});
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
        AddEq(it->second->id, occurrence->id,
              "axiom for =: outer-most arguments of the same type", {});
      }
    }
  }

  // Premise-free basic-function rules (e.g. "abs: non-negative image")
  // and rules whose premises are all axioms.
  if (options_.basic_function_rules) {
    for (int i = 1; i <= set.node_count(); ++i) {
      if (set.node(i)->kind == NodeKind::kBasicCall) {
        ReevalBasicCall(set.node(i));
      }
    }
  }
}

void Closure::Run() {
  obs::Tracer* tracer = obs_ != nullptr ? &obs_->tracer : nullptr;
  obs::Histogram* round_facts =
      obs_ != nullptr ? obs_->metrics.histogram("closure.fixpoint.round_facts")
                      : nullptr;
  Pending pending;  // reused across rounds, freed with the stack frame
  {
    obs::ScopedSpan fixpoint_span(tracer, "closure.fixpoint");
    // Semi-naive delta rounds: one round processes exactly the facts
    // derived before it began (the delta); conclusions land in
    // next_frontier_ and form the next round. Each round runs the three
    // steps documented on Run() in the header — frozen evaluation, the
    // barrier, then the equality merges.
    while (!next_frontier_.empty()) {
      ++rounds_;
      obs::ScopedSpan round_span(tracer, "closure.fixpoint.round");
      size_t facts_before = steps_.size();
      frontier_.clear();
      std::swap(frontier_, next_frontier_);
      RunRound(pending);
      if (round_facts != nullptr) {
        round_facts->Record(steps_.size() - facts_before);
      }
    }
  }
  // Fully compress both union-finds: afterwards every parent link
  // points at its root, Rep() is a single read, and the structure is
  // safe for concurrent readers (no mutation behind const).
  obs::ScopedSpan compress_span(tracer, "closure.compress");
  for (int i = 1; i < static_cast<int>(uf_parent_.size()); ++i) {
    uf_parent_[i] = Find(i);
    comp_parent_[i] = CompFind(i);
  }
}

void Closure::RunRound(Pending& pending) {
  // Phase A: evaluate every non-eq frontier fact against the frozen
  // round-start tables, deferring its conclusions into `pending`.
  pending.candidates.clear();
  pending.premise_pool.clear();
  pending_ = &pending;
  for (FactId fact_id : frontier_) {
    const Fact fact = fact_of_[fact_id];
    switch (fact.kind) {
      case Fact::Kind::kTa:
        ProcessTa(fact, fact_id);
        break;
      case Fact::Kind::kPa:
        ProcessPa(fact, fact_id);
        break;
      case Fact::Kind::kEq:
        break;  // merged in phase B
      case Fact::Kind::kTi:
        ProcessTi(fact, fact_id);
        break;
      case Fact::Kind::kPi:
        ProcessPi(fact, fact_id);
        break;
      case Fact::Kind::kPiStar:
        ProcessPiStar(fact, fact_id);
        break;
    }
  }
  pending_ = nullptr;
  // Barrier: apply the candidates in evaluation order through the live
  // Add* path.
  for (const Candidate& candidate : pending.candidates) {
    Premises premises{pending.premise_pool.data() + candidate.premise_offset,
                      candidate.premise_count};
    const Fact& fact = candidate.fact;
    switch (fact.kind) {
      case Fact::Kind::kTa:
        AddTa(fact.a, candidate.rule, premises);
        break;
      case Fact::Kind::kPa:
        AddPa(fact.a, candidate.rule, premises);
        break;
      case Fact::Kind::kTi:
        AddTi(fact.a, fact.origin, candidate.rule, premises);
        break;
      case Fact::Kind::kPi:
        AddPi(fact.a, fact.origin, candidate.rule, premises);
        break;
      case Fact::Kind::kPiStar:
        AddPiStar(fact.a, fact.b, fact.origin, candidate.rule, premises);
        break;
      case Fact::Kind::kEq:
        AddEq(fact.a, fact.b, candidate.rule, premises);
        break;
    }
  }
  // Phase B: equality merges in frontier order. They run after the
  // barrier so the cross-class re-fires see everything this round
  // derived.
  for (FactId fact_id : frontier_) {
    Fact fact = fact_of_[fact_id];  // copy: fact_of_ grows as rules fire
    if (fact.kind == Fact::Kind::kEq) ProcessEqMerge(fact, fact_id);
  }
}

// ---------------------------------------------------------------------
// Alterability rules (Table 2, rule 1).

void Closure::FireWriteValueRules(const Node* write, FactId alter_fact,
                                  const Node* read) {
  // Premises: the alterability of the written value plus the equality of
  // the write and read objects.
  const Node* value = write->value_child();
  std::vector<FactId> premises = {alter_fact};
  ExplainEquality(write->object_child()->id, read->object_child()->id,
                  premises);
  if (ta_[value->id] != kNoFact) {
    AddTa(read->id, "alterability based on = (written value, total)", premises);
  } else {
    AddPa(read->id, "alterability based on = (written value)", premises);
  }
}

void Closure::FireLetAndWriteRulesForAlterability(int id, bool total,
                                                  FactId fact_id) {
  const Node* node = set_->node(id);
  const Node* parent = node->parent;

  // Written value -> reads of the same attribute on a provably equal
  // object.
  if (options_.write_read_equality && parent != nullptr &&
      parent->kind == NodeKind::kWriteAttr && node->child_index == 1) {
    for (const Node* read : set_->reads(parent->attribute)) {
      if (Find(parent->object_child()->id) ==
          Find(read->object_child()->id)) {
        FireWriteValueRules(parent, fact_id, read);
      }
    }
  }

  // Let rules: a bound expression's alterability reaches every
  // occurrence of the variable; a body's reaches the let value.
  int binder_id = binder_of_bound_expr_[id];
  if (binder_id >= 0) {
    for (const Node* occurrence : set_->binder(binder_id).occurrences) {
      if (total) {
        AddTa(occurrence->id, "let: bound expression to variable", {fact_id});
      } else {
        AddPa(occurrence->id, "let: bound expression to variable", {fact_id});
      }
    }
  }
  if (parent != nullptr && parent->is_let() && parent->body() == node) {
    if (total) {
      AddTa(parent->id, "let: body to let value", {fact_id});
    } else {
      AddPa(parent->id, "let: body to let value", {fact_id});
    }
  }
}

void Closure::ProcessTa(const Fact& fact, FactId fact_id) {
  AddPa(fact.a, "ta => pa", {fact_id});
  FireLetAndWriteRulesForAlterability(fact.a, /*total=*/true, fact_id);
  // The index lists the (parent-call) rules with a ta or pa premise on
  // this occurrence. In the frozen phase the "ta => pa" conclusion above
  // is only a deferred candidate, so a rule needing the pa premise fails
  // here and fires next round, when the pa fact drains from the
  // frontier and re-runs these triggers itself.
  if (options_.basic_function_rules) {
    EvalTriggered(AlterTriggers(fact.a));
  }
}

void Closure::ProcessPa(const Fact& fact, FactId fact_id) {
  const Node* node = set_->node(fact.a);
  const Node* parent = node->parent;

  if (parent != nullptr && node->child_index == 0) {
    if (parent->kind == NodeKind::kReadAttr) {
      // Altering which object is read alters the read result (see
      // ClosureOptions::read_object_total_alterability for the
      // conclusion's strength).
      if (options_.read_object_total_alterability) {
        AddTa(parent->id, "alterability via read object", {fact_id});
      } else {
        AddPa(parent->id, "alterability via read object", {fact_id});
      }
    }
    if (parent->kind == NodeKind::kWriteAttr &&
        options_.write_read_equality) {
      // Altering which object is written lets the user hit the object of
      // any read of the attribute.
      for (const Node* read : set_->reads(parent->attribute)) {
        AddTa(read->id, "alterability via write object", {fact_id});
      }
    }
  }

  FireLetAndWriteRulesForAlterability(fact.a, /*total=*/false, fact_id);

  if (options_.basic_function_rules) {
    EvalTriggered(AlterTriggers(fact.a));
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
          ExplainEquality(write->object_child()->id,
                          read->object_child()->id, premises);
          // The merge is in progress: the chain runs through this fact.
          premises.push_back(fact_id);
          std::sort(premises.begin(), premises.end());
          premises.erase(std::unique(premises.begin(), premises.end()),
                         premises.end());
          AddEq(write->value_child()->id, read->id,
                "=: written value equals read", premises);
          // Alterability of the written value transfers to the read.
          FactId alter = ta_[write->value_child()->id] != kNoFact
                             ? ta_[write->value_child()->id]
                             : pa_[write->value_child()->id];
          if (alter != kNoFact) {
            FireWriteValueRules(write, alter, read);
          }
        }
      }
      for (const Node* read1 : obj_reads_[obj_side]) {
        for (const Node* read2 : obj_reads_[read_side]) {
          if (read1 == read2 || read1->attribute != read2->attribute) {
            continue;
          }
          AddEq(read1->id, read2->id, "=: reads of equal objects", {fact_id});
        }
      }
    };
    cross(ra, rb);
    cross(rb, ra);
  }

  // Uniting two components that both hold origins can satisfy pi*
  // premises away from the merged class: operands across the two sides,
  // or one side's operands under the other side's origins. Premises on
  // the merged class itself re-fire with its touching calls below.
  int ca = CompFind(ra);
  int cb = CompFind(rb);
  bool refire_pistar = ca != cb && !comp_origins_[ca].empty() &&
                       !comp_origins_[cb].empty();

  int root = MergeClasses(ra, rb);

  // =[e1,e2] -> pi*[(e1,e2), 0, +]: equal expressions form a known pair.
  AddPiStar(fact.a, fact.b, {0, '+'}, "=: pair of equals", {fact_id});

  // The merged class may have gained inferability origins (pi-join) and
  // new rule opportunities.
  if (options_.pi_join_to_ti) {
    const OriginSet& joined = pi_[root];
    if (joined.size() >= 2) {
      std::span<const OriginSet::Entry> entries = joined.entries();
      AddTi(fact.a, entries[0].origin,
            "join of partial inferabilities",
            {entries[0].fact, entries[1].fact});
    }
  }
  if (options_.basic_function_rules) {
    ReevalCallsTouching(root);
    if (refire_pistar) {
      // Copy: live conclusions may unite components and so rewrite
      // the very list being walked.
      std::vector<RuleRef> triggers = pistar_triggers_[CompFind(root)];
      EvalTriggered(triggers);
    }
  }
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
  // Trigger lists follow their class.
  FoldTriggers(infer_triggers_[root], infer_triggers_[absorbed]);
  // Merge inferability origin sets ("=: inferability propagation" is
  // materialized by class-level storage).
  FoldOrigins(ti_[root], ti_[absorbed]);
  FoldOrigins(pi_[root], pi_[absorbed]);

  if (pair_of_equals_[root] == kNoFact) {
    pair_of_equals_[root] = pair_of_equals_[absorbed];
  }
  pair_of_equals_[absorbed] = kNoFact;
  // A class lies inside one pi* component.
  int ca = CompFind(root);
  int cb = CompFind(absorbed);
  if (ca != cb) UnionComponents(ca, cb);
  return root;
}

// ---------------------------------------------------------------------
// Inferability rules (Table 2, rule 2 + basic-function rules).

void Closure::ProcessTi(const Fact& fact, FactId fact_id) {
  AddPi(fact.a, fact.origin, "ti => pi", {fact_id});
  // infer_triggers_ covers rules with a ti *or* pi premise in the class.
  // The "ti => pi" conclusion above is only deferred, so a rule whose pi
  // premise it would satisfy fails here and fires when that pi fact
  // drains from the frontier next round.
  if (options_.basic_function_rules) {
    EvalTriggered(infer_triggers_[Find(fact.a)]);
  }
}

void Closure::ProcessPi(const Fact& fact, FactId fact_id) {
  if (options_.pi_join_to_ti) {
    const OriginSet& origins = pi_[Find(fact.a)];
    if (origins.size() >= 2) {
      // pi[e,n1,d1], pi[e,n2,d2] -> ti[e,n1,d1] for (n1,d1) != (n2,d2):
      // two differently-obtained candidate sets may intersect to a
      // single value (pessimistic assumption 2 of §4.1).
      for (const OriginSet::Entry& entry : origins.entries()) {
        if (entry.origin == fact.origin) continue;
        AddTi(fact.a, fact.origin, "join of partial inferabilities",
              {fact_id, entry.fact});
        AddTi(fact.a, entry.origin, "join of partial inferabilities",
              {entry.fact, fact_id});
        break;
      }
    }
  }
  if (options_.basic_function_rules) {
    EvalTriggered(infer_triggers_[Find(fact.a)]);
  }
}

void Closure::ProcessPiStar(const Fact& fact, FactId /*fact_id*/) {
  // Every logged pi* fact changed its component: it united two, brought
  // a new origin, or gave a class its pair-of-equals fact. The swap and
  // join consequences are the component tables themselves, so what is
  // left is re-firing the rules whose pi* premises read the component.
  if (options_.basic_function_rules) {
    EvalTriggered(pistar_triggers_[CompFind(fact.a)]);
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

Origin Closure::ConclusionOrigin(const Node* call, const BasicRule& rule) {
  const RuleAtom& conclusion = rule.conclusion;
  if (conclusion.pred != RuleAtom::Pred::kPiStar) {
    return {call->id, conclusion.pos == kResultPos ? '+' : '-'};
  }
  // A pi* conclusion is '-' when any premise involves the result.
  for (const RuleAtom& atom : rule.premises) {
    if (atom.pos == kResultPos ||
        (atom.pred == RuleAtom::Pred::kPiStar && atom.pos2 == kResultPos)) {
      return {call->id, '-'};
    }
  }
  return {call->id, '+'};
}

bool Closure::ConclusionKnown(const Node* call, const BasicRule& rule) {
  const RuleAtom& conclusion = rule.conclusion;
  auto id_at = [&](int pos) {
    return pos == kResultPos ? call->id : call->children[pos]->id;
  };
  int id = id_at(conclusion.pos);
  switch (conclusion.pred) {
    case RuleAtom::Pred::kTa:
      return ta_[id] != kNoFact;
    case RuleAtom::Pred::kPa:
      return pa_[id] != kNoFact;
    case RuleAtom::Pred::kTi:
    case RuleAtom::Pred::kPi: {
      const OriginSet& origins = (conclusion.pred == RuleAtom::Pred::kTi
                                      ? ti_
                                      : pi_)[Find(id)];
      return origins.full() ||
             origins.Lookup(ConclusionOrigin(call, rule)) != kNoFact;
    }
    case RuleAtom::Pred::kPiStar:
      return !PiStarIsNew(id, id_at(conclusion.pos2),
                          ConclusionOrigin(call, rule));
  }
  return false;
}

void Closure::EvalRule(const Node* call, const BasicRule& rule) {
  ++rule_evals_;
  // The Add* tail would drop a known conclusion anyway; stopping here
  // saves the premise reads and their =-chain and component walks.
  if (ConclusionKnown(call, rule)) return;
  auto id_at = [&](int pos) {
    return pos == kResultPos ? call->id : call->children[pos]->id;
  };
  // The feedback guards of §4.1: an argument premise must not originate
  // from this call's result rules, a result-involving premise must not
  // originate from this call's argument rules.
  Origin arg_guard = {call->id, '-'};
  Origin result_guard = {call->id, '+'};

  {
    std::vector<FactId>& premises = scratch_premises_;
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
                                                : pi_)[Find(id)];
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
              ExplainEquality(stored_at, id, premises);
            }
          }
          break;
        }
        case RuleAtom::Pred::kPiStar: {
          bool involves_result =
              atom.pos == kResultPos || atom.pos2 == kResultPos;
          const Origin& excluded =
              involves_result ? result_guard : arg_guard;
          if (!PiStarPremise(id, id_at(atom.pos2), excluded, premises)) {
            ok = false;
          }
          break;
        }
      }
      if (!ok) break;
    }
    if (!ok) return;

    const RuleAtom& conclusion = rule.conclusion;
    Origin origin = ConclusionOrigin(call, rule);
    switch (conclusion.pred) {
      case RuleAtom::Pred::kTa:
        AddTa(id_at(conclusion.pos), rule.label, premises);
        break;
      case RuleAtom::Pred::kPa:
        AddPa(id_at(conclusion.pos), rule.label, premises);
        break;
      case RuleAtom::Pred::kTi:
        AddTi(id_at(conclusion.pos), origin, rule.label, premises);
        break;
      case RuleAtom::Pred::kPi:
        AddPi(id_at(conclusion.pos), origin, rule.label, premises);
        break;
      case RuleAtom::Pred::kPiStar:
        AddPiStar(id_at(conclusion.pos), id_at(conclusion.pos2), origin,
                  rule.label, premises);
        break;
    }
  }
}

void Closure::ReevalBasicCall(const Node* call) {
  ++basic_reevals_;
  for (const BasicRule& rule : RulesFor(*call->basic)) {
    EvalRule(call, rule);
  }
}

void Closure::EvalTriggered(std::span<const RuleRef> triggers) {
  // Phase A defers every conclusion, so nothing merges and the trigger
  // tables cannot move under us; a caller outside phase A passes a copy
  // (a live AddPiStar may unite components).
  for (const RuleRef& ref : triggers) EvalRule(ref.call, *ref.rule);
}

void Closure::ReevalCallsTouching(int rep) {
  // Copy: merges triggered by derived equalities may mutate the table.
  std::vector<const Node*> calls = touching_calls_[rep];
  for (const Node* call : calls) ReevalBasicCall(call);
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
  uint64_t add_attempts = 0;
  for (size_t k = 0; k < add_attempts_.size(); ++k) {
    add_attempts += add_attempts_[k];
    metrics
        .counter(common::StrCat("closure.add.attempts.kind.",
                                KindName(static_cast<Fact::Kind>(k))))
        ->Increment(add_attempts_[k]);
  }
  metrics.counter("closure.add.attempts")->Increment(add_attempts);
  metrics.counter("closure.basic_call.reevals")->Increment(basic_reevals_);
  metrics.counter("closure.eq.merges")->Increment(eq_merges_);
  metrics.counter("closure.delta.rule_evals")->Increment(rule_evals_);
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
  // pi* component partition: each class leader's component leader (the
  // smallest occurrence of the component), in class-leader order.
  std::vector<int> comp_leader(n + 1, 0);
  for (int id = 1; id <= n; ++id) {
    int comp = comp_parent_[id];  // compressed by Run()
    if (comp_leader[comp] == 0) comp_leader[comp] = id;
  }
  for (int id = 1; id <= n; ++id) {
    if (leader[Rep(id)] != id) continue;
    out += common::StrCat(comp_leader[comp_parent_[id]], ",");
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
