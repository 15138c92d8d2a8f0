// The static inference system F(F) (paper §4.1, Table 2) and its closure
// computation.
//
// Terms range over the numbered occurrences of an UnfoldedSet:
//
//   ta[e]              the user may totally alter e
//   pa[e]              the user may partially alter e
//   ti[e, num, dir]    the user may totally infer e
//   pi[e, num, dir]    the user may partially infer e
//   pi*[(e1,e2), num, dir]  the user may infer a proper subset the pair
//                            (e1,e2) must lie in
//   =[e1, e2]          the user can recognize e1 and e2 as equal
//
// (num, dir) records how an inferability was obtained: num is the
// occurrence that produced it ('+' = from the arguments of that
// occurrence, '-' = from its result; num 0 marks axioms of observation /
// equality). The provenance serves two purposes (paper §4.1): two
// *different* partial inferabilities on the same expression join to a
// total one, and a basic-function rule must not feed an inferability
// back to the occurrence that produced it.
//
// Implementation notes:
//  * Equality is an equivalence; it is maintained as a union-find with a
//    proof forest, so every use of an equality premise can be explained
//    by base =-facts (Explain()).
//  * ti/pi live on equality classes: the Table-2 rules
//    "=[e1,e2], ti[e1] -> ti[e2]" etc. are materialized by class lookup
//    instead of fact copies. Alterability (ta/pa) does NOT propagate
//    through generic equality (only through the specific read/write and
//    let rules), so ta/pa are per-occurrence flags.
//  * ti/pi origin sets are capped at kOriginCap per class. Every rule
//    guard excludes one origin and the pi-join needs two distinct ones,
//    so a capped set decides every premise exactly as the uncapped one
//    would; only which origin a premise cites can differ.
//  * pi* is never materialized pairwise. Its base facts are the ones
//    "=: pair of equals" and the basic-function rules conclude; Table
//    2's "pi*: swap" and "pi*: join" then close every connected group
//    of classes into a complete graph in which every ordered pair of
//    distinct classes carries every origin of every base fact in the
//    group (join keeps its first premise's origin and never concludes
//    (X, X)). The closure stores exactly that relation: a union-find of
//    pi* *components* over equality classes, whose edges are the
//    accepted base facts (and which every equality merge also unites),
//    an origin set per component (capped at kOriginCap: two distinct
//    origins decide any single-origin guard), and a spanning forest of
//    the base facts that united two components. A base fact is logged
//    only when it unites two components, brings its component a new
//    origin, or is the first "=: pair of equals" fact of its class, so
//    swap and join conclusions are never derived, logged, snapshotted
//    or replayed.
//  * A rule's pi* premise on operands (i, j) holds when i and j are
//    equal (the class's "=: pair of equals" fact, origin (0,+), passes
//    every guard), or when their classes lie in one component that
//    holds an origin other than the rule's guard. Its justification is
//    the base facts of a walk through the spanning forest from i's
//    class to j's that crosses the base fact carrying the chosen origin
//    — the way a ti/pi premise stored on another class member splices
//    its =-chain. Every class the walk mediates through is an endpoint
//    class of a spliced fact, so DRed's suspect-class rule covers it.
//  * The hot tables are dense: per-occurrence state lives in flat
//    vectors indexed by occurrence id, origin sets are small inline
//    sorted arrays (OriginSet), and derivation premises are stored in
//    one shared arena instead of one heap vector per step. The closure
//    is dominated by dedup lookups, so the miss path allocates nothing,
//    and a rule evaluation whose conclusion is already known stops
//    before reading its premises (and their =-chain and forest walks).
//
// Thread-safety contract: a build runs entirely on the constructing
// thread and starts no thread of its own. Run() ends with a full
// path-compression pass over both union-finds, after which a Closure is
// deeply immutable. Every const member function (the
// Has*/TaFact*/AreEqual queries, ExplainFact*, FactToString) is a pure
// read and safe to call from many threads concurrently — this is what
// lets the service layer share one Closure among parallel requirement
// checks.
#ifndef OODBSEC_CORE_CLOSURE_H_
#define OODBSEC_CORE_CLOSURE_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/basic_rules.h"
#include "obs/obs.h"
#include "unfold/unfolded.h"

namespace oodbsec::core {

struct Origin {
  int num = 0;
  char dir = '+';

  friend auto operator<=>(const Origin&, const Origin&) = default;
  std::string ToString() const;
};

using FactId = int;
inline constexpr FactId kNoFact = -1;

// Maximum distinct (num, dir) origins kept per class (ti/pi) and per pi*
// component. Every rule guard excludes at most one origin and the
// pi-join needs two, so a capped set decides every premise as the
// uncapped one would (see the header comment).
inline constexpr size_t kOriginCap = 4;

struct Fact {
  enum class Kind { kTa, kPa, kTi, kPi, kPiStar, kEq };
  static constexpr size_t kKindCount = 6;

  Kind kind = Kind::kTa;
  int a = 0;       // occurrence id
  int b = 0;       // second occurrence (kPiStar, kEq)
  Origin origin;   // kTi / kPi / kPiStar
};

// A small Origin -> FactId map with at most kOriginCap entries, kept
// sorted by Origin — the dense replacement for std::map in the ti/pi
// and pi*-component tables, with identical iteration order.
class OriginSet {
 public:
  struct Entry {
    Origin origin;
    FactId fact = kNoFact;
  };

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= kOriginCap; }

  // kNoFact when absent.
  FactId Lookup(Origin origin) const {
    for (size_t i = 0; i < size_; ++i) {
      if (entries_[i].origin == origin) return entries_[i].fact;
    }
    return kNoFact;
  }

  // Sorted insert-if-absent; no-op when the origin is present or the set
  // is full (mirrors the capped std::map::emplace it replaces).
  void Insert(Origin origin, FactId fact) {
    size_t at = 0;
    while (at < size_ && entries_[at].origin < origin) ++at;
    if (at < size_ && entries_[at].origin == origin) return;
    if (full()) return;
    for (size_t i = size_; i > at; --i) entries_[i] = entries_[i - 1];
    entries_[at] = {origin, fact};
    ++size_;
  }

  void Clear() { size_ = 0; }

  // Entries in increasing Origin order.
  std::span<const Entry> entries() const { return {entries_.data(), size_}; }

 private:
  std::array<Entry, kOriginCap> entries_;
  uint8_t size_ = 0;
};

// Derivation log entry. Premises live in the closure's shared arena;
// resolve them with Closure::premises(fact_id). `rule` references either
// a string literal or a BasicRule label (both have static storage).
struct DerivationStep {
  Fact fact;
  std::string_view rule;       // e.g. "axiom: constant", ">=: probe …"
  uint32_t premise_offset = 0;
  uint32_t premise_count = 0;
};

// Premise lists are passed as borrowed spans; the initializer-list
// overloads on the Add* functions let call sites pass brace lists
// without allocating (std::span can't bind one until C++26).
using Premises = std::span<const FactId>;

// One derivation step in the packed snapshot layout (src/snapshot
// packed_store): a fixed-width, trivially-copyable image of
// DerivationStep with the rule string replaced by an index into a
// per-record label table. Arrays of these are written verbatim into
// packed segments and read back by aliasing the mapped bytes — no
// per-step decode — so the layout is part of the snapshot record
// format: change it and bump the format version.
struct PackedStep {
  int32_t a = 0;
  int32_t b = 0;
  int32_t origin_num = 0;
  uint32_t rule = 0;            // index into the record's label table
  uint32_t premise_offset = 0;  // into the record's premise arena
  uint32_t premise_count = 0;
  uint8_t kind = 0;             // Fact::Kind as u8
  uint8_t origin_dir = '+';
  uint8_t pad[2] = {0, 0};
};
static_assert(sizeof(PackedStep) == 28);
static_assert(std::is_trivially_copyable_v<PackedStep>);

// A complete derivation log lifted out of some earlier closure and
// borrowed straight from a snapshot record (src/snapshot): steps and
// premise arena alias the record bytes (a mapped pack segment or a
// frame buffer), `rules` is the record's label table resolved to
// interned (process-lifetime) string_views. Ids are in the id space of
// the unfold the log was computed over; replaying it requires an
// UnfoldedSet built over the *same* root list (unfolding is
// deterministic, so the id spaces coincide). Replaying copies
// everything into the closure's own tables, so the view — and the
// bytes behind it — only needs to outlive the constructor call. The
// caller must pre-validate ids and premise references (the snapshot
// decoder does).
struct ReplayView {
  std::span<const PackedStep> steps;
  std::span<const FactId> premise_arena;
  std::span<const std::string_view> rules;
};

// Ablation switches for experiment A1 (see DESIGN.md §7). All on by
// default; each "off" weakens the analyzer and must lose a documented
// detection.
struct ClosureOptions {
  // The pessimistic axiom "=[x1,x2] for outer-most argument variables of
  // the same type".
  bool same_type_argument_equality = true;
  // The rule pi[e,n1,d1], pi[e,n2,d2] -> ti[e,n1,d1].
  bool pi_join_to_ti = true;
  // The per-basic-function rule sets (basic_rules.h).
  bool basic_function_rules = true;
  // The =-based rules for reads/writes (equal objects make reads equal,
  // a written value equals subsequent reads, written-value alterability
  // transfers to reads).
  bool write_read_equality = true;
  // Strength of the read-object rule "pa[e1] -> ?a[r_att(e1)]" (altering
  // *which* object is read alters the read result). Under the paper's
  // exists-D semantics (Definition 2 quantifies the database state
  // existentially) the conclusion is total alterability; the default is
  // the moderate partial reading, which preserves the paper's intended
  // contrast that updateSalary becomes *totally* controllable only when
  // w_budget is also granted (§3.1).
  bool read_object_total_alterability = false;

  // Ignored: builds run on the calling thread; e2ebench still sets it.
  int closure_threads = 1;

  // Warm-start seeding requires identical *semantics* on both sides;
  // the ignored closure_threads is excluded.
  friend bool operator==(const ClosureOptions& x, const ClosureOptions& y) {
    return x.same_type_argument_equality == y.same_type_argument_equality &&
           x.pi_join_to_ti == y.pi_join_to_ti &&
           x.basic_function_rules == y.basic_function_rules &&
           x.write_read_equality == y.write_read_equality &&
           x.read_object_total_alterability ==
               y.read_object_total_alterability;
  }
};

class Closure {
 public:
  // Computes the full closure over `set`. The set must outlive the
  // closure. `obs` (optional) is used during construction only: the
  // build runs under a "closure" span with seed / fixpoint-round /
  // compress children, and fact counts per rule family, union-find
  // finds, and dedup-lookup counts land in the metrics registry. `obs`
  // is not part of the closure semantics (cache keys ignore it).
  //
  // Reuse: `base` (optional) is a completed closure over another root
  // list. The build direction follows from the two root lists, matched
  // by function name (k-th duplicate to k-th duplicate) and translated
  // through the per-root contiguous-range invariant documented on
  // unfold::Root:
  //
  //   * grow — the base's roots are a sub-multiset of `set`'s (equal
  //     lists included): the base's derivation log is replayed into
  //     this closure's tables, and the fixpoint derives only the delta
  //     contributed by the additional roots;
  //   * shrink — the base's roots strictly contain `set`'s: DRed
  //     (delete-and-rederive). The base's log is scanned once to
  //     over-delete the cone of steps that mention a removed occurrence
  //     (as subject, pair partner, origin, or transitively through a
  //     premise), the surviving steps are replayed, and the deleted
  //     facts with alternate support are re-derived: Seed() re-evaluates
  //     every axiom and basic-function rule, and a targeted pass
  //     re-fires the structural rules at exactly the occurrences and
  //     equality classes the cone touched;
  //   * cold — anything else (different options, lists that are
  //     neither, mismatched unfold shapes): the base is ignored.
  //
  // warm_started() and retracted() report the direction taken. The
  // base is read during construction only — it may be evicted or
  // destroyed afterwards. Grown, shrunk and cold closures over the same
  // set derive the same fact *set* (compare with FactSetDigest()), but
  // generally different derivation *logs* — fact_count() and
  // ExplainFact() output depend on the route.
  explicit Closure(const unfold::UnfoldedSet& set, ClosureOptions options = {},
                   obs::Observability* obs = nullptr,
                   const Closure* base = nullptr);

  // Snapshot warm start: replays `view` — the complete derivation log
  // of a finished closure over the same root list (see ReplayView) —
  // and then runs Seed() + the fixpoint, which merely dedup against the
  // replayed tables when the log is complete. The result is
  // byte-identical to the closure the log was saved from (same steps,
  // same premises, same derivation text) at replay cost instead of
  // fixpoint cost. Steps and premises are consumed directly from the
  // caller's bytes. The caller must pre-validate the log (ids in range,
  // premises acyclic) — the snapshot decoder does; out-of-range ids here
  // are undefined behaviour. Counts as warm_started().
  Closure(const unfold::UnfoldedSet& set, ClosureOptions options,
          obs::Observability* obs, const ReplayView& view);

  Closure(const Closure&) = delete;
  Closure& operator=(const Closure&) = delete;

  const unfold::UnfoldedSet& set() const { return *set_; }

  // True when a base or snapshot log was replayed (grow, shrink, or
  // snapshot replay).
  bool warm_started() const { return warm_started_; }
  // Facts replayed from the base (prefix of steps()); 0 for cold runs.
  size_t replayed_fact_count() const { return replayed_facts_; }
  // True when the build shrank its base by DRed.
  bool retracted() const { return retracted_; }
  // Over-deleted base facts (the DRed cone); 0 unless retracted().
  size_t retracted_fact_count() const { return retracted_facts_; }
  // Facts appended after the survivor replay: re-seeded axioms,
  // alternate-support re-derivations, and their consequences.
  size_t rederived_fact_count() const {
    return steps_.size() - replayed_facts_;
  }

  // Canonical, order-insensitive summary of the derived fact set:
  // per-occurrence predicate bits, the equality partition (each
  // occurrence's class leader, the smallest member), and the pi*
  // component partition (each class leader's component leader, the
  // smallest occurrence of the component). The pi* relation is a
  // function of those two partitions: (X, Y) holds for distinct classes
  // of one component, and (X, X) for every class of two or more
  // members. Derivation routes, origin provenance, and log order are
  // deliberately excluded — two closures over the same unfolded program
  // agree semantically iff their digests are equal. This is the
  // equivalence the warm-start tests assert.
  std::string FactSetDigest() const;

  // Capability queries by occurrence id. pi/pa include ti/ta (the
  // implication rules are materialized). All queries are safe for
  // concurrent readers (see the thread-safety contract above).
  bool HasTa(int id) const { return ta_[id] != kNoFact; }
  bool HasPa(int id) const { return pa_[id] != kNoFact; }
  bool HasTi(int id) const;
  bool HasPi(int id) const;
  bool AreEqual(int id1, int id2) const;

  // Supporting facts for derivation printing; kNoFact when absent.
  FactId TaFact(int id) const { return ta_[id]; }
  FactId PaFact(int id) const { return pa_[id]; }
  FactId TiFact(int id) const;
  FactId PiFact(int id) const;

  size_t fact_count() const { return steps_.size(); }
  const std::vector<DerivationStep>& steps() const { return steps_; }
  // The premise FactIds of one derivation step.
  std::span<const FactId> premises(FactId fact) const {
    const DerivationStep& step = steps_[fact];
    return {premise_arena_.data() + step.premise_offset, step.premise_count};
  }

  // Renders one fact, e.g. "ti[5:r_salary(broker), 6, -]".
  std::string FactToString(const Fact& fact) const;
  // Renders the full derivation supporting `fact` (premises first,
  // Figure-1 style), one step per line.
  std::string ExplainFact(FactId fact) const;
  std::string ExplainFacts(const std::vector<FactId>& facts) const;

 private:
  // --- fixpoint rounds (see Run) ---
  // One conclusion phase A deferred: the fact, its rule label, and a
  // premise slice in the round's premise pool. Every premise FactId
  // references a fact from an earlier round — the frozen tables never
  // hand out ids minted in the current one — so the barrier replays a
  // candidate through the ordinary Add*/Log() path unchanged.
  struct Candidate {
    Fact fact;
    std::string_view rule;
    uint32_t premise_offset = 0;
    uint32_t premise_count = 0;
  };
  // Phase A's output: candidates in evaluation order plus their premise
  // pool. It lives on Run()'s stack, so a finished closure keeps none
  // of it.
  struct Pending {
    std::vector<Candidate> candidates;
    std::vector<FactId> premise_pool;
  };

  // --- union-find with proof forest ---
  // Find with path compression (which never changes a root, so phase A
  // may call it against the frozen tables).
  int Find(int id);
  // Post-construction representative lookup: Run() ends with a full
  // compression pass, so every parent link points at the root and this
  // is a single read — safe for concurrent readers (no path-compression
  // writes behind const, unlike the classic mutable-parent find).
  int Rep(int id) const { return uf_parent_[id]; }
  // Appends the base =-fact ids proving id1 == id2 to `out`, using the
  // BFS scratch.
  void ExplainEquality(int id1, int id2, std::vector<FactId>& out);

  // --- pi* components (see the header comment) ---
  // Find over comp_parent_, mirroring Find.
  int CompFind(int id);
  // Unites two components (union by rank), folding the absorbed one's
  // origin set and trigger list into the survivor; returns its root.
  int UnionComponents(int ca, int cb);
  // The table half of an accepted base pi* fact: the component union
  // plus its forest edge, the component's origin, and the class's
  // pair-of-equals slot. Shared by AddPiStar and Replay.
  void ApplyPiStar(const Fact& fact, FactId id);
  // AddPiStar's dedup: true when the base fact (id1, id2, origin) would
  // unite two components, bring its component a new origin, or fill
  // its class's pair-of-equals slot.
  bool PiStarIsNew(int id1, int id2, Origin origin);
  // Decides a rule's pi* premise on (i, j) under `guard`; when it holds,
  // appends its justification (see the header comment) to `out`.
  bool PiStarPremise(int i, int j, const Origin& guard,
                     std::vector<FactId>& out);
  // Appends the forest facts of a class-level walk from id1's class to
  // id2's (both in one component), using the BFS scratch.
  void ExplainComponentPath(int id1, int id2, std::vector<FactId>& out);

  // --- fact derivation (dedup + log + worklist) ---
  // The rule string must have static (or closure-outliving) storage.
  // Outside phase A the returned FactId is the logged (or deduplicated)
  // fact. In phase A (pending_ set) a new conclusion is deferred into
  // the round's Pending buffer and kNoFact is returned — no caller in
  // phase A consumes Add* return values (the invariant that makes the
  // candidates premise-complete; see Run()).
  FactId AddTa(int id, std::string_view rule, Premises premises);
  FactId AddPa(int id, std::string_view rule, Premises premises);
  FactId AddTi(int id, Origin origin, std::string_view rule,
               Premises premises);
  FactId AddPi(int id, Origin origin, std::string_view rule,
               Premises premises);
  FactId AddPiStar(int id1, int id2, Origin origin, std::string_view rule,
                   Premises premises);
  FactId AddEq(int id1, int id2, std::string_view rule, Premises premises);
  FactId Log(Fact fact, std::string_view rule, Premises premises);
  // The deferral tail shared by the Add* functions in phase A.
  FactId Defer(const Fact& fact, std::string_view rule, Premises premises);

  // Brace-list forwarders (a braced argument prefers an initializer_list
  // parameter, whose backing array lives for the whole call).
  FactId AddTa(int id, std::string_view rule,
               std::initializer_list<FactId> premises) {
    return AddTa(id, rule, Premises{premises.begin(), premises.size()});
  }
  FactId AddPa(int id, std::string_view rule,
               std::initializer_list<FactId> premises) {
    return AddPa(id, rule, Premises{premises.begin(), premises.size()});
  }
  FactId AddTi(int id, Origin origin, std::string_view rule,
               std::initializer_list<FactId> premises) {
    return AddTi(id, origin, rule,
                 Premises{premises.begin(), premises.size()});
  }
  FactId AddPi(int id, Origin origin, std::string_view rule,
               std::initializer_list<FactId> premises) {
    return AddPi(id, origin, rule,
                 Premises{premises.begin(), premises.size()});
  }
  FactId AddPiStar(int id1, int id2, Origin origin, std::string_view rule,
                   std::initializer_list<FactId> premises) {
    return AddPiStar(id1, id2, origin, rule,
                     Premises{premises.begin(), premises.size()});
  }
  FactId AddEq(int id1, int id2, std::string_view rule,
               std::initializer_list<FactId> premises) {
    return AddEq(id1, id2, rule, Premises{premises.begin(), premises.size()});
  }

  // --- premise index ---
  // One candidate rule instantiation: a basic call plus one of its
  // rules. `rule` points into the static per-function catalog, so refs
  // from the same call compare in catalog order by address.
  struct RuleRef {
    const unfold::Node* call = nullptr;
    const BasicRule* rule = nullptr;

    friend bool operator==(const RuleRef& x, const RuleRef& y) {
      return x.call == y.call && x.rule == y.rule;
    }
    friend bool operator<(const RuleRef& x, const RuleRef& y) {
      if (x.call->id != y.call->id) return x.call->id < y.call->id;
      return x.rule < y.rule;
    }
  };
  // Fills the trigger tables: every premise atom of every rule
  // instantiation is indexed under the occurrence (alterability), class
  // (inferability) or pi* component (pi*) it reads, so a newly derived
  // fact visits only the rules it can complete.
  void BuildPremiseIndex();
  // The per-root table folds a union shares: move `source`'s entries
  // into `target` and empty it (triggers stay sorted-unique, origins
  // stay capped).
  static void FoldTriggers(std::vector<RuleRef>& target,
                           std::vector<RuleRef>& source);
  static void FoldOrigins(OriginSet& target, OriginSet& source);

  // --- the build: match, over-delete, replay, rederive ---
  enum class Reuse { kCold, kGrow, kShrink };
  // The one build sequence behind both constructors: tables, the DRed
  // over-delete when shrinking `base`, one replay of `base` or `view`
  // (at most one is non-null), then Seed(), Rederive(), Run().
  void Build(const Closure* base, const ReplayView* view);
  // Table/index and scratch allocation.
  void InitTables();
  // Pairs the base's roots with set_'s by function name (k-th duplicate
  // to k-th duplicate) and maps every id inside a paired base root to
  // its id in set_ by shifting the root's contiguous range; ids of an
  // unpaired base root map to 0. The direction is kGrow when every base
  // root found a partner, kShrink when every root of set_ did (and the
  // base has more), and kCold otherwise or on an options or shape
  // mismatch.
  Reuse MatchRoots(const Closure& base, std::vector<int>& old_to_new) const;
  // The DRed over-delete: marks in `deleted` the cone of base steps
  // that a shrink by `old_to_new` invalidates, and collects the
  // surviving occurrences the cone touched (sorted unique) for
  // Rederive().
  void OverDelete(const Closure& base, const std::vector<int>& old_to_new,
                  std::vector<char>& deleted, std::vector<int>& touched);
  // The one replay loop. Appends every step of `source` (a live
  // closure's log or a snapshot record's) to this closure's log and
  // applies it to the tables, but never enqueues it — Seed() + Run()
  // then derive only what is missing on top. `old_to_new` (optional)
  // translates occurrence ids; `skip` (optional) drops the marked steps
  // and renumbers the survivors' premises (a survivor's premises all
  // survive — the over-delete cone is premise-closed by construction).
  template <typename Source>
  void Replay(const Source& source, const std::vector<int>* old_to_new,
              const std::vector<char>* skip);
  // Applies one already-logged fact to the tables without enqueueing it
  // (the table half of Replay).
  void ApplyReplayedFact(const Fact& fact, FactId id);
  // Re-fires the structural (non-basic) rules at `touched` (sorted
  // unique): the surviving occurrences a shrink's cone mentioned, whose
  // conclusions may have been over-deleted, or the occurrences a grow
  // added, which the replayed facts never reached. Additions enter the
  // frontier and propagate in Run(), which also restores any conclusion
  // whose alternate support is itself rederived later. An empty list
  // makes it a no-op (cold and snapshot builds). Over-deleted pi* facts
  // need no probe of their own: every one is a base fact, which Seed()
  // or RederiveClass concludes again when its support survives.
  void Rederive(const std::vector<int>& touched);
  void RederiveNode(int id);
  void RederiveClass(int rep);

  // --- rule application ---
  void Seed();
  // Runs the semi-naive fixpoint to completion. Every round has three
  // steps:
  //
  //   Phase A (frozen): every non-eq frontier fact is evaluated, in
  //   frontier order, against the round-*start* tables. The Add* calls
  //   dedup against those tables as usual but defer each new conclusion
  //   into the round's Pending buffer instead of logging it.
  //
  //   Barrier: the candidates are applied in that order through the
  //   ordinary dedup + Log() path (duplicates melt here).
  //
  //   Phase B: the round's =-facts are merged in frontier order, with
  //   the union-find mutation (classes and the pi* components they lie
  //   in) and the cross-class re-fires.
  //
  // Facts derived mid-round become visible one round later (they enter
  // the next frontier). The frozen phase is what fixes the order of the
  // derivation log: a loop that logged each conclusion as it fired
  // would derive the same fact set, but in another order, and the log's
  // order is part of the contract — snapshot records, warm starts and
  // the derivations printed in reports all carry it.
  void Run();
  // One fixpoint round over frontier_ (the steps described on Run),
  // with `pending` as phase A's buffer.
  void RunRound(Pending& pending);
  // Publishes the construction-time counters (and a per-rule-family
  // breakdown of steps_) into obs_->metrics; no-op without obs_.
  void FlushMetrics();
  void ProcessTa(const Fact& fact, FactId fact_id);
  void ProcessPa(const Fact& fact, FactId fact_id);
  // Equality merge; never in phase A (phase B / replay / rederive).
  void ProcessEqMerge(const Fact& fact, FactId fact_id);
  void ProcessTi(const Fact& fact, FactId fact_id);
  void ProcessPi(const Fact& fact, FactId fact_id);
  void ProcessPiStar(const Fact& fact, FactId fact_id);
  void FireLetAndWriteRulesForAlterability(int id, bool total,
                                           FactId fact_id);
  void FireWriteValueRules(const unfold::Node* write, FactId eq_or_alter,
                           const unfold::Node* read);
  // Structural half of an equality merge: union by rank plus the merge
  // of every per-class table (members, reads/writes, touching calls,
  // trigger lists, origin sets, the pair-of-equals slot) and the union
  // of the two classes' pi* components. Shared between ProcessEqMerge
  // and Replay; returns the surviving root.
  int MergeClasses(int ra, int rb);
  void EvalRule(const unfold::Node* call, const BasicRule& rule);
  // The origin EvalRule gives `rule`'s conclusion at `call`.
  static Origin ConclusionOrigin(const unfold::Node* call,
                                 const BasicRule& rule);
  // True when `rule`'s conclusion at `call` would be dropped by its
  // Add* dedup: EvalRule then skips reading the premises.
  bool ConclusionKnown(const unfold::Node* call, const BasicRule& rule);
  // Counts one Add* call (dedup lookup) of `kind`.
  void CountAttempt(Fact::Kind kind) {
    ++add_attempts_[static_cast<size_t>(kind)];
  }
  void EvalTriggered(std::span<const RuleRef> triggers);
  void ReevalBasicCall(const unfold::Node* call);
  void ReevalCallsTouching(int rep);

  // Picks an origin of `origins` different from `excluded` (or any if
  // `excluded` is null); returns false if none.
  static bool PickOrigin(const OriginSet& origins, const Origin* excluded,
                         Origin& origin_out, FactId& fact_out);

  const unfold::UnfoldedSet* set_;
  ClosureOptions options_;
  // Observability (construction only; may be null). The work counters
  // below are plain members, published to the shared registry once, in
  // FlushMetrics().
  obs::Observability* obs_ = nullptr;
  uint64_t find_calls_ = 0;     // union-find lookups during construction
  // Add* calls (dedup lookups), incl. misses, per Fact::Kind.
  std::array<uint64_t, Fact::kKindCount> add_attempts_{};
  uint64_t basic_reevals_ = 0;  // whole-call rule re-evaluations
  uint64_t rule_evals_ = 0;     // single-rule evaluations (incl. indexed)
  uint64_t eq_merges_ = 0;      // equality merges actually performed
  uint64_t rounds_ = 0;         // fixpoint delta rounds

  bool warm_started_ = false;
  size_t replayed_facts_ = 0;
  bool retracted_ = false;
  size_t retracted_facts_ = 0;

  // Union-find over occurrence ids (1-based). No `mutable` escape hatch:
  // path compression happens only during construction, and Run() leaves
  // every parent pointing directly at its root (see Rep()).
  std::vector<int> uf_parent_;
  std::vector<int> uf_rank_;
  // Class members, indexed by representative id; absorbed slots are
  // drained on merge.
  std::vector<std::vector<int>> members_;
  // Proof forest: accepted merge edges only.
  std::vector<std::vector<std::pair<int, FactId>>> eq_edges_;

  std::vector<FactId> ta_;
  std::vector<FactId> pa_;
  // Indexed by class representative id.
  std::vector<OriginSet> ti_;
  std::vector<OriginSet> pi_;
  // pi* components (see the header comment): a union-find over
  // occurrence ids whose every union is a base pi* fact or an equality
  // merge, so each class lies inside one component.
  std::vector<int> comp_parent_;
  std::vector<int> comp_rank_;
  // Indexed by component root: the distinct origins of its base facts,
  // each with the first fact that carried it.
  std::vector<OriginSet> comp_origins_;
  // Spanning forest: the base pi* facts that united two components, as
  // adjacency lists over their endpoint occurrences (the counterpart of
  // eq_edges_).
  std::vector<std::vector<std::pair<int, FactId>>> pistar_edges_;
  // Indexed by class representative: the class's "=: pair of equals"
  // fact, which its intra-class pi* premises cite; kNoFact when none.
  std::vector<FactId> pair_of_equals_;

  // Rep id -> basic calls with an argument or themselves in the class,
  // sorted by occurrence id, unique.
  std::vector<std::vector<const unfold::Node*>> touching_calls_;
  // Premise index (see BuildPremiseIndex). The alterability triggers
  // are keyed by occurrence id (ta/pa are per-occurrence and never
  // merge), so the table is frozen after BuildPremiseIndex and stored
  // CSR-style — one offsets array over one contiguous RuleRef payload —
  // scanned without chasing a per-id vector header.
  // infer_triggers_ / pistar_triggers_ must stay vector-of-vectors:
  // they are keyed by class representative (infer) or pi* component
  // root (pistar) and merged on every union (MergeClasses,
  // UnionComponents), which a flattened layout cannot absorb mid-
  // fixpoint. All lists are sorted by (call id, catalog order), unique
  // — the evaluation order of the full per-call scan they replace.
  std::vector<uint32_t> alter_trigger_offsets_;  // id -> payload range
  std::vector<RuleRef> alter_trigger_refs_;
  std::span<const RuleRef> AlterTriggers(int id) const {
    return {alter_trigger_refs_.data() + alter_trigger_offsets_[id],
            alter_trigger_offsets_[id + 1] - alter_trigger_offsets_[id]};
  }
  std::vector<std::vector<RuleRef>> infer_triggers_;
  std::vector<std::vector<RuleRef>> pistar_triggers_;
  // Rep id -> reads/writes whose *object* child is in the class.
  std::vector<std::vector<const unfold::Node*>> obj_reads_;
  std::vector<std::vector<const unfold::Node*>> obj_writes_;
  // Bound-expression node id -> binder id, -1 when none (let rules).
  std::vector<int> binder_of_bound_expr_;

  std::vector<DerivationStep> steps_;
  // Struct-of-arrays mirror of steps_[i].fact: the fixpoint hot paths
  // (frontier dispatch, EvalRule's stored-at lookup, RederiveClass)
  // only need the fact, and reading it from a dense Fact array instead
  // of the 48-byte DerivationStep keeps the read traffic compact.
  // Appended alongside steps_ in Log() and the replay paths.
  std::vector<Fact> fact_of_;
  std::vector<FactId> premise_arena_;
  // Semi-naive delta frontiers: Log() appends every accepted fact to
  // next_frontier_; Run() swaps it into frontier_ and processes one
  // round. Same FIFO order as the deque worklist this replaces.
  std::vector<FactId> frontier_;
  std::vector<FactId> next_frontier_;

  // Phase A's buffer while a round's phase A runs, null otherwise: the
  // Add* tails defer into it instead of logging.
  Pending* pending_ = nullptr;
  // Construction scratch: EvalRule's premise buffer and the BFS state
  // of ExplainEquality and ExplainComponentPath, whose per-id arrays
  // InitTables sizes. Visitation is epoch-stamped so the BFS state
  // never needs clearing.
  std::vector<FactId> scratch_premises_;
  std::vector<int> bfs_prev_node_;
  std::vector<FactId> bfs_prev_edge_;
  std::vector<int> bfs_queue_;
  std::vector<uint32_t> bfs_seen_epoch_;
  uint32_t bfs_epoch_ = 0;
};

}  // namespace oodbsec::core

#endif  // OODBSEC_CORE_CLOSURE_H_
