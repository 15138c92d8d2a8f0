#include "snapshot/snapshot.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/strings.h"
#include "lang/printer.h"
#include "obs/trace.h"
#include "snapshot/binio.h"
#include "unfold/unfolded.h"

namespace oodbsec::snapshot {

namespace {

std::string OptionBits(const core::ClosureOptions& o) {
  std::string bits;
  bits.push_back(o.same_type_argument_equality ? '1' : '0');
  bits.push_back(o.pi_join_to_ti ? '1' : '0');
  bits.push_back(o.basic_function_rules ? '1' : '0');
  bits.push_back(o.write_read_equality ? '1' : '0');
  bits.push_back(o.read_object_total_alterability ? '1' : '0');
  return bits;
}

common::Status Invalid(std::string_view label, std::string_view what) {
  return common::FailedPreconditionError(
      common::StrCat("snapshot ", label, ": ", what));
}

// Copies `label` into a never-freed process-wide pool and returns a
// view with effectively static storage, so a decoded closure satisfies
// Closure's "rule strings outlive everything" contract and can itself
// serve as a warm-start base. Thread-safe. The pool is bounded by the
// set of distinct rule labels in the system (a few dozen), so "never
// freed" is a contract, not a leak.
std::string_view InternRuleLabel(std::string_view label) {
  static std::mutex mu;
  // unordered_set gives stable element references across rehash.
  static auto* pool = new std::unordered_set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  return *pool->emplace(label).first;
}

}  // namespace

uint64_t SchemaFingerprint(const schema::Schema& schema,
                           const core::ClosureOptions& options) {
  uint64_t hash = Fnv1a64("oodbsec-snapshot-schema");
  // Every field is hashed with a separator so concatenations can't
  // collide ("ab"+"c" vs "a"+"bc").
  auto mix = [&hash](std::string_view piece) {
    hash = Fnv1a64(piece, hash);
    hash = Fnv1a64(std::string_view("\x1f", 1), hash);
  };
  for (const auto& cls : schema.classes()) {
    mix("class");
    mix(cls->name());
    for (const schema::AttributeDef& attr : cls->attributes()) {
      mix(attr.name);
      mix(attr.type->ToString());
    }
  }
  for (const auto& fn : schema.functions()) {
    mix("function");
    mix(fn->SignatureToString());
    mix(lang::PrintExpr(fn->body()));
  }
  for (const schema::FunctionDecl* constraint : schema.constraints()) {
    mix("constraint");
    mix(constraint->name());
  }
  mix("options");
  mix(OptionBits(options));
  return hash;
}

uint64_t SnapshotKeyHash(const core::ClosureOptions& options,
                         const std::vector<std::string>& roots) {
  uint64_t hash = Fnv1a64(OptionBits(options));
  for (const std::string& root : roots) {
    hash = Fnv1a64("|", hash);
    hash = Fnv1a64(root, hash);
  }
  return hash;
}

std::string BuildEntryBytes(const schema::Schema& schema,
                            const core::ClosureOptions& options,
                            const core::CachedAnalysis& entry) {
  if (entry.closure == nullptr || entry.set == nullptr) return {};
  const std::vector<core::DerivationStep>& steps = entry.closure->steps();

  ByteWriter payload;
  payload.PutU32(static_cast<uint32_t>(entry.roots.size()));
  for (const std::string& root : entry.roots) payload.PutString(root);
  payload.PutString(entry.closure->FactSetDigest());

  // Rule labels dedup into a table; steps reference it by index.
  std::vector<std::string_view> rules;
  std::unordered_map<std::string_view, uint32_t> rule_index;
  for (const core::DerivationStep& step : steps) {
    if (rule_index.emplace(step.rule, rules.size()).second) {
      rules.push_back(step.rule);
    }
  }
  payload.PutU32(static_cast<uint32_t>(rules.size()));
  for (std::string_view rule : rules) payload.PutString(rule);

  uint32_t arena_size = 0;
  for (const core::DerivationStep& step : steps) {
    arena_size += step.premise_count;
  }
  payload.PutU32(static_cast<uint32_t>(steps.size()));
  payload.PutU32(arena_size);
  // The steps offset is payload-relative and the payload starts 32
  // bytes into the record, so padding the offset to 8 here 8-aligns the
  // step array wherever the record itself is 8-aligned (pack records,
  // frame buffers) — the precondition for aliasing it as PackedStep[].
  uint64_t prefix = payload.buffer().size() + sizeof(uint32_t);
  uint32_t steps_rel = static_cast<uint32_t>(AlignUp8(prefix));
  payload.PutU32(steps_rel);
  payload.PutFixedString(std::string(steps_rel - prefix, '\0'));
  for (const core::DerivationStep& step : steps) {
    core::PackedStep packed;
    packed.a = step.fact.a;
    packed.b = step.fact.b;
    packed.origin_num = step.fact.origin.num;
    packed.rule = rule_index.at(step.rule);
    packed.premise_offset = step.premise_offset;
    packed.premise_count = step.premise_count;
    packed.kind = static_cast<uint8_t>(step.fact.kind);
    packed.origin_dir = static_cast<uint8_t>(step.fact.origin.dir);
    payload.PutFixedString(std::string_view(
        reinterpret_cast<const char*>(&packed), sizeof packed));
  }
  // The arena is append-only in step order (Closure::Log), so stored
  // premise offsets stay valid over the concatenation.
  for (size_t i = 0; i < steps.size(); ++i) {
    for (core::FactId premise :
         entry.closure->premises(static_cast<core::FactId>(i))) {
      payload.PutI32(premise);
    }
  }

  ByteWriter file;
  file.PutFixedString(kMagic);
  file.PutU32(kFormatVersion);
  file.PutU32(kByteOrderMark);
  file.PutU64(SchemaFingerprint(schema, options));
  file.PutU64(Fnv1a64(payload.buffer()));
  return file.Release() + payload.buffer();
}

common::Result<std::shared_ptr<const core::CachedAnalysis>> DecodeEntry(
    const schema::Schema& schema, const core::ClosureOptions& options,
    std::string_view label, std::string_view bytes, obs::Observability* obs) {
  obs::ScopedSpan span(obs != nullptr ? &obs->tracer : nullptr,
                       "snapshot.load");
  if (bytes.size() < kEntryHeaderSize ||
      bytes.substr(0, kMagic.size()) != kMagic) {
    return Invalid(label, "not a snapshot record");
  }
  uint32_t version = LoadU32(bytes.data() + 8);
  uint32_t marker = LoadU32(bytes.data() + 12);
  if (marker == Bswap32(kByteOrderMark)) {
    // Replay aliases raw structs out of the record, so a foreign-endian
    // record cannot be replayed in place.
    return Invalid(label, "foreign-endian record (records are machine-local)");
  }
  if (marker != kByteOrderMark) {
    return Invalid(label, "corrupt byte-order marker");
  }
  if (version != kFormatVersion) {
    return Invalid(label, common::StrCat("record version ", version,
                                         " (expected ", kFormatVersion, ")"));
  }
  uint64_t fingerprint = LoadU64(bytes.data() + 16);
  uint64_t checksum = LoadU64(bytes.data() + 24);
  if (fingerprint != SchemaFingerprint(schema, options)) {
    return Invalid(label, "schema fingerprint mismatch (stale generation)");
  }
  std::string_view payload = bytes.substr(kEntryHeaderSize);
  if (Fnv1a64(payload) != checksum) {
    return Invalid(label, "payload checksum mismatch (torn or corrupt)");
  }

  ByteReader reader(payload);
  std::vector<std::string> roots;
  uint32_t root_count = reader.GetU32();
  for (uint32_t i = 0; i < root_count && reader.ok(); ++i) {
    roots.push_back(reader.GetString());
  }
  std::string digest = reader.GetString();
  std::vector<std::string_view> rules;
  uint32_t rule_count = reader.GetU32();
  for (uint32_t i = 0; i < rule_count && reader.ok(); ++i) {
    rules.push_back(InternRuleLabel(reader.GetString()));
  }
  uint32_t step_count = reader.GetU32();
  uint32_t arena_count = reader.GetU32();
  uint32_t steps_rel = reader.GetU32();
  if (!reader.ok()) return Invalid(label, "truncated record prefix");

  uint64_t prefix_end = payload.size() - reader.remaining();
  uint64_t steps_end =
      steps_rel + uint64_t{step_count} * sizeof(core::PackedStep);
  uint64_t payload_end = steps_end + uint64_t{arena_count} * sizeof(int32_t);
  if (steps_rel < prefix_end || payload_end != payload.size()) {
    return Invalid(label, "record geometry out of bounds");
  }
  const char* steps_ptr = payload.data() + steps_rel;
  if (reinterpret_cast<uintptr_t>(steps_ptr) % alignof(core::PackedStep) !=
      0) {
    return Invalid(label, "misaligned step array");
  }
  core::ReplayView view;
  view.steps = {reinterpret_cast<const core::PackedStep*>(steps_ptr),
                step_count};
  view.premise_arena = {
      reinterpret_cast<const core::FactId*>(payload.data() + steps_end),
      arena_count};
  view.rules = rules;

  // Re-unfold the stored root list; a root the schema no longer
  // resolves means the record is stale.
  auto set_or = unfold::UnfoldedSet::Build(schema, roots, obs);
  if (!set_or.ok()) {
    return Invalid(label, common::StrCat("stale root list: ",
                                         set_or.status().message()));
  }
  std::unique_ptr<unfold::UnfoldedSet> set = std::move(set_or).value();

  // Structural validation: after this the ReplayView constructor's
  // precondition holds and in-place replay is safe on hostile bytes.
  const int n = set->node_count();
  auto valid_id = [n](int id) { return id >= 1 && id <= n; };
  for (uint32_t i = 0; i < step_count; ++i) {
    const core::PackedStep& step = view.steps[i];
    if (step.kind > static_cast<uint8_t>(core::Fact::Kind::kEq)) {
      return Invalid(label, "invalid fact kind");
    }
    auto kind = static_cast<core::Fact::Kind>(step.kind);
    if (!valid_id(step.a)) {
      return Invalid(label, "occurrence id out of range");
    }
    if ((kind == core::Fact::Kind::kPiStar ||
         kind == core::Fact::Kind::kEq) &&
        !valid_id(step.b)) {
      return Invalid(label, "occurrence id out of range");
    }
    if (step.origin_num < 0 || step.origin_num > n) {
      return Invalid(label, "origin occurrence out of range");
    }
    if (step.origin_dir != '+' && step.origin_dir != '-') {
      return Invalid(label, "invalid origin direction");
    }
    if (step.rule >= rules.size()) {
      return Invalid(label, "rule index out of range");
    }
    uint64_t premise_end =
        uint64_t{step.premise_offset} + step.premise_count;
    if (premise_end > arena_count) {
      return Invalid(label, "premise range out of arena bounds");
    }
    for (uint32_t p = 0; p < step.premise_count; ++p) {
      core::FactId premise = view.premise_arena[step.premise_offset + p];
      if (premise < 0 || static_cast<uint32_t>(premise) >= i) {
        return Invalid(label, "premise references a later step");
      }
    }
  }

  auto entry = std::make_shared<core::CachedAnalysis>();
  entry->roots = roots;
  entry->sorted_roots = std::move(roots);
  std::sort(entry->sorted_roots.begin(), entry->sorted_roots.end());
  entry->sorted_roots.erase(
      std::unique(entry->sorted_roots.begin(), entry->sorted_roots.end()),
      entry->sorted_roots.end());
  entry->closure = std::make_unique<core::Closure>(*set, options, obs, view);
  entry->set = std::move(set);

  // Defence in depth: the replayed closure must reproduce the saved
  // fact set bit for bit. A mismatch means the inference rules changed
  // without a format-version bump — refuse rather than serve stale
  // capabilities.
  if (entry->closure->FactSetDigest() != digest) {
    return Invalid(label, "fact-set digest mismatch (stale derivation log)");
  }
  if (obs != nullptr) {
    obs->metrics.counter("snapshot.load.facts")
        ->Increment(entry->closure->fact_count());
  }
  return std::shared_ptr<const core::CachedAnalysis>(std::move(entry));
}

}  // namespace oodbsec::snapshot
