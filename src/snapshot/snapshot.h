// Persistent closure snapshots: the record codec under every
// SnapshotStore and the remote-store wire.
//
// The paper's A(R) pipeline is deterministic end to end — unfolding a
// root list depends only on the schema, and the F(F) fixpoint depends
// only on the unfold and the ClosureOptions — so a closure's entire
// identity is (schema, options, root list). That makes the derivation
// log a perfect persistence format: a restarted process rebuilds the
// unfold (cheap), replays the saved log through the warm-start path
// (core::Closure's ReplayView constructor), and lands on a closure
// byte-identical to the one that was saved, without re-running the
// fixpoint. This is what turns a nightly-audit restart from a cold
// population-wide fixpoint into file reads.
//
// One encoding, the format-v3 record, serves every consumer: it is the
// entry inside a pack record (packed_store.h) and the payload of the
// remote store's find/save frames (remote_store.h). Layout (all
// integers host-endian):
//
//   header   "OODBSNAP" | format version u32 | byte-order marker u32
//            | schema fingerprint u64 | payload checksum u64 (FNV-1a)
//   payload  roots (count + strings, unfold order)
//            | fact-set digest (Closure::FactSetDigest of the saved run)
//            | rule-label table (count + strings)
//            | step count u32 | arena count u32 | steps offset u32
//            | zero pad to 8 | core::PackedStep[steps] | premise arena i32[]
//
// The step array and premise arena are laid out for in-place replay:
// DecodeEntry aliases them as core::ReplayView spans, no per-step
// decode. Because replay aliases raw structs, a record is machine-local:
// the marker (a u32 written as 0x01020304) exposes a record written on
// a machine of the opposite endianness, and such a record is refused.
//
// Invalidation is fail-safe, never fail-wrong. A decode refuses (and
// the caller falls back to a cold build) when ANY of these trips:
//   * magic/version mismatch — format evolved;
//   * corrupt byte-order marker, or a foreign-endian record;
//   * schema fingerprint mismatch — any class, attribute, function
//     body, constraint, or closure option changed since the save;
//   * checksum mismatch — torn/corrupted bytes;
//   * geometry — a truncated payload or a step array that does not fit;
//   * structural validation — every id must be a valid occurrence of
//     the re-unfolded root list, every premise must reference an
//     earlier step;
//   * digest mismatch — the replayed closure must reproduce the saved
//     fact set exactly (defence in depth: this catches rule-semantics
//     drift the fingerprint cannot see, e.g. a rewritten closure.cc).
#ifndef OODBSEC_SNAPSHOT_SNAPSHOT_H_
#define OODBSEC_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/closure.h"
#include "core/closure_cache.h"
#include "obs/obs.h"
#include "schema/schema.h"

namespace oodbsec::snapshot {

// Bump on any change to the record layout above.
// v3: the payload laid out for in-place replay (PackedStep array).
inline constexpr uint32_t kFormatVersion = 3;
inline constexpr std::string_view kMagic = "OODBSNAP";
// Record header: magic, version, byte-order marker, fingerprint,
// checksum. Everything after it is the checksummed payload.
inline constexpr uint64_t kEntryHeaderSize = 32;

// Written host-endian after the version; reads back as 0x04030201 on a
// machine of the opposite endianness. The value is asymmetric under
// byte swap on purpose.
inline constexpr uint32_t kByteOrderMark = 0x01020304;

// The capability-signature key a snapshot of `roots` is stored under:
// FNV-1a over (options bits, root list) — the pack's index key.
// Collisions are tolerated: the record stores the root list and the
// store re-checks it against the request.
uint64_t SnapshotKeyHash(const core::ClosureOptions& options,
                         const std::vector<std::string>& roots);

// Order-sensitive FNV-1a fingerprint of everything that determines a
// closure besides the root list: every class (name, attributes, types),
// every function (signature + printed body), the constraint list, and
// the ClosureOptions bits. Two processes over the same workspace text
// compute the same fingerprint; any semantic edit changes it.
uint64_t SchemaFingerprint(const schema::Schema& schema,
                           const core::ClosureOptions& options);

// Serializes `entry` (roots + digest + derivation log, built under
// (schema, options)) into one v3 record. Empty when the entry has no
// closure.
std::string BuildEntryBytes(const schema::Schema& schema,
                            const core::ClosureOptions& options,
                            const core::CachedAnalysis& entry);

// Validates, re-unfolds, and replays one v3 record (the inverse of
// BuildEntryBytes). `label` names the source in diagnostics (a pack
// path, a remote endpoint). Returns kFailedPrecondition for every rung
// of the ladder above, the message saying which; never crashes on
// hostile bytes. `bytes` must start 8-aligned, as pack records and
// frame buffers do, or the step array is refused as misaligned.
// Nothing in the result borrows from `bytes`. `obs` (optional)
// observes the unfold and replay spans plus the "snapshot.load.facts"
// counter.
common::Result<std::shared_ptr<const core::CachedAnalysis>> DecodeEntry(
    const schema::Schema& schema, const core::ClosureOptions& options,
    std::string_view label, std::string_view bytes,
    obs::Observability* obs = nullptr);

}  // namespace oodbsec::snapshot

#endif  // OODBSEC_SNAPSHOT_SNAPSHOT_H_
