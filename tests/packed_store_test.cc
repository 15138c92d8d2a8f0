// Packed snapshot store tests.
//
// The roundtrip suite pins the store contract: a closure saved into the
// pack and found through a freshly opened store (or a fresh *process* —
// this binary re-execs itself as a worker) replays byte-identical via
// the mmap'd segment, and the packed and cold paths derive one
// fact-set digest. The recovery suite tears the segment (truncated
// tail, corrupted index) and requires every record that still
// validates to survive. The retention suite drifts the schema and
// requires one sweep to reclaim 100% of the stale generation's bytes.
// The page-cache and shard suites pin the LRU accounting and the
// restart parity of the sharded audit over one shared pack.
//
// This binary has its own main: `packed_store_test --packed-worker
// <pack>` runs the stockbroker audit against a packed store and prints
// the reports, which is how the cross-process fixture spawns a
// genuinely fresh process image.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/fnv.h"
#include "common/strings.h"
#include "core/analysis_session.h"
#include "core/analyzer.h"
#include "core/closure.h"
#include "core/closure_cache.h"
#include "core/requirement.h"
#include "obs/trace.h"
#include "schema/schema.h"
#include "schema/user.h"
#include "service/analysis_service.h"
#include "service/shard.h"
#include "snapshot/packed_store.h"
#include "snapshot/snapshot.h"
#include "snapshot/snapshot_store.h"
#include "test_util.h"
#include "unfold/unfolded.h"

namespace {

const char* g_argv0 = nullptr;

}  // namespace

namespace oodbsec {
namespace {

using core::CachedAnalysis;
using core::ClosureCache;
using core::ClosureOptions;
using snapshot::SnapshotStore;

std::unique_ptr<schema::Schema> BrokerSchema() {
  schema::SchemaBuilder builder;
  builder.AddClass("Broker", {{"name", "string"},
                              {"salary", "int"},
                              {"budget", "int"},
                              {"profit", "int"}});
  builder.AddFunction("checkBudget", {{"broker", "Broker"}}, "bool",
                      ">=(r_budget(broker), *(10, r_salary(broker)))");
  builder.AddFunction("calcSalary", {{"budget", "int"}, {"profit", "int"}},
                      "int", "budget / 10 + profit / 2");
  builder.AddFunction(
      "updateSalary", {{"broker", "Broker"}}, "null",
      "w_salary(broker, calcSalary(r_budget(broker), r_profit(broker)))");
  auto result = std::move(builder).Build();
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

// The same schema with one extra attribute — a different fingerprint,
// so records saved under BrokerSchema are a stale generation to it.
std::unique_ptr<schema::Schema> DriftedBrokerSchema() {
  schema::SchemaBuilder builder;
  builder.AddClass("Broker", {{"name", "string"},
                              {"salary", "int"},
                              {"budget", "int"},
                              {"profit", "int"},
                              {"bonus", "int"}});
  builder.AddFunction("checkBudget", {{"broker", "Broker"}}, "bool",
                      ">=(r_budget(broker), *(10, r_salary(broker)))");
  builder.AddFunction("calcSalary", {{"budget", "int"}, {"profit", "int"}},
                      "int", "budget / 10 + profit / 2");
  builder.AddFunction(
      "updateSalary", {{"broker", "Broker"}}, "null",
      "w_salary(broker, calcSalary(r_budget(broker), r_profit(broker)))");
  auto result = std::move(builder).Build();
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

using test_util::ScopedTempDir;

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  uint64_t size = std::filesystem::file_size(path, ec);
  EXPECT_FALSE(ec) << path;
  return size;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

uint64_t GetU64At(const std::string& bytes, uint64_t at) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  return v;
}

void PutU64At(std::string& bytes, uint64_t at, uint64_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof v);
}

// Byte-identical derivation logs — the strong form of the replay
// contract (FactSetDigest equality is the weak form).
void ExpectIdenticalLogs(const core::Closure& a, const core::Closure& b) {
  ASSERT_EQ(a.steps().size(), b.steps().size());
  for (size_t i = 0; i < a.steps().size(); ++i) {
    const core::DerivationStep& sa = a.steps()[i];
    const core::DerivationStep& sb = b.steps()[i];
    EXPECT_EQ(sa.fact.kind, sb.fact.kind) << "step " << i;
    EXPECT_EQ(sa.fact.a, sb.fact.a) << "step " << i;
    EXPECT_EQ(sa.fact.b, sb.fact.b) << "step " << i;
    EXPECT_EQ(sa.fact.origin.num, sb.fact.origin.num) << "step " << i;
    EXPECT_EQ(sa.fact.origin.dir, sb.fact.origin.dir) << "step " << i;
    EXPECT_EQ(sa.rule, sb.rule) << "step " << i;
    core::FactId id = static_cast<core::FactId>(i);
    auto pa = a.premises(id);
    auto pb = b.premises(id);
    ASSERT_EQ(pa.size(), pb.size()) << "step " << i;
    for (size_t p = 0; p < pa.size(); ++p) {
      EXPECT_EQ(pa[p], pb[p]) << "step " << i << " premise " << p;
    }
  }
}

const std::vector<std::string> kFullRoots = {"checkBudget", "updateSalary"};
const std::vector<std::string> kSmallRoots = {"checkBudget"};

// Builds the closure for `roots` cold and saves it through `store`.
// Returns the built entry for comparisons.
std::shared_ptr<const CachedAnalysis> BuildAndSave(
    const schema::Schema& schema, const ClosureOptions& options,
    const std::shared_ptr<SnapshotStore>& store,
    const std::vector<std::string>& roots) {
  ClosureCache cache(schema, options, 64, nullptr, store);
  auto built = cache.GetOrBuild(roots);
  EXPECT_TRUE(built.ok()) << built.status();
  if (!built.ok()) return nullptr;
  EXPECT_TRUE(cache.SaveCacheSnapshot(*built.value()).ok());
  return built.value();
}

// The three-role stockbroker population (see examples/fleet_audit).
struct Fleet {
  std::unique_ptr<schema::Schema> schema;
  std::unique_ptr<schema::UserRegistry> users;
  std::vector<core::Requirement> sheet;
};

Fleet MakeFleet(int accounts_per_role = 3) {
  Fleet fleet;
  fleet.schema = BrokerSchema();
  fleet.users = std::make_unique<schema::UserRegistry>(*fleet.schema);
  struct Role {
    const char* name;
    std::vector<const char*> grants;
    const char* requirement;
  };
  const std::vector<Role> roles = {
      {"clerk", {"checkBudget", "w_budget"}, "(%s, r_salary(x) : ti)"},
      {"updater",
       {"updateSalary", "w_budget", "w_profit"},
       "(%s, w_salary(a, v : ta))"},
      {"auditor", {"checkBudget"}, "(%s, r_salary(x) : pi)"},
  };
  for (const Role& role : roles) {
    for (int k = 0; k < accounts_per_role; ++k) {
      std::string account = common::StrCat(role.name, k);
      EXPECT_TRUE(fleet.users->AddUser(account).ok());
      for (const char* grant : role.grants) {
        EXPECT_TRUE(fleet.users->Grant(account, grant).ok());
      }
      char text[128];
      std::snprintf(text, sizeof text, role.requirement, account.c_str());
      auto parsed = core::ParseRequirementString(text);
      EXPECT_TRUE(parsed.ok()) << parsed.status();
      fleet.sheet.push_back(std::move(parsed).value());
    }
  }
  return fleet;
}

class PackedStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(tmp_.ok());
    dir_ = tmp_.path();
    pack_ = common::StrCat(dir_, "/cache.pack");
    schema_ = BrokerSchema();
  }

  std::shared_ptr<SnapshotStore> Open(size_t page_capacity = 64) {
    auto store = snapshot::OpenPackedStore(pack_, page_capacity);
    EXPECT_TRUE(store.ok()) << store.status();
    return store.ok() ? std::move(store).value() : nullptr;
  }

  ScopedTempDir tmp_{"oodbsec_packed_test"};
  std::string dir_;
  std::string pack_;
  std::unique_ptr<schema::Schema> schema_;
  ClosureOptions options_;
};

TEST_F(PackedStoreTest, ByteIdenticalReplayAcrossReopen) {
  std::shared_ptr<const CachedAnalysis> built;
  {
    auto store = Open();
    ASSERT_NE(store, nullptr);
    built = BuildAndSave(*schema_, options_, store, kFullRoots);
    ASSERT_NE(built, nullptr);
  }  // store dropped: the "process" died

  auto reopened = Open();
  ASSERT_NE(reopened, nullptr);
  auto found = reopened->Find(*schema_, options_, kFullRoots);
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_EQ(found.value()->roots, kFullRoots);
  EXPECT_TRUE(found.value()->closure->warm_started());
  EXPECT_EQ(found.value()->closure->FactSetDigest(),
            built->closure->FactSetDigest());
  ExpectIdenticalLogs(*built->closure, *found.value()->closure);

  // An unknown signature is a miss, not an error.
  auto missing = reopened->Find(*schema_, options_, kSmallRoots);
  EXPECT_EQ(missing.status().code(), common::StatusCode::kNotFound);

  // Bulk warm start sees the one record.
  size_t invalid = 0;
  auto all = reopened->LoadAll(*schema_, options_, 64, &invalid);
  EXPECT_EQ(all.size(), 1u);
  EXPECT_EQ(invalid, 0u);
}

TEST_F(PackedStoreTest, PackedAndColdDigestsAgree) {
  // The packed replay and a cold build of the same roots must derive
  // one fact set.
  auto packed = Open();
  ASSERT_NE(packed, nullptr);
  ASSERT_NE(BuildAndSave(*schema_, options_, packed, kFullRoots), nullptr);
  auto from_pack = packed->Find(*schema_, options_, kFullRoots);
  ASSERT_TRUE(from_pack.ok()) << from_pack.status();

  auto cold_set = unfold::UnfoldedSet::Build(*schema_, kFullRoots);
  ASSERT_TRUE(cold_set.ok());
  core::Closure cold(*cold_set.value());
  EXPECT_EQ(from_pack.value()->closure->FactSetDigest(), cold.FactSetDigest());
}

TEST_F(PackedStoreTest, IdenticalResaveDoesNotGrowTheSegment) {
  auto store = Open();
  ASSERT_NE(store, nullptr);
  auto built = BuildAndSave(*schema_, options_, store, kFullRoots);
  ASSERT_NE(built, nullptr);
  uint64_t size_after_first = FileBytes(pack_);
  // Replay is deterministic, so a rebuilt entry serializes to the same
  // bytes and the live-record check must skip the append.
  ASSERT_TRUE(store->Save(*schema_, options_, *built).ok());
  EXPECT_EQ(FileBytes(pack_), size_after_first);
  EXPECT_EQ(store->Stats().entries, 1u);
}

TEST_F(PackedStoreTest, TruncatedSegmentKeepsTheValidPrefix) {
  {
    auto store = Open();
    ASSERT_NE(store, nullptr);
    ASSERT_NE(BuildAndSave(*schema_, options_, store, kFullRoots), nullptr);
    uint64_t size_one = FileBytes(pack_);
    // footer for one record: one 40-byte index entry + 32-byte trailer.
    uint64_t first_record_end = size_one - 72;
    ASSERT_NE(BuildAndSave(*schema_, options_, store, kSmallRoots), nullptr);
    ASSERT_EQ(store->Stats().entries, 2u);
    // Tear the file mid-way through the second record (and lose the
    // footer entirely): the classic kill -9 during an append.
    std::error_code ec;
    std::filesystem::resize_file(pack_, first_record_end + 20, ec);
    ASSERT_FALSE(ec);
  }

  auto recovered = Open();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->Stats().entries, 1u);
  auto kept = recovered->Find(*schema_, options_, kFullRoots);
  EXPECT_TRUE(kept.ok()) << kept.status();
  auto lost = recovered->Find(*schema_, options_, kSmallRoots);
  EXPECT_EQ(lost.status().code(), common::StatusCode::kNotFound);
  // Open rewrote a clean footer over the torn tail, so a second open
  // takes the fast indexed path and sees the same single record.
  auto again = Open();
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->Stats().entries, 1u);
}

TEST_F(PackedStoreTest, TornIndexFallsBackToRecordScan) {
  {
    auto store = Open();
    ASSERT_NE(store, nullptr);
    ASSERT_NE(BuildAndSave(*schema_, options_, store, kFullRoots), nullptr);
    ASSERT_NE(BuildAndSave(*schema_, options_, store, kSmallRoots), nullptr);
  }
  // Corrupt one byte inside the index area (8 bytes before the trailer
  // lands in the last index entry's checksum): the trailer still parses
  // but the index checksum mismatches, forcing the record scan.
  std::string bytes = ReadFileBytes(pack_);
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() - 40] ^= 0x41;
  WriteFileBytes(pack_, bytes);

  auto recovered = Open();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->Stats().entries, 2u);
  EXPECT_TRUE(recovered->Find(*schema_, options_, kFullRoots).ok());
  EXPECT_TRUE(recovered->Find(*schema_, options_, kSmallRoots).ok());
}

// Pack footer geometry (packed_store.h): the index entries (key,
// offset, length, fingerprint, checksum; 40 bytes each) end where the
// 32-byte trailer (index offset, count, index checksum, magic) begins.
constexpr uint64_t kIndexEntryBytes = 40;
constexpr uint64_t kTrailerBytes = 32;

// Both crafted-pack tests end here: the open fell back to the record
// scan, and every record it recovered replays to a cold build's facts.
void ExpectEveryRecordMatchesACold(SnapshotStore& store,
                                   const schema::Schema& schema,
                                   const ClosureOptions& options) {
  EXPECT_EQ(store.Stats().entries, 2u);
  for (const auto& roots : {kFullRoots, kSmallRoots}) {
    auto found = store.Find(schema, options, roots);
    ASSERT_TRUE(found.ok()) << found.status();
    auto cold_set = unfold::UnfoldedSet::Build(schema, roots);
    ASSERT_TRUE(cold_set.ok()) << cold_set.status();
    core::Closure cold(*cold_set.value(), options);
    EXPECT_EQ(found.value()->closure->FactSetDigest(), cold.FactSetDigest());
  }
}

TEST_F(PackedStoreTest, WrappedTrailerFallsBackToRecordScan) {
  {
    auto store = Open();
    ASSERT_NE(store, nullptr);
    ASSERT_NE(BuildAndSave(*schema_, options_, store, kFullRoots), nullptr);
    ASSERT_NE(BuildAndSave(*schema_, options_, store, kSmallRoots), nullptr);
  }
  // An index offset near 2^64 and a count c chosen so that
  // offset + 40c + 32 == size modulo 2^64: a check on that sum alone
  // accepts the trailer, and the index substr then throws out of the
  // open. 0xCCCCCCCCCCCCCCCD is the inverse of 5 modulo 2^64, so
  // 40c == size - 32 + 4096 mod 2^64.
  std::string bytes = ReadFileBytes(pack_);
  const uint64_t size = bytes.size();
  ASSERT_EQ(size % 8, 0u);
  const uint64_t offset = ~uint64_t{0} - 4095;  // 2^64 - 4096
  const uint64_t count =
      ((size - kTrailerBytes + 4096) / 8 * 0xCCCCCCCCCCCCCCCDull) &
      ((uint64_t{1} << 61) - 1);
  ASSERT_EQ(offset + count * kIndexEntryBytes + kTrailerBytes, size);
  PutU64At(bytes, size - kTrailerBytes, offset);
  PutU64At(bytes, size - kTrailerBytes + 8, count);
  WriteFileBytes(pack_, bytes);

  auto recovered = Open();
  ASSERT_NE(recovered, nullptr);
  ExpectEveryRecordMatchesACold(*recovered, *schema_, options_);
}

TEST_F(PackedStoreTest, WrappedIndexEntryFallsBackToRecordScan) {
  {
    auto store = Open();
    ASSERT_NE(store, nullptr);
    ASSERT_NE(BuildAndSave(*schema_, options_, store, kFullRoots), nullptr);
    ASSERT_NE(BuildAndSave(*schema_, options_, store, kSmallRoots), nullptr);
  }
  // The first index entry's length set to 2^64 - 1, under a recomputed
  // index checksum: offset + 16 + length wraps below the index, so a
  // check on that sum accepts the entry, and the first Find would
  // checksum a 2^64-byte view of the mapping.
  std::string bytes = ReadFileBytes(pack_);
  const uint64_t size = bytes.size();
  const uint64_t index_offset = GetU64At(bytes, size - kTrailerBytes);
  ASSERT_EQ(GetU64At(bytes, size - kTrailerBytes + 8), 2u);
  PutU64At(bytes, index_offset + 16, ~uint64_t{0});
  PutU64At(bytes, size - kTrailerBytes + 16,
           common::Fnv1a64(std::string_view(bytes).substr(
               index_offset, 2 * kIndexEntryBytes)));
  WriteFileBytes(pack_, bytes);

  auto recovered = Open();
  ASSERT_NE(recovered, nullptr);
  ExpectEveryRecordMatchesACold(*recovered, *schema_, options_);
}

TEST_F(PackedStoreTest, ForeignEndianPackIsRefused) {
  {
    auto store = Open();
    ASSERT_NE(store, nullptr);
    ASSERT_NE(BuildAndSave(*schema_, options_, store, kFullRoots), nullptr);
  }
  // Mirror the pack header's byte-order marker: the mmap replay path
  // aliases raw structs, so a foreign pack must be refused outright.
  std::string bytes = ReadFileBytes(pack_);
  std::reverse(bytes.begin() + 12, bytes.begin() + 16);
  WriteFileBytes(pack_, bytes);
  auto refused = snapshot::OpenPackedStore(pack_);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("foreign-endian"),
            std::string::npos)
      << refused.status();
}

TEST_F(PackedStoreTest, SweepAfterSchemaDriftReclaimsAllStaleBytes) {
  {
    auto store = Open();
    ASSERT_NE(store, nullptr);
    ASSERT_NE(BuildAndSave(*schema_, options_, store, kFullRoots), nullptr);
    ASSERT_NE(BuildAndSave(*schema_, options_, store, kSmallRoots), nullptr);
  }

  auto drifted = DriftedBrokerSchema();
  auto store = Open();
  ASSERT_NE(store, nullptr);

  // A stale-generation record is a FailedPrecondition, not a miss.
  auto stale = store->Find(*drifted, options_, kFullRoots);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), common::StatusCode::kFailedPrecondition);
  EXPECT_NE(stale.status().message().find("stale generation"),
            std::string::npos)
      << stale.status();

  // The drifted probe stamped the live generation: both records now
  // read as stale bytes.
  snapshot::StoreStats before = store->Stats();
  EXPECT_EQ(before.entries, 2u);
  EXPECT_EQ(before.live_bytes, 0u);
  EXPECT_GT(before.stale_bytes, 0u);

  // One sweep reclaims 100% of the stale generation.
  uint64_t live_fp = snapshot::SchemaFingerprint(*drifted, options_);
  auto swept = store->Sweep(live_fp);
  ASSERT_TRUE(swept.ok()) << swept.status();
  EXPECT_EQ(swept.value().records_kept, 0u);
  EXPECT_EQ(swept.value().records_swept, 2u);
  EXPECT_GT(swept.value().bytes_reclaimed, 0u);
  EXPECT_EQ(before.file_bytes - swept.value().bytes_reclaimed,
            FileBytes(pack_));

  snapshot::StoreStats after = store->Stats();
  EXPECT_EQ(after.entries, 0u);
  EXPECT_EQ(after.stale_bytes, 0u);

  // A second sweep has nothing to do.
  auto again = store->Sweep(live_fp);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().records_swept, 0u);
  EXPECT_EQ(again.value().bytes_reclaimed, 0u);

  // The compacted pack serves the new generation normally.
  ASSERT_NE(BuildAndSave(*drifted, options_, store, kFullRoots), nullptr);
  EXPECT_TRUE(store->Find(*drifted, options_, kFullRoots).ok());
}

TEST_F(PackedStoreTest, SweepKeepsTheLiveGeneration) {
  // Distinct root lists: the index is keyed on (options, roots), so a
  // same-roots save under the new generation would supersede the old
  // record instead of coexisting with it.
  auto drifted = DriftedBrokerSchema();
  auto store = Open();
  ASSERT_NE(store, nullptr);
  ASSERT_NE(BuildAndSave(*schema_, options_, store, kFullRoots), nullptr);
  ASSERT_NE(BuildAndSave(*drifted, options_, store, kSmallRoots), nullptr);
  ASSERT_EQ(store->Stats().entries, 2u);

  auto swept = store->Sweep(snapshot::SchemaFingerprint(*drifted, options_));
  ASSERT_TRUE(swept.ok()) << swept.status();
  EXPECT_EQ(swept.value().records_kept, 1u);
  EXPECT_EQ(swept.value().records_swept, 1u);

  auto live = store->Find(*drifted, options_, kSmallRoots);
  EXPECT_TRUE(live.ok()) << live.status();
  auto gone = store->Find(*schema_, options_, kFullRoots);
  EXPECT_EQ(gone.status().code(), common::StatusCode::kNotFound);
}

TEST_F(PackedStoreTest, SameRootsResaveUnderNewGenerationSupersedes) {
  auto drifted = DriftedBrokerSchema();
  auto store = Open();
  ASSERT_NE(store, nullptr);
  ASSERT_NE(BuildAndSave(*schema_, options_, store, kFullRoots), nullptr);
  ASSERT_NE(BuildAndSave(*drifted, options_, store, kFullRoots), nullptr);
  // One index entry: the new generation's record won the key, and the
  // old record's bytes are dead until a sweep compacts them away.
  EXPECT_EQ(store->Stats().entries, 1u);
  EXPECT_GT(store->Stats().stale_bytes, 0u);
  EXPECT_TRUE(store->Find(*drifted, options_, kFullRoots).ok());

  auto swept = store->Sweep(snapshot::SchemaFingerprint(*drifted, options_));
  ASSERT_TRUE(swept.ok()) << swept.status();
  EXPECT_EQ(swept.value().records_kept, 1u);
  EXPECT_EQ(swept.value().records_swept, 0u);
  EXPECT_GT(swept.value().bytes_reclaimed, 0u);
  EXPECT_EQ(store->Stats().stale_bytes, 0u);
  EXPECT_TRUE(store->Find(*drifted, options_, kFullRoots).ok());
}

TEST_F(PackedStoreTest, PageCacheLruAccounting) {
  {
    auto seeder = Open();
    ASSERT_NE(seeder, nullptr);
    ASSERT_NE(BuildAndSave(*schema_, options_, seeder, kFullRoots), nullptr);
    ASSERT_NE(BuildAndSave(*schema_, options_, seeder, kSmallRoots), nullptr);
  }

  // Capacity 1: the second signature must evict the first.
  auto store = Open(/*page_capacity=*/1);
  ASSERT_NE(store, nullptr);
  auto first = store->Find(*schema_, options_, kFullRoots);   // decode
  auto hot = store->Find(*schema_, options_, kFullRoots);     // page hit
  auto other = store->Find(*schema_, options_, kSmallRoots);  // evicts
  auto back = store->Find(*schema_, options_, kFullRoots);    // decode again
  ASSERT_TRUE(first.ok() && hot.ok() && other.ok() && back.ok());
  // A page hit returns the identical decoded object; a re-decode after
  // eviction is a fresh replay of the same bytes.
  EXPECT_EQ(first.value().get(), hot.value().get());
  EXPECT_NE(first.value().get(), back.value().get());
  EXPECT_EQ(first.value()->closure->FactSetDigest(),
            back.value()->closure->FactSetDigest());

  snapshot::StoreStats stats = store->Stats();
  EXPECT_EQ(stats.page_cache_hits, 1u);
  EXPECT_EQ(stats.page_cache_misses, 3u);
  EXPECT_EQ(stats.page_cache_evictions, 2u);
  EXPECT_EQ(stats.finds, 4u);
}

TEST_F(PackedStoreTest, SharedStoreIsSharedThroughTheSessionOptions) {
  // The session holds its store as given; a service borrowing the
  // session must persist through the same object (one page cache).
  auto store = Open();
  ASSERT_NE(store, nullptr);
  Fleet fleet = MakeFleet(1);
  core::SessionOptions options;
  options.snapshot_store = store;
  core::AnalysisSession session(*fleet.schema, *fleet.users, options);
  EXPECT_EQ(session.options().snapshot_store.get(), store.get());
  EXPECT_EQ(session.recheck_cache().snapshot_store().get(), store.get());
  service::AnalysisService service(session);
  auto batch = service.CheckBatch(fleet.sheet);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_TRUE(service.SaveCacheSnapshot().ok());
  EXPECT_EQ(store->Stats().entries, 3u);
}

// Names of the spans whose parent is `parent`.
std::vector<std::string> ChildNames(const std::vector<obs::SpanRecord>& spans,
                                    obs::SpanId parent) {
  std::vector<std::string> names;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent == parent) names.push_back(span.name);
  }
  return names;
}

TEST_F(PackedStoreTest, StoreSpansTraceTheRestart) {
  Fleet fleet = MakeFleet(2);  // three signatures, two requirements each
  core::SessionOptions options;
  options.tracing = true;
  {
    options.snapshot_store = Open();
    ASSERT_NE(options.snapshot_store, nullptr);
    core::AnalysisSession session(*fleet.schema, *fleet.users, options);
    service::AnalysisService service(session);
    ASSERT_TRUE(service.CheckBatch(fleet.sheet).ok());
    ASSERT_EQ(service.cache_size(), 3u);
    session.tracer().Clear();
    ASSERT_TRUE(service.SaveCacheSnapshot().ok());
    std::vector<obs::SpanRecord> spans = session.tracer().Snapshot();
    EXPECT_EQ(std::count_if(spans.begin(), spans.end(),
                            [](const obs::SpanRecord& span) {
                              return span.name == "store.save";
                            }),
              3);
  }

  // A fresh store over the saved pack: every distinct signature is one
  // store.find in the batch's plan phase, replayed by one decode.
  options.snapshot_store = Open();
  ASSERT_NE(options.snapshot_store, nullptr);
  core::AnalysisSession session(*fleet.schema, *fleet.users, options);
  service::AnalysisService service(session);
  ASSERT_TRUE(service.CheckBatch(fleet.sheet).ok());
  EXPECT_EQ(service.Stats().snapshot_hits, 3u);
  EXPECT_EQ(service.Stats().closures_built, 0u);
  std::vector<obs::SpanRecord> spans = session.tracer().Snapshot();
  int finds = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name != "store.find") continue;
    ++finds;
    ASSERT_GE(span.parent, 0);
    EXPECT_EQ(spans[span.parent].name, "batch.plan");
    EXPECT_EQ(ChildNames(spans, span.id),
              std::vector<std::string>{"snapshot.load"});
  }
  EXPECT_EQ(finds, 3);
}

// --- sharded audit over one shared pack ------------------------------

TEST(PackedShard, SharedPackParityAcrossRestart) {
  ScopedTempDir tmp("oodbsec_packed_test");
  ASSERT_TRUE(tmp.ok());
  const std::string& dir = tmp.path();
  std::string pack = common::StrCat(dir, "/fleet.pack");
  Fleet fleet = MakeFleet();

  service::ShardOptions options;
  options.shard_count = 4;
  options.save_snapshots = true;
  {
    auto store = snapshot::OpenPackedStore(pack);
    ASSERT_TRUE(store.ok()) << store.status();
    options.snapshot_store = store.value();
  }

  auto cold = service::RunShardedBatch(*fleet.schema, *fleet.users,
                                       fleet.sheet, options);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->merged_stats.closures_built, 3u);
  EXPECT_EQ(cold->merged_stats.snapshot_hits, 0u);

  // Kill the fleet: drop the store and reopen the pack cold. Every
  // worker saved through the coordinator, so the pack is the only file
  // and holds every record.
  options.snapshot_store.reset();
  for (const auto& dirent : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(dirent.path().string(), pack) << "stray side segment";
  }
  {
    auto store = snapshot::OpenPackedStore(pack);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_EQ(store.value()->Stats().entries, 3u);
    options.snapshot_store = store.value();
  }

  auto warm = service::RunShardedBatch(*fleet.schema, *fleet.users,
                                       fleet.sheet, options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->merged_stats.closures_built, 0u);
  EXPECT_EQ(warm->merged_stats.snapshot_hits, 3u);
  ASSERT_EQ(cold->reports.size(), warm->reports.size());
  for (size_t i = 0; i < cold->reports.size(); ++i) {
    EXPECT_EQ(cold->reports[i].ToString(), warm->reports[i].ToString());
  }
}

// --- the cross-process fixture (ctest: packed_roundtrip) -------------

TEST(PackedShard, FreshProcessReplaysFromThePack) {
  ASSERT_NE(g_argv0, nullptr);
  ScopedTempDir tmp("oodbsec_packed_test");
  ASSERT_TRUE(tmp.ok());
  const std::string& dir = tmp.path();
  std::string pack = common::StrCat(dir, "/fleet.pack");
  Fleet fleet = MakeFleet();

  // In-process pass: run the audit cold, persist every closure into the
  // pack, and render the expected report text.
  std::string expected;
  {
    auto store = snapshot::OpenPackedStore(pack);
    ASSERT_TRUE(store.ok()) << store.status();
    core::SessionOptions options;
    options.threads = 2;
    options.snapshot_store = store.value();
    core::AnalysisSession session(*fleet.schema, *fleet.users, options);
    service::AnalysisService svc(session);
    auto reports = svc.CheckBatch(fleet.sheet);
    ASSERT_TRUE(reports.ok()) << reports.status();
    ASSERT_TRUE(svc.SaveCacheSnapshot().ok());
    for (const core::AnalysisReport& report : reports.value()) {
      expected += report.ToString();
    }
  }

  // Spawn a genuinely fresh process over the same pack and diff its
  // reports.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execl(g_argv0, g_argv0, "--packed-worker", pack.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed
  }
  ::close(fds[1]);
  std::string output;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof buf)) > 0) {
    output.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "worker did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(wstatus), 0) << output;

  std::string marker = "\n--stats closures_built=0 snapshot_hits=3\n";
  ASSERT_NE(output.find(marker), std::string::npos) << output;
  EXPECT_EQ(output.substr(0, output.size() - marker.size()), expected);
}

}  // namespace

// Worker mode for the cross-process fixture: audit the fleet against a
// packed store and print reports + a stats marker.
int RunPackedWorker(const std::string& pack) {
  Fleet fleet = MakeFleet();
  auto store = snapshot::OpenPackedStore(pack);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  core::SessionOptions options;
  options.threads = 2;
  options.snapshot_store = store.value();
  core::AnalysisSession session(*fleet.schema, *fleet.users, options);
  service::AnalysisService svc(session);
  auto reports = svc.CheckBatch(fleet.sheet);
  if (!reports.ok()) {
    std::fprintf(stderr, "%s\n", reports.status().ToString().c_str());
    return 1;
  }
  for (const core::AnalysisReport& report : reports.value()) {
    std::fputs(report.ToString().c_str(), stdout);
  }
  service::ServiceStats stats = svc.Stats();
  std::printf("\n--stats closures_built=%zu snapshot_hits=%zu\n",
              stats.closures_built, stats.snapshot_hits);
  return 0;
}

}  // namespace oodbsec

int main(int argc, char** argv) {
  g_argv0 = argv[0];
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--packed-worker") {
      return oodbsec::RunPackedWorker(argv[i + 1]);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
