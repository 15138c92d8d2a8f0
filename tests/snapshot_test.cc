// Snapshot-tier and shard-coordinator tests.
//
// The roundtrip suite pins the persistence contract: a closure saved
// into a packed store and loaded in a fresh cache (or a fresh *process*
// — this binary re-execs itself as a worker) replays to a
// byte-identical derivation log and serves audits with zero fixpoints.
// The robustness suite walks the v3 record decoder's invalidation
// ladder rung by rung — truncated, corrupted, version-skewed,
// foreign-endian, fingerprint-skewed, structurally damaged and
// digest-skewed records — and requires a specific refusal plus a
// counted fallback to a cold build: never a crash, never a wrong
// answer. The shard suite pins the partitioner's spread and the fork
// transport's determinism contract against single-process CheckBatch.
//
// This binary has its own main: `snapshot_test --snapshot-worker <pack>`
// runs the stockbroker audit against a packed store and prints the
// reports, which is how the cross-process roundtrip fixture spawns a
// genuinely fresh process image.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/analyzer.h"
#include "core/closure.h"
#include "core/closure_cache.h"
#include "core/requirement.h"
#include "schema/schema.h"
#include "schema/user.h"
#include "service/analysis_service.h"
#include "service/capability_signature.h"
#include "service/shard.h"
#include "snapshot/binio.h"
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

// The same schema with one extra attribute — semantically different,
// so snapshots saved under BrokerSchema must be rejected by it.
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

// The three-role stockbroker population the fleet-audit example runs;
// shared by the shard tests and the re-exec'ed worker.
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

service::ServiceOptions MakeServiceOptions(
    int threads, std::shared_ptr<snapshot::SnapshotStore> store = nullptr) {
  service::ServiceOptions options;
  options.threads = threads;
  options.snapshot_store = std::move(store);
  return options;
}

using test_util::ScopedTempDir;

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

// Opens (creating) the packed store at `path`. Each call is a fresh
// store object, so a reopen simulates a restarted process.
std::shared_ptr<snapshot::SnapshotStore> OpenPack(const std::string& path) {
  auto store = snapshot::OpenPackedStore(path);
  EXPECT_TRUE(store.ok()) << store.status();
  return store.ok() ? std::move(store).value() : nullptr;
}

// Asserts the two closures have byte-identical derivation logs — same
// steps, same rule labels, same premise lists — the strong form of the
// snapshot contract (FactSetDigest equality is the weak form).
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

TEST(SnapshotRoundtrip, ByteIdenticalReplay) {
  ScopedTempDir tmp("oodbsec_snapshot_test");
  ASSERT_TRUE(tmp.ok());
  const std::string pack = tmp.path() + "/cache.pack";
  auto schema = BrokerSchema();
  ClosureOptions options;

  std::shared_ptr<const CachedAnalysis> built;
  {
    ClosureCache saver(*schema, options, 64, nullptr, OpenPack(pack));
    auto result = saver.GetOrBuild(kFullRoots);
    ASSERT_TRUE(result.ok()) << result.status();
    built = result.value();
    ASSERT_TRUE(saver.SaveCacheSnapshot(*built).ok());
  }

  // A fresh cache over a reopened store simulates a restarted process:
  // the probe must serve the saved entry, replayed — not rebuilt.
  ClosureCache loader(*schema, options, 64, nullptr, OpenPack(pack));
  auto loaded = loader.FindSnapshot(kFullRoots);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loader.stats().snapshot_hits, 1u);
  EXPECT_EQ(loader.stats().cold_builds, 0u);
  EXPECT_TRUE(loaded->closure->warm_started());
  EXPECT_EQ(loaded->roots, kFullRoots);
  EXPECT_EQ(loaded->closure->FactSetDigest(), built->closure->FactSetDigest());
  ExpectIdenticalLogs(*built->closure, *loaded->closure);
}

TEST(SnapshotRoundtrip, GetOrBuildChainsExactThenSnapshotThenBuild) {
  ScopedTempDir tmp("oodbsec_snapshot_test");
  ASSERT_TRUE(tmp.ok());
  const std::string pack = tmp.path() + "/cache.pack";
  auto schema = BrokerSchema();
  ClosureOptions options;

  {
    ClosureCache saver(*schema, options, 64, nullptr, OpenPack(pack));
    auto built = saver.GetOrBuild(kFullRoots);
    ASSERT_TRUE(built.ok()) << built.status();
    ASSERT_TRUE(saver.SaveCacheSnapshot().ok());  // bulk form
  }

  ClosureCache cache(*schema, options, 64, nullptr, OpenPack(pack));
  auto first = cache.GetOrBuild(kFullRoots);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.stats().snapshot_hits, 1u);
  EXPECT_EQ(cache.stats().cold_builds, 0u);
  EXPECT_EQ(cache.stats().warm_builds, 0u);
  // Second resolution: the L2 hit landed in L1, so no store touch.
  auto second = cache.GetOrBuild(kFullRoots);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.stats().exact_hits, 1u);
  EXPECT_EQ(cache.stats().snapshot_hits, 1u);
  // A list with no snapshot still probes (miss), then builds cold.
  auto other = cache.GetOrBuild({"checkBudget"});
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(cache.stats().snapshot_misses, 1u);
}

TEST(SnapshotRoundtrip, LoadedSnapshotServesAsWarmBase) {
  ScopedTempDir tmp("oodbsec_snapshot_test");
  ASSERT_TRUE(tmp.ok());
  const std::string pack = tmp.path() + "/cache.pack";
  auto schema = BrokerSchema();
  ClosureOptions options;

  {
    ClosureCache saver(*schema, options, 64, nullptr, OpenPack(pack));
    auto built = saver.GetOrBuild({"checkBudget"});
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(saver.SaveCacheSnapshot().ok());
  }

  // Bulk warm start, then a superset request: the loaded entry must
  // serve as the warm-start base exactly like an in-memory one.
  ClosureCache cache(*schema, options, 64, nullptr, OpenPack(pack));
  EXPECT_EQ(cache.LoadCacheSnapshot(), 1u);
  auto superset = cache.GetOrBuild(kFullRoots);
  ASSERT_TRUE(superset.ok());
  EXPECT_TRUE(superset.value()->closure->warm_started());
  EXPECT_EQ(cache.stats().warm_builds, 1u);

  // Same fact set as a cold run (the warm-start equivalence).
  ClosureCache cold_cache(*schema, options);
  auto cold = cold_cache.GetOrBuild(kFullRoots);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(superset.value()->closure->FactSetDigest(),
            cold.value()->closure->FactSetDigest());
}

TEST(SnapshotRoundtrip, RetractedClosureSnapshotRoundtrips) {
  // A retraction-built closure's log is complete and premise-ordered —
  // structurally indistinguishable from a cold log — so the snapshot
  // tier must persist and replay it like any other entry.
  ScopedTempDir tmp("oodbsec_snapshot_test");
  ASSERT_TRUE(tmp.ok());
  const std::string pack = tmp.path() + "/cache.pack";
  auto schema = BrokerSchema();
  ClosureOptions options;
  const std::vector<std::string> reduced = {"checkBudget"};

  std::shared_ptr<const CachedAnalysis> retracted;
  {
    ClosureCache saver(*schema, options, 64, nullptr, OpenPack(pack));
    auto full = saver.GetOrBuild(kFullRoots);
    ASSERT_TRUE(full.ok()) << full.status();
    retracted = saver.RetractEntry(kFullRoots, reduced);
    ASSERT_NE(retracted, nullptr);
    ASSERT_TRUE(retracted->closure->retracted());
    EXPECT_EQ(saver.stats().retract_builds, 1u);
    ASSERT_TRUE(saver.SaveCacheSnapshot(*retracted).ok());
  }

  ClosureCache loader(*schema, options, 64, nullptr, OpenPack(pack));
  auto loaded = loader.FindSnapshot(reduced);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loader.stats().snapshot_hits, 1u);
  ExpectIdenticalLogs(*retracted->closure, *loaded->closure);

  // The replayed retraction serves the same fact set a cold build of
  // the reduced list derives.
  auto cold_set = unfold::UnfoldedSet::Build(*schema, reduced);
  ASSERT_TRUE(cold_set.ok());
  core::Closure cold(*cold_set.value());
  EXPECT_EQ(loaded->closure->FactSetDigest(), cold.FactSetDigest());
}

TEST(SnapshotRoundtrip, OptionsChangeTheKey) {
  ClosureOptions a;
  ClosureOptions b;
  b.pi_join_to_ti = false;
  EXPECT_NE(snapshot::SnapshotKeyHash(a, kFullRoots),
            snapshot::SnapshotKeyHash(b, kFullRoots));
  EXPECT_NE(snapshot::SnapshotKeyHash(a, kFullRoots),
            snapshot::SnapshotKeyHash(a, {"checkBudget"}));
  EXPECT_EQ(snapshot::SnapshotKeyHash(a, kFullRoots),
            snapshot::SnapshotKeyHash(a, kFullRoots));
}

// --- the cross-process fixture (ctest: snapshot_roundtrip) -----------

TEST(SnapshotRoundtrip, FreshProcessReplaysTheAudit) {
  ASSERT_NE(g_argv0, nullptr);
  ScopedTempDir tmp("oodbsec_snapshot_test");
  ASSERT_TRUE(tmp.ok());
  const std::string pack = tmp.path() + "/cache.pack";
  Fleet fleet = MakeFleet();

  // In-process pass: run the audit cold, persist every closure, and
  // render the expected report text.
  std::string expected;
  {
    service::AnalysisService svc(*fleet.schema, *fleet.users,
                                 MakeServiceOptions(2, OpenPack(pack)));
    auto reports = svc.CheckBatch(fleet.sheet);
    ASSERT_TRUE(reports.ok()) << reports.status();
    ASSERT_TRUE(svc.SaveCacheSnapshot().ok());
    for (const core::AnalysisReport& report : reports.value()) {
      expected += report.ToString();
    }
  }

  // Spawn a genuinely fresh process (fork + exec of this binary in
  // worker mode) over the same pack and diff its reports.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execl(g_argv0, g_argv0, "--snapshot-worker", pack.c_str(),
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

  // The worker prints the reports, then one stats line. It must have
  // built nothing: every signature replays from the snapshot tier.
  std::string marker = "\n--stats closures_built=0 snapshot_hits=3\n";
  ASSERT_NE(output.find(marker), std::string::npos) << output;
  EXPECT_EQ(output.substr(0, output.size() - marker.size()), expected);
}

// --- robustness: the v3 invalidation ladder, rung by rung ------------
//
// Every case damages the saved record the way its rung guards against,
// then requires (a) DecodeEntry to refuse it with that rung's diagnosis
// — so dropping the check fails the test — and (b) the record, written
// back into the pack, to cost a counted fallback to a cold build
// through the cache.

// Recomputes a record's payload checksum after a deliberate edit, so
// only the rungs past the checksum can catch it.
void Rechecksum(std::string& record) {
  uint64_t checksum = snapshot::Fnv1a64(
      std::string_view(record).substr(snapshot::kEntryHeaderSize));
  std::memcpy(record.data() + 24, &checksum, sizeof checksum);
}

class SnapshotRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(tmp_.ok());
    pack_ = tmp_.path() + "/cache.pack";
    schema_ = BrokerSchema();
    ClosureCache saver(*schema_, options_, 64, nullptr, OpenPack(pack_));
    auto built = saver.GetOrBuild(kFullRoots);
    ASSERT_TRUE(built.ok());
    reference_digest_ = built.value()->closure->FactSetDigest();
    ASSERT_TRUE(saver.SaveCacheSnapshot(*built.value()).ok());
    record_ = snapshot::BuildEntryBytes(*schema_, options_, *built.value());
    ASSERT_GT(record_.size(), snapshot::kEntryHeaderSize + 64);
  }

  // DecodeEntry must refuse `record` with a diagnosis naming `rung`.
  void ExpectRefused(const std::string& record, std::string_view rung) {
    auto decoded = snapshot::DecodeEntry(*schema_, options_, "test", record);
    ASSERT_FALSE(decoded.ok()) << "accepted a record damaged at: " << rung;
    EXPECT_EQ(decoded.status().code(),
              common::StatusCode::kFailedPrecondition);
    EXPECT_NE(decoded.status().message().find(rung), std::string::npos)
        << decoded.status();
  }

  // Rewrites the pack with `record` as its one entry, behind an intact
  // header, record frame, index and trailer — the shape of a record
  // that rotted on disk after its footer was written. The index keeps
  // the saved record's key and generation stamp.
  void WriteRecord(const std::string& record) {
    const std::string pack = ReadFileBytes(pack_);
    ASSERT_GE(pack.size(), 32u + 16u + 32u);
    const uint64_t key = snapshot::SnapshotKeyHash(options_, kFullRoots);
    const uint64_t fingerprint =
        snapshot::SchemaFingerprint(*schema_, options_);
    uint64_t checksum = 0;
    if (record.size() >= snapshot::kEntryHeaderSize) {
      std::memcpy(&checksum, record.data() + 24, sizeof checksum);
    }
    snapshot::ByteWriter out;
    out.PutFixedString(std::string_view(pack).substr(0, 32));  // header
    out.PutU64(key);
    out.PutU64(record.size());
    out.PutFixedString(record);
    out.PutFixedString(std::string((8 - record.size() % 8) % 8, '\0'));
    const uint64_t index_offset = out.buffer().size();
    snapshot::ByteWriter index;
    index.PutU64(key);
    index.PutU64(32);  // the record's offset
    index.PutU64(record.size());
    index.PutU64(fingerprint);
    index.PutU64(checksum);
    out.PutFixedString(index.buffer());
    out.PutU64(index_offset);
    out.PutU64(1);
    out.PutU64(snapshot::Fnv1a64(index.buffer()));
    out.PutFixedString(snapshot::kPackIndexMagic);
    WriteFileBytes(pack_, out.buffer());
  }

  // The invariant all damage shares: the probe rejects the record
  // (counted — as invalid when the record reaches the decoder, as a
  // miss when the pack's own recovery already dropped it), GetOrBuild's
  // own probe refuses and counts it again, and GetOrBuild still serves
  // the right answer via a cold build.
  void ExpectCountedFallback(bool reaches_decoder = true) {
    ClosureCache cache(*schema_, options_, 64, nullptr, OpenPack(pack_));
    EXPECT_EQ(cache.FindSnapshot(kFullRoots), nullptr);
    EXPECT_EQ(cache.stats().snapshot_invalid, reaches_decoder ? 1u : 0u);
    EXPECT_EQ(cache.stats().snapshot_misses, reaches_decoder ? 0u : 1u);
    auto rebuilt = cache.GetOrBuild(kFullRoots);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    EXPECT_EQ(cache.stats().snapshot_invalid, reaches_decoder ? 2u : 0u);
    EXPECT_EQ(cache.stats().snapshot_misses, reaches_decoder ? 0u : 2u);
    EXPECT_EQ(cache.stats().cold_builds, 1u);
    EXPECT_FALSE(rebuilt.value()->closure->warm_started());
    EXPECT_EQ(rebuilt.value()->closure->FactSetDigest(), reference_digest_);
  }

  // Refused by the decoder, then a counted fallback from the pack.
  void ExpectLadderFallback(const std::string& record, std::string_view rung,
                            bool reaches_decoder = true) {
    ExpectRefused(record, rung);
    WriteRecord(record);
    ExpectCountedFallback(reaches_decoder);
  }

  // Payload offsets of the digest string's bytes and of the PackedStep
  // array, read from the record's own prefix.
  size_t DigestOffset() const {
    size_t pos = snapshot::kEntryHeaderSize;
    const uint32_t roots = snapshot::LoadU32(record_.data() + pos);
    pos += 4;
    for (uint32_t i = 0; i < roots; ++i) {
      pos += 4 + snapshot::LoadU32(record_.data() + pos);
    }
    return pos + 4;  // past the digest's length prefix
  }
  size_t StepsOffset() const {
    size_t pos = DigestOffset() - 4;
    pos += 4 + snapshot::LoadU32(record_.data() + pos);  // digest
    const uint32_t rules = snapshot::LoadU32(record_.data() + pos);
    pos += 4;
    for (uint32_t i = 0; i < rules; ++i) {
      pos += 4 + snapshot::LoadU32(record_.data() + pos);
    }
    const uint32_t steps_rel = snapshot::LoadU32(record_.data() + pos + 8);
    return snapshot::kEntryHeaderSize + steps_rel;
  }

  ScopedTempDir tmp_{"oodbsec_snapshot_test"};
  std::string pack_;
  std::unique_ptr<schema::Schema> schema_;
  ClosureOptions options_;
  std::string reference_digest_;
  std::string record_;
};

TEST_F(SnapshotRobustnessTest, IntactRecordDecodesAndReplays) {
  // The control: the rewritten pack and the bare codec both serve the
  // saved closure, so every refusal below is the damage's doing.
  auto decoded = snapshot::DecodeEntry(*schema_, options_, "test", record_);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value()->closure->FactSetDigest(), reference_digest_);
  WriteRecord(record_);
  ClosureCache cache(*schema_, options_, 64, nullptr, OpenPack(pack_));
  EXPECT_NE(cache.FindSnapshot(kFullRoots), nullptr);
  EXPECT_EQ(cache.stats().snapshot_hits, 1u);
}

TEST_F(SnapshotRobustnessTest, MissingRecordIsAMissNotAnError) {
  ClosureCache cache(*schema_, options_, 64, nullptr, OpenPack(pack_));
  EXPECT_EQ(cache.FindSnapshot({"calcSalary"}), nullptr);
  EXPECT_EQ(cache.stats().snapshot_misses, 1u);
  EXPECT_EQ(cache.stats().snapshot_invalid, 0u);
}

TEST_F(SnapshotRobustnessTest, TruncatedHeader) {
  // The pack's record scan drops a record too short for its header, so
  // the store sees a miss; the decoder refuses it outright.
  ExpectLadderFallback(record_.substr(0, 12), "not a snapshot record",
                       /*reaches_decoder=*/false);
}

TEST_F(SnapshotRobustnessTest, TruncatedPayloadBreaksChecksum) {
  ExpectLadderFallback(record_.substr(0, record_.size() / 2),
                       "checksum mismatch");
}

TEST_F(SnapshotRobustnessTest, TruncatedPayloadWithRecomputedChecksum) {
  // The deeper case: the payload is cut short but the checksum is made
  // consistent again, so only the bounds-checked geometry can catch it.
  std::string record = record_;
  record.resize(record.size() - 33);
  Rechecksum(record);
  ExpectLadderFallback(record, "geometry");
}

TEST_F(SnapshotRobustnessTest, FlippedPayloadByteBreaksChecksum) {
  std::string record = record_;
  record[record.size() - 5] ^= 0x41;
  ExpectLadderFallback(record, "checksum mismatch");
}

TEST_F(SnapshotRobustnessTest, WrongMagicOrFormatVersion) {
  std::string magic = record_;
  magic[0] ^= 0x20;  // "oODBSNAP"
  ExpectRefused(magic, "not a snapshot record");
  std::string version = record_;
  version[8] ^= 0x7f;  // the u32 version lives at bytes 8..11
  ExpectLadderFallback(version, "record version");
}

TEST_F(SnapshotRobustnessTest, WrongSchemaFingerprintBytes) {
  std::string record = record_;
  record[16] ^= 0x7f;  // the u64 fingerprint lives at bytes 16..23
  ExpectLadderFallback(record, "schema fingerprint mismatch");
}

TEST_F(SnapshotRobustnessTest, ForeignEndianRecordIsRefused) {
  // The header a machine of the opposite endianness writes: every
  // integer field mirrored. Replay aliases raw structs, so a foreign
  // record is refused — diagnosed as foreign, before its (mirrored)
  // version could be misread as corruption.
  std::string record = record_;
  std::reverse(record.begin() + 8, record.begin() + 12);   // version
  std::reverse(record.begin() + 12, record.begin() + 16);  // marker
  std::reverse(record.begin() + 16, record.begin() + 24);  // fingerprint
  std::reverse(record.begin() + 24, record.begin() + 32);  // checksum
  ExpectLadderFallback(record, "foreign-endian");
}

TEST_F(SnapshotRobustnessTest, CorruptByteOrderMarkerIsRefused) {
  // A marker that is neither the native constant nor its mirror is
  // corruption, not foreignness — refused before any payload decode.
  std::string record = record_;
  record[12] ^= 0x40;  // u32 marker lives at bytes 12..15
  ExpectLadderFallback(record, "corrupt byte-order marker");
}

TEST_F(SnapshotRobustnessTest, StructuralDamageIsRefused) {
  // A checksum-consistent record whose first step names an occurrence
  // the re-unfolded root list does not have.
  std::string record = record_;
  const int32_t bogus = 1 << 30;
  std::memcpy(record.data() + StepsOffset(), &bogus, sizeof bogus);  // a
  Rechecksum(record);
  ExpectLadderFallback(record, "occurrence id out of range");
}

TEST_F(SnapshotRobustnessTest, DigestMismatchIsRefused) {
  // A well-formed log whose stored fact-set digest disagrees with what
  // it replays to: the last line of defence against rule drift.
  std::string record = record_;
  record[DigestOffset()] ^= 0x01;
  Rechecksum(record);
  ExpectLadderFallback(record, "fact-set digest mismatch");
}

TEST_F(SnapshotRobustnessTest, SchemaDriftInvalidatesTheSnapshot) {
  // A real schema change (extra attribute) under the same key: the
  // fingerprint check must reject and the cache must rebuild against
  // the *new* schema.
  auto drifted = DriftedBrokerSchema();
  ClosureCache cache(*drifted, options_, 64, nullptr, OpenPack(pack_));
  EXPECT_EQ(cache.FindSnapshot(kFullRoots), nullptr);
  EXPECT_EQ(cache.stats().snapshot_invalid, 1u);
  auto rebuilt = cache.GetOrBuild(kFullRoots);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(cache.stats().cold_builds, 1u);
}

TEST_F(SnapshotRobustnessTest, DirectLoadReportsNotFoundDistinctly) {
  auto store = OpenPack(pack_);
  ASSERT_NE(store, nullptr);
  auto missing = store->Find(*schema_, options_, {"calcSalary"});
  EXPECT_EQ(missing.status().code(), common::StatusCode::kNotFound);
  auto garbage = snapshot::DecodeEntry(*schema_, options_, "test",
                                       "definitely not a snapshot");
  EXPECT_EQ(garbage.status().code(),
            common::StatusCode::kFailedPrecondition);
}

// --- shard coordinator ----------------------------------------------

TEST(ShardTest, ShardOfIsStableAndInRange) {
  Fleet fleet = MakeFleet();
  std::set<int> seen;
  for (const core::Requirement& requirement : fleet.sheet) {
    const schema::User* user = fleet.users->Find(requirement.user);
    ASSERT_NE(user, nullptr);
    std::string signature = service::CapabilitySignature(
        *fleet.schema, *user, core::ClosureOptions{});
    int shard = service::ShardOf(signature, 4);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(shard, service::ShardOf(signature, 4)) << "unstable";
    EXPECT_EQ(service::ShardOf(signature, 1), 0);
    seen.insert(shard);
  }
  // Same-role users must land on the same shard (same signature).
  const schema::User* a = fleet.users->Find("clerk0");
  const schema::User* b = fleet.users->Find("clerk1");
  EXPECT_EQ(
      service::ShardOf(service::CapabilitySignature(*fleet.schema, *a, {}), 4),
      service::ShardOf(service::CapabilitySignature(*fleet.schema, *b, {}),
                       4));
}

// Counts how 64 signatures, the dept-th built from `root_of(dept)`,
// spread over 2 and over 4 shards.
template <typename RootsOf>
void ExpectSpread(RootsOf roots_of) {
  std::vector<int> two(2, 0);
  std::vector<int> four(4, 0);
  for (int dept = 0; dept < 64; ++dept) {
    std::string signature = service::SignatureFromRoots(roots_of(dept), {});
    ++two[static_cast<size_t>(service::ShardOf(signature, 2))];
    ++four[static_cast<size_t>(service::ShardOf(signature, 4))];
  }
  for (int count : two) EXPECT_GE(count, 16);
  for (int count : four) EXPECT_GE(count, 8);
}

TEST(ShardTest, ShardOfSpreadsSignaturesDifferingInARepeatedNumber) {
  // Signatures that differ only in a department number repeated in
  // every root: FNV-1a's low bits see each digit's low bits four times,
  // so a modulo partitioner lands all 64 on one worker.
  ExpectSpread([](int dept) {
    std::vector<std::string> roots;
    for (const char* root :
         {"checkBudget_d", "r_budget_d", "w_budget_d", "w_profit_d"}) {
      roots.push_back(common::StrCat(root, dept));
    }
    return roots;
  });
}

TEST(ShardTest, ShardOfSpreadsSignaturesDifferingInATrailingNumber) {
  // Signatures that differ only in their last root's number: FNV-1a's
  // last bytes never reach the hash's high word, so reducing by the
  // high bits alone lands all 64 on one worker.
  ExpectSpread([](int dept) {
    return std::vector<std::string>{"r_name",
                                    common::StrCat("w_budget", dept)};
  });
}

// Audits `grants.size()` single-grant roles, two users each, on two
// forked workers and returns how many requirements each worker took.
std::vector<size_t> RequirementsPerWorker(
    const std::vector<std::string>& grants) {
  Fleet fleet;
  fleet.schema = BrokerSchema();
  fleet.users = std::make_unique<schema::UserRegistry>(*fleet.schema);
  for (size_t r = 0; r < grants.size(); ++r) {
    for (int k = 0; k < 2; ++k) {
      std::string name = common::StrCat("role", r, "_", k);
      EXPECT_TRUE(fleet.users->AddUser(name).ok());
      EXPECT_TRUE(fleet.users->Grant(name, grants[r]).ok());
      auto parsed = core::ParseRequirementString(
          common::StrCat("(", name, ", r_salary(x) : ti)"));
      EXPECT_TRUE(parsed.ok()) << parsed.status();
      fleet.sheet.push_back(std::move(parsed).value());
    }
  }
  service::ShardOptions options;
  options.shard_count = 2;
  auto sharded = service::RunShardedBatch(*fleet.schema, *fleet.users,
                                          fleet.sheet, options);
  EXPECT_TRUE(sharded.ok()) << sharded.status();
  return sharded.ok() ? sharded->shard_requirements : std::vector<size_t>{};
}

TEST(ShardTest, FewSignaturesSpreadEvenlyOverTheWorkers) {
  // ShardOf splits a handful of signatures like coin flips; the plan
  // must spread them evenly anyway. Sort single-grant roles by the
  // worker ShardOf prefers for them, majority side first.
  auto schema = BrokerSchema();
  schema::UserRegistry probe(*schema);
  std::vector<std::string> by_shard[2];
  for (const char* grant :
       {"r_name", "r_salary", "r_budget", "r_profit", "w_name", "w_salary",
        "w_budget", "w_profit", "checkBudget", "calcSalary",
        "updateSalary"}) {
    std::string name = common::StrCat("probe_", grant);
    ASSERT_TRUE(probe.AddUser(name).ok());
    ASSERT_TRUE(probe.Grant(name, grant).ok());
    std::string signature = service::CapabilitySignature(
        *schema, *probe.Find(name), core::ClosureOptions{});
    by_shard[service::ShardOf(signature, 2)].push_back(grant);
  }
  if (by_shard[0].size() < by_shard[1].size()) {
    std::swap(by_shard[0], by_shard[1]);
  }
  ASSERT_GE(by_shard[0].size(), 6u);

  // Two signatures ShardOf sends to one worker get a worker each.
  EXPECT_EQ(RequirementsPerWorker({by_shard[0][0], by_shard[0][1]}),
            (std::vector<size_t>{2, 2}));

  // Eight signatures, at least six preferring one worker, split 8/8.
  std::vector<std::string> eight = by_shard[0];
  eight.resize(std::min<size_t>(eight.size(), 8));
  for (size_t i = 0; eight.size() < 8; ++i) eight.push_back(by_shard[1][i]);
  EXPECT_EQ(RequirementsPerWorker(eight), (std::vector<size_t>{8, 8}));
}

TEST(ShardTest, ShardedBatchMatchesSingleProcessByteForByte) {
  Fleet fleet = MakeFleet();
  // Fork first: no thread pool may exist yet (see shard.h).
  service::ShardOptions options;
  options.shard_count = 4;
  auto sharded = service::RunShardedBatch(*fleet.schema, *fleet.users,
                                          fleet.sheet, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status();

  service::AnalysisService svc(*fleet.schema, *fleet.users,
                               MakeServiceOptions(2));
  auto batch = svc.CheckBatch(fleet.sheet);
  ASSERT_TRUE(batch.ok()) << batch.status();

  ASSERT_EQ(sharded->reports.size(), batch.value().size());
  for (size_t i = 0; i < batch.value().size(); ++i) {
    EXPECT_EQ(sharded->reports[i].ToString(), batch.value()[i].ToString())
        << "requirement " << i;
  }
  service::ServiceStats single = svc.Stats();
  EXPECT_EQ(sharded->merged_stats.checks, single.checks);
  EXPECT_EQ(sharded->merged_stats.closures_built, single.closures_built);
  size_t routed = 0;
  for (size_t count : sharded->shard_requirements) routed += count;
  EXPECT_EQ(routed, fleet.sheet.size());
}

TEST(ShardTest, SingleShardAndManyShardsAgree) {
  Fleet fleet = MakeFleet();
  service::ShardOptions one;
  one.shard_count = 1;
  auto single = service::RunShardedBatch(*fleet.schema, *fleet.users,
                                         fleet.sheet, one);
  ASSERT_TRUE(single.ok()) << single.status();
  service::ShardOptions many;
  many.shard_count = 7;  // more shards than signatures
  auto wide = service::RunShardedBatch(*fleet.schema, *fleet.users,
                                       fleet.sheet, many);
  ASSERT_TRUE(wide.ok()) << wide.status();
  ASSERT_EQ(single->reports.size(), wide->reports.size());
  for (size_t i = 0; i < single->reports.size(); ++i) {
    EXPECT_EQ(single->reports[i].ToString(), wide->reports[i].ToString());
  }
}

TEST(ShardTest, WorkerThreadsOtherThanOneAreRejected) {
  Fleet fleet = MakeFleet();
  service::ShardOptions options;
  options.threads = 2;
  auto sharded = service::RunShardedBatch(*fleet.schema, *fleet.users,
                                          fleet.sheet, options);
  ASSERT_FALSE(sharded.ok());
  EXPECT_EQ(sharded.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(ShardTest, UnknownUserErrorMatchesCheckBatch) {
  Fleet fleet = MakeFleet();
  auto ghost = core::ParseRequirementString("(ghost, r_salary(x) : ti)");
  ASSERT_TRUE(ghost.ok());
  // Insert mid-sheet: earlier requirements succeed, so the unknown user
  // is the earliest failure — in both runs.
  fleet.sheet.insert(fleet.sheet.begin() + 2, std::move(ghost).value());

  service::ShardOptions options;
  options.shard_count = 3;
  auto sharded = service::RunShardedBatch(*fleet.schema, *fleet.users,
                                          fleet.sheet, options);
  ASSERT_FALSE(sharded.ok());

  service::AnalysisService svc(*fleet.schema, *fleet.users,
                               MakeServiceOptions(2));
  auto batch = svc.CheckBatch(fleet.sheet);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(sharded.status().code(), batch.status().code());
  EXPECT_EQ(sharded.status().message(), batch.status().message());
}

TEST(ShardTest, ShardedWorkersShareTheSnapshotTier) {
  ScopedTempDir tmp("oodbsec_snapshot_test");
  ASSERT_TRUE(tmp.ok());
  Fleet fleet = MakeFleet();
  service::ShardOptions options;
  options.shard_count = 4;
  options.snapshot_store = OpenPack(tmp.path() + "/cache.pack");
  options.save_snapshots = true;

  auto cold = service::RunShardedBatch(*fleet.schema, *fleet.users,
                                       fleet.sheet, options);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->merged_stats.closures_built, 3u);
  EXPECT_EQ(cold->merged_stats.snapshot_hits, 0u);

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

}  // namespace

// Worker mode for the cross-process fixture: audit the fleet against a
// packed store and print reports + a stats marker.
int RunSnapshotWorker(const std::string& pack) {
  Fleet fleet = MakeFleet();
  service::AnalysisService svc(*fleet.schema, *fleet.users,
                               MakeServiceOptions(2, OpenPack(pack)));
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
    if (std::string_view(argv[i]) == "--snapshot-worker") {
      return oodbsec::RunSnapshotWorker(argv[i + 1]);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
