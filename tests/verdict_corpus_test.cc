// The verdict corpus (verdict_corpus.h): per seed, the closure facts
// A(R) reads and every requirement's verdict and flaw sites, pinned as
// two hashes. A change to the closure engine that moves a verdict, a
// flaw site, a ta/pa/ti/pi bit or the equality partition of any corpus
// closure fails here and names the seed; reproduce it with
// corpus::GenerateWorkspace(seed).
//
// The same seeds carry the equivalence family: every closure route —
// cold, grown from one root fewer, shrunk from one root more, and
// replayed from its snapshot record — must derive the same
// FactSetDigest.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "closure_test_util.h"
#include "core/closure.h"
#include "core/closure_cache.h"
#include "snapshot/snapshot.h"
#include "unfold/unfolded.h"
#include "verdict_corpus.h"

namespace oodbsec::corpus {
namespace {

using core::Unfold;

struct Pin {
  uint64_t seed;
  uint64_t closures;
  uint64_t verdicts;
};

constexpr Pin kPins[] = {
#include "verdict_corpus_pins.inc"
};

TEST(VerdictCorpusTest, CoversAThousandSeeds) {
  EXPECT_GE(std::size(kPins), 1000u);
}

TEST(VerdictCorpusTest, EverySeedMatchesItsPinnedHashes) {
  for (const Pin& pin : kPins) {
    SeedHashes got = HashSeed(pin.seed);
    ASSERT_TRUE(got.ok) << "seed " << pin.seed << " failed to load or check";
    EXPECT_EQ(got.closures, pin.closures) << "closures of seed " << pin.seed;
    EXPECT_EQ(got.verdicts, pin.verdicts) << "verdicts of seed " << pin.seed;
  }
}

// A root the list lacks: the first schema function, else a read of the
// first attribute; "" when the list already has both.
std::string ExtraRoot(const schema::Schema& schema,
                      const std::vector<std::string>& roots) {
  std::vector<std::string> candidates;
  for (const auto& fn : schema.functions()) candidates.push_back(fn->name());
  const auto& first_class = *schema.classes().front();
  candidates.push_back("r_" + first_class.attributes().front().name);
  for (const std::string& candidate : candidates) {
    if (std::find(roots.begin(), roots.end(), candidate) == roots.end()) {
      return candidate;
    }
  }
  return "";
}

TEST(VerdictCorpusTest, EveryRouteDerivesTheColdFactSet) {
  for (const Pin& pin : kPins) {
    auto loaded = text::LoadWorkspace(GenerateWorkspace(pin.seed));
    ASSERT_TRUE(loaded.ok()) << "seed " << pin.seed;
    const schema::Schema& schema = *loaded.value().schema;
    const core::ClosureOptions options = OptionsFor(pin.seed);
    for (const Signature& signature : Signatures(loaded.value())) {
      const std::vector<std::string>& roots = signature.roots;
      auto cold_set = Unfold(schema, roots);
      auto cold = std::make_unique<core::Closure>(*cold_set, options);
      const std::string digest = cold->FactSetDigest();
      const std::string where = common::StrCat(
          "seed ", pin.seed, " roots ", common::Join(roots, ","));

      if (roots.size() >= 2) {
        std::vector<std::string> fewer = roots;
        fewer.erase(fewer.begin() +
                    static_cast<std::ptrdiff_t>(roots.size() / 2));
        auto base_set = Unfold(schema, fewer);
        core::Closure base(*base_set, options);
        auto set = Unfold(schema, roots);
        core::Closure grown(*set, options, nullptr, &base);
        EXPECT_TRUE(grown.warm_started() && !grown.retracted()) << where;
        EXPECT_EQ(grown.FactSetDigest(), digest) << "grow, " << where;
      }

      if (std::string extra = ExtraRoot(schema, roots); !extra.empty()) {
        std::vector<std::string> more = roots;
        more.push_back(extra);
        auto base_set = Unfold(schema, more);
        core::Closure base(*base_set, options);
        auto set = Unfold(schema, roots);
        core::Closure shrunk(*set, options, nullptr, &base);
        EXPECT_TRUE(shrunk.retracted()) << where;
        EXPECT_EQ(shrunk.FactSetDigest(), digest) << "shrink, " << where;
      }

      core::CachedAnalysis entry;
      entry.roots = roots;
      entry.set = std::move(cold_set);
      entry.closure = std::move(cold);
      auto replayed = snapshot::DecodeEntry(
          schema, options, "corpus",
          snapshot::BuildEntryBytes(schema, options, entry));
      ASSERT_TRUE(replayed.ok()) << replayed.status() << ", " << where;
      EXPECT_EQ(replayed.value()->closure->FactSetDigest(), digest)
          << "snapshot, " << where;
    }
  }
}

}  // namespace
}  // namespace oodbsec::corpus
