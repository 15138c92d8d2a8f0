// The front-end corpus (frontend_corpus.h): per seed, every workspace,
// requirement and query input and every AddCapability name check,
// folded into four pinned hashes. A change that makes a decoder accept
// or refuse a different input, or moves one byte of a diagnostic, a
// dump or a schema fingerprint, fails here and names the seed and the
// decoder; reproduce it with corpus::HashFrontend.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "frontend_corpus.h"

namespace oodbsec::corpus {
namespace {

struct Pin {
  uint64_t seed;
  uint64_t workspaces;
  uint64_t requirements;
  uint64_t queries;
  uint64_t capabilities;
};

constexpr Pin kPins[] = {
#include "frontend_corpus_pins.inc"
};

constexpr uint64_t kCorpusSeeds = 1000;

std::string ReadFile(const char* path) {
  std::ifstream file(path);
  std::ostringstream contents;
  contents << file.rdbuf();
  return contents.str();
}

// Seed 0 is the shell's example workspace; 1..1000 the verdict corpus.
std::string SeedText(uint64_t seed) {
  return seed == 0 ? ReadFile(OODBSEC_STOCKBROKER_ODB)
                   : GenerateWorkspace(seed);
}

struct CorpusResult {
  std::vector<FrontendHashes> hashes;  // parallel to kPins
  FrontendTally tally;
};

const CorpusResult& CorpusRun() {
  static const CorpusResult* run = [] {
    auto* out = new CorpusResult();
    for (const Pin& pin : kPins) {
      out->hashes.push_back(
          HashFrontend(pin.seed, SeedText(pin.seed),
                       GenerateWorkspace(pin.seed % kCorpusSeeds + 1),
                       out->tally));
    }
    return out;
  }();
  return *run;
}

TEST(FrontendCorpusTest, CoversTheExampleAndAThousandSeeds) {
  ASSERT_EQ(std::size(kPins), kCorpusSeeds + 1);
  EXPECT_EQ(kPins[0].seed, 0u);
  EXPECT_EQ(kPins[kCorpusSeeds].seed, kCorpusSeeds);
}

TEST(FrontendCorpusTest, EverySeedMatchesItsPinnedHashes) {
  const CorpusResult& run = CorpusRun();
  for (size_t i = 0; i < std::size(kPins); ++i) {
    const Pin& pin = kPins[i];
    const FrontendHashes& got = run.hashes[i];
    EXPECT_EQ(got.workspaces, pin.workspaces)
        << "workspaces of seed " << pin.seed;
    EXPECT_EQ(got.requirements, pin.requirements)
        << "requirements of seed " << pin.seed;
    EXPECT_EQ(got.queries, pin.queries) << "queries of seed " << pin.seed;
    EXPECT_EQ(got.capabilities, pin.capabilities)
        << "capabilities of seed " << pin.seed;
  }
}

TEST(FrontendCorpusTest, EveryAcceptedWorkspaceRoundTrips) {
  for (const std::string& failure : CorpusRun().tally.round_trip_failures) {
    ADD_FAILURE() << failure;
  }
}

// Each decoder sees several hundred inputs on either side of the line.
TEST(FrontendCorpusTest, EachDecoderAcceptsAndRejectsHundreds) {
  const FrontendTally& tally = CorpusRun().tally;
  const char* names[] = {"workspaces", "requirements", "queries"};
  for (int decoder = 0; decoder < 3; ++decoder) {
    EXPECT_GE(tally.accepted[decoder], 300) << names[decoder];
    EXPECT_GE(tally.rejected[decoder], 300) << names[decoder];
  }
}

}  // namespace
}  // namespace oodbsec::corpus
