// Consistency checks over the scenario corpus itself: ground-truth metadata
// must reference real programs/globals, the registry must expose the paper's
// exact table populations and every text in src/bugs/corpus/, and the copies
// it hands out must not share state.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "src/bugs/registry.h"
#include "src/ingest/serialize.h"

namespace aitia {
namespace {

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

class MetadataTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MetadataTest, RacingGlobalsExistInTheImage) {
  BugScenario s = MakeScenario(GetParam());
  EXPECT_FALSE(s.truth.racing_globals.empty()) << s.id;
  for (const std::string& name : s.truth.racing_globals) {
    EXPECT_NE(s.image->FindGlobal(name), 0u) << s.id << " missing global " << name;
  }
}

TEST_P(MetadataTest, SliceProgramsAreValid) {
  BugScenario s = MakeScenario(GetParam());
  ASSERT_FALSE(s.slice.empty()) << s.id;
  EXPECT_LE(s.slice.size(), 3u) << s.id << ": slices hold at most three threads (§4.2)";
  for (const ThreadSpec& t : s.slice) {
    ASSERT_GE(t.prog, 0) << s.id;
    ASSERT_LT(static_cast<size_t>(t.prog), s.image->programs().size()) << s.id;
    EXPECT_FALSE(t.name.empty()) << s.id;
  }
  for (const ThreadSpec& t : s.setup) {
    ASSERT_LT(static_cast<size_t>(t.prog), s.image->programs().size()) << s.id;
  }
}

TEST_P(MetadataTest, ResourceVectorsAlignWithThreads) {
  BugScenario s = MakeScenario(GetParam());
  if (!s.slice_resources.empty()) {
    EXPECT_EQ(s.slice_resources.size(), s.slice.size()) << s.id;
  }
  if (!s.setup_resources.empty()) {
    EXPECT_EQ(s.setup_resources.size(), s.setup.size()) << s.id;
  }
}

TEST_P(MetadataTest, FlagsAreCoherent) {
  BugScenario s = MakeScenario(GetParam());
  if (s.truth.loosely_correlated) {
    EXPECT_TRUE(s.truth.multi_variable) << s.id << ": loose correlation implies multi-variable";
    EXPECT_FALSE(s.truth.muvi_assumption_holds)
        << s.id << ": loose correlation breaks MUVI's assumption";
  }
  if (s.truth.single_variable_pattern) {
    EXPECT_FALSE(s.truth.multi_variable)
        << s.id << ": single-variable patterns cannot express multi-variable bugs";
  }
  EXPECT_NE(s.truth.failure_type, FailureType::kNone) << s.id;
}

TEST_P(MetadataTest, EveryProgramEndsInControlFlow) {
  BugScenario s = MakeScenario(GetParam());
  for (const Program& p : s.image->programs()) {
    ASSERT_GT(p.size(), 0) << s.id << " " << p.name;
    Op last = p.code.back().op;
    EXPECT_TRUE(last == Op::kExit || last == Op::kRet || last == Op::kJmp)
        << s.id << " " << p.name;
  }
}

std::vector<std::string> AllIds() {
  std::vector<std::string> ids;
  for (const ScenarioEntry& e : AllScenarios()) {
    ids.emplace_back(e.id);
  }
  return ids;
}

INSTANTIATE_TEST_SUITE_P(AllBugs, MetadataTest, ::testing::ValuesIn(AllIds()),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(RegistryTest, TablePopulationsMatchThePaper) {
  EXPECT_EQ(Table2Scenarios().size(), 10u);
  EXPECT_EQ(Table3Scenarios().size(), 12u);
  // 22 evaluated bugs + five abstract figures + the IRQ extension.
  EXPECT_EQ(AllScenarios().size(), 28u);
}

// A text left out of the CMake list would otherwise drop out silently.
TEST(RegistryTest, EveryCorpusFileIsRegistered) {
  size_t files = 0;
  for (const auto& file : std::filesystem::directory_iterator(AITIA_CORPUS_DIR)) {
    if (file.path().extension() != ".ait") {
      continue;
    }
    ++files;
    const std::string id = file.path().stem().string();
    SCOPED_TRACE(id);
    EXPECT_NE(FindScenario(id), nullptr);
    const std::span<const CorpusText> texts = CorpusTexts();
    const auto text = std::find_if(texts.begin(), texts.end(),
                                   [&](const CorpusText& t) { return t.id == id; });
    ASSERT_NE(text, texts.end());
    EXPECT_EQ(text->text, ReadFile(file.path()));
  }
  EXPECT_EQ(files, AllScenarios().size());
}

// MakeWorkload() adds the background daemon and its globals to the image it
// is called on; the next copy must still be the scenario its text describes.
TEST(RegistryTest, MadeCopiesDoNotShareTheImage) {
  const BugScenario first = MakeScenario("fig-1");
  first.MakeWorkload();
  EXPECT_NE(first.image->FindProgram("bg_stats_daemon"), kNoProgram);
  EXPECT_EQ(ScenarioToAit(MakeScenario("fig-1")),
            ReadFile(std::string(AITIA_GOLDEN_DIR) + "/corpus/fig-1.ait"));
}

TEST(RegistryTest, Table3SplitsMatchSection52) {
  int multi = 0;
  int loose = 0;
  int single_pattern = 0;
  int muvi = 0;
  for (const ScenarioEntry& e : Table3Scenarios()) {
    BugScenario s = e.make();
    multi += s.truth.multi_variable ? 1 : 0;
    loose += s.truth.loosely_correlated ? 1 : 0;
    single_pattern += s.truth.single_variable_pattern ? 1 : 0;
    muvi += s.truth.muvi_assumption_holds ? 1 : 0;
  }
  EXPECT_EQ(multi, 6) << "six of twelve bugs have multi-variable races (§5.2)";
  EXPECT_EQ(loose, 3) << "three involve loosely-correlated variables (§5.2)";
  EXPECT_EQ(single_pattern, 6) << "pattern localization covers the other half (§5.3)";
  EXPECT_EQ(muvi, 3) << "MUVI's assumption holds for three bugs (§5.3)";
}

TEST(RegistryTest, IdsAreUnique) {
  std::set<std::string> ids;
  for (const ScenarioEntry& e : AllScenarios()) {
    EXPECT_TRUE(ids.insert(e.id).second) << "duplicate id " << e.id;
  }
}

TEST(RegistryTest, MakeScenarioRoundTripsEveryId) {
  for (const ScenarioEntry& e : AllScenarios()) {
    BugScenario s = MakeScenario(e.id);
    EXPECT_EQ(s.id, e.id);
    EXPECT_NE(s.image, nullptr);
  }
}

}  // namespace
}  // namespace aitia
