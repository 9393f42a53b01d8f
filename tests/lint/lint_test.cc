// End-to-end tests for the veritas-lint binary: the real tree must be
// clean, each bad fixture must trip exactly the check it was built for,
// and the clean fixture must pass all three checks at once.
//
// The test shells out to the binary (paths injected by CMake as
// VERITAS_LINT_BINARY / VERITAS_LINT_FIXTURES / VERITAS_LINT_REPO) and
// asserts on exit status plus stdout substrings, so it exercises the CLI
// exactly the way scripts/lint.sh and CI do.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <sys/wait.h>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult RunLint(const std::string& args) {
  const std::string command =
      std::string(VERITAS_LINT_BINARY) + " " + args + " 2>&1";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << command;
    return result;
  }
  char buffer[4096];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  }
  return result;
}

std::string Fixture(const std::string& name) {
  return std::string(VERITAS_LINT_FIXTURES) + "/" + name;
}

TEST(LintTest, RealTreeIsClean) {
  const RunResult r = RunLint("--repo " + std::string(VERITAS_LINT_REPO));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("clean"), std::string::npos) << r.output;
}

TEST(LintTest, FlagsDroppedField) {
  const RunResult r = RunLint(
      "--repo " + Fixture("dropped_field") +
      " --check field-coverage --wire-header wire.h --codec codec.cc"
      " --schema-dir .");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("DemoOptions::delta"), std::string::npos)
      << r.output;
  // The one field list drives every archive, so the finding names every
  // path that loses the member: codec encode, codec decode, checkpoint
  // write, checkpoint read.
  EXPECT_NE(r.output.find("encode"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("decode"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("checkpoint"), std::string::npos) << r.output;
  // Covered members stay silent.
  EXPECT_EQ(r.output.find("DemoOptions::gamma"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("DemoMessage::alpha"), std::string::npos)
      << r.output;
}

// A member dropped from its own visitor is flagged even when another struct
// visits a member of the same name (GibbsOptions::num_threads used to mask
// a drop of GuidanceConfig::num_threads).
TEST(LintTest, FlagsDropMaskedBySameNamedMember) {
  const RunResult r = RunLint(
      "--repo " + Fixture("masked_member") +
      " --check field-coverage --wire-header wire.h --codec codec.cc"
      " --schema-dir .");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("GuidanceConfig::num_threads"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("GibbsOptions::num_threads"), std::string::npos)
      << r.output;
}

// A struct is tracked because it has a visitor, not because a list names
// it (TerminationOptions was on no list, so its drops went unseen).
TEST(LintTest, FlagsDropInStructNamedByNoList) {
  const RunResult r = RunLint(
      "--repo " + Fixture("unlisted_struct") +
      " --check field-coverage --wire-header wire.h --codec codec.cc"
      " --schema-dir .");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("TerminationOptions::pir_patience"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("TerminationOptions::pir_interval"),
            std::string::npos)
      << r.output;
}

TEST(LintTest, FlagsUnannotatedRandomDevice) {
  const RunResult r = RunLint("--repo " + Fixture("unannotated_random") +
                              " --check determinism --determinism-dir .");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("random_device"), std::string::npos) << r.output;
}

TEST(LintTest, FlagsHashOrderEmissionAndBareClock) {
  const RunResult r = RunLint("--repo " + Fixture("unannotated_random") +
                              " --check determinism --determinism-dir .");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("hash_emit.cc"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("unordered"), std::string::npos) << r.output;
  // timed.cc: the un-annotated clock in Bad() fires; the annotated one in
  // Good() must not.
  EXPECT_NE(r.output.find("timed.cc:7"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("timed.cc:12"), std::string::npos) << r.output;
}

TEST(LintTest, FlagsEnumWithoutRejection) {
  const RunResult r = RunLint("--repo " + Fixture("enum_no_reject") +
                              " --check wire-compat --codec codec.cc"
                              " --checkpoint checkpoint.cc --enum-dir .");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // ParseColor accepts unknown names silently.
  EXPECT_NE(r.output.find("ParseColor"), std::string::npos) << r.output;
  // The "color" key is encoded by name but never decoded through GetEnum.
  EXPECT_NE(r.output.find("\"color\""), std::string::npos) << r.output;
  // DecodeThing casts a raw integer to Color without a range check.
  EXPECT_NE(r.output.find("DecodeThing"), std::string::npos) << r.output;
}

TEST(LintTest, CleanFixturePasses) {
  const RunResult r = RunLint(
      "--repo " + Fixture("clean") +
      " --wire-header wire.h --codec codec.cc --checkpoint checkpoint.cc"
      " --schema-dir . --determinism-dir det --enum-dir .");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

}  // namespace
