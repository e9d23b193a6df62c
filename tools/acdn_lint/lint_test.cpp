// Rule-level coverage for acdn_lint: every rule has a must-fire and a
// must-pass fixture under testdata/, the NOLINT-ACDN escape hatch is
// exercised both ways (valid suppresses, invalid does not), path
// allowlists are pinned, and the real tree is scanned and must be clean.
#include "acdn_lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace acdn::lint {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(ACDN_LINT_TESTDATA) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<Finding> lint_fixture(const std::string& name,
                                  const std::string& label) {
  return lint_file(FileInput{label, read_fixture(name)});
}

int count_rule(const std::vector<Finding>& findings,
               const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

std::string dump(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) out += format(f) + "\n";
  return out;
}

struct RuleFixture {
  const char* rule;
  const char* stem;
};

constexpr RuleFixture kRuleFixtures[] = {
    {"unordered-iter", "unordered_iter"},
    {"unordered-decl", "unordered_decl"},
    {"raw-thread", "raw_thread"},
    {"banned-random", "banned_random"},
    {"wall-clock", "wall_clock"},
    {"parallel-fp-accum", "parallel_fp_accum"},
    {"failpoint", "failpoint"},
    {"unguarded-mutex", "unguarded_mutex"},
    {"unchecked-pack", "unchecked_pack"},
    {"raw-intrinsics", "raw_intrinsics"},
    // The pre-flat_group aggregation idiom: both hazards in one fixture,
    // with the sorted-vector rewrite as the sanctioned must-pass twin.
    {"unordered-iter", "flat_group"},
    {"parallel-fp-accum", "flat_group"},
    // The day-plan route-cache idiom: generation-tagged lookup-only maps,
    // with the justified NOLINT form as the sanctioned must-pass twin.
    {"unordered-decl", "route_cache"},
};

TEST(LintRules, EveryRuleHasAMustFireFixture) {
  for (const RuleFixture& rf : kRuleFixtures) {
    const auto findings =
        lint_fixture(std::string(rf.stem) + "_fire.cc", "src/sim/fixture.cpp");
    EXPECT_GE(count_rule(findings, rf.rule), 1)
        << rf.stem << "_fire.cc did not fire " << rf.rule << "\n"
        << dump(findings);
  }
}

TEST(LintRules, EveryRuleHasACleanMustPassFixture) {
  for (const RuleFixture& rf : kRuleFixtures) {
    const auto findings =
        lint_fixture(std::string(rf.stem) + "_pass.cc", "src/sim/fixture.cpp");
    EXPECT_TRUE(findings.empty())
        << rf.stem << "_pass.cc must be clean under every rule\n"
        << dump(findings);
  }
}

TEST(LintRules, NolintJustificationFixtures) {
  const auto fire = lint_fixture("nolint_justification_fire.cc",
                                 "src/sim/fixture.cpp");
  EXPECT_GE(count_rule(fire, "nolint-justification"), 2) << dump(fire);
  // A bare directive must not suppress the finding it sits on.
  EXPECT_GE(count_rule(fire, "raw-thread"), 1) << dump(fire);

  const auto pass = lint_fixture("nolint_justification_pass.cc",
                                 "src/sim/fixture.cpp");
  EXPECT_TRUE(pass.empty()) << dump(pass);
}

TEST(LintRules, UnorderedIterSeesPairedHeaderMembers) {
  const std::string header =
      "#include <unordered_map>\n"
      "struct S { std::unordered_map<int, int> by_metro_; };\n";
  const std::string source =
      "void S::dump(std::vector<int>* out) {\n"
      "  for (const auto& [m, v] : by_metro_) out->push_back(v);\n"
      "}\n";
  std::vector<std::string> member_names = unordered_names(header);
  ASSERT_EQ(member_names.size(), 1u);
  EXPECT_EQ(member_names[0], "by_metro_");
  const auto findings =
      lint_file(FileInput{"src/sim/s.cpp", source}, member_names);
  EXPECT_EQ(count_rule(findings, "unordered-iter"), 1) << dump(findings);
}

TEST(LintRules, PathAllowlists) {
  // The executor implements the pool: raw std::thread is its job.
  const auto exec = lint_file(
      FileInput{"src/common/executor.cpp", "std::thread t; t.join();\n"});
  EXPECT_EQ(count_rule(exec, "raw-thread"), 0) << dump(exec);

  // common/rng wraps std distributions behind portable helpers...
  const auto rng = lint_file(FileInput{
      "src/common/rng.h", "std::normal_distribution<double> d(0, 1);\n"});
  EXPECT_EQ(count_rule(rng, "banned-random"), 0) << dump(rng);

  // ...except poisson, which is banned everywhere (PR 1).
  const auto poisson = lint_file(FileInput{
      "src/common/rng.h", "std::poisson_distribution<int> p(4.0);\n"});
  EXPECT_EQ(count_rule(poisson, "banned-random"), 1) << dump(poisson);

  // The observability layer may time phases with steady_clock.
  const auto metrics = lint_file(FileInput{
      "src/common/metrics.h",
      "auto t0 = std::chrono::steady_clock::now();\n"});
  EXPECT_EQ(count_rule(metrics, "wall-clock"), 0) << dump(metrics);

  // The same line in simulation code fires.
  const auto sim = lint_file(FileInput{
      "src/sim/world.cpp",
      "auto t0 = std::chrono::steady_clock::now();\n"});
  EXPECT_EQ(count_rule(sim, "wall-clock"), 1) << dump(sim);

  // No path may spell vector intrinsics, the old kernels' home included.
  const auto intrin = lint_file(FileInput{
      "src/common/simd.cpp", "#include <immintrin.h>\n__m256i v;\n"});
  EXPECT_EQ(count_rule(intrin, "raw-intrinsics"), 2) << dump(intrin);
}

TEST(LintRules, CommentsAndStringsDoNotFire) {
  const std::string text =
      "// std::thread in prose, rand() too\n"
      "/* std::random_device */\n"
      "const char* kDoc = \"uses std::async and time(nullptr)\";\n";
  const auto findings = lint_file(FileInput{"src/sim/doc.cpp", text});
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(LintRules, DirectiveCoversOwnAndNextLine) {
  const std::string above =
      "// NOLINT-ACDN(raw-thread): stress fixture exercises the pool\n"
      "std::thread t;\n";
  EXPECT_TRUE(lint_file(FileInput{"tests/t.cpp", above}).empty());

  const std::string same_line =
      "std::thread t;  // NOLINT-ACDN(raw-thread): spawn-cost baseline\n";
  EXPECT_TRUE(lint_file(FileInput{"tests/t.cpp", same_line}).empty());

  const std::string too_far =
      "// NOLINT-ACDN(raw-thread): two lines above the use, out of scope\n"
      "\n"
      "std::thread t;\n";
  const auto findings = lint_file(FileInput{"tests/t.cpp", too_far});
  EXPECT_EQ(count_rule(findings, "raw-thread"), 1) << dump(findings);
}

TEST(LintRules, DirectivesInsideStringLiteralsAreInert) {
  // Regression: directives used to be parsed from the raw text, so a
  // NOLINT-ACDN spelled inside a string literal acted as a real
  // directive. Here the quoted directive's (line, line + 1) window
  // covers the std::thread — it must NOT suppress the finding.
  const std::string quoted =
      "const char* kDoc = \"NOLINT-ACDN(raw-thread): quoted, not real\";\n"
      "std::thread t;\n";
  const auto findings = lint_file(FileInput{"src/sim/doc.cpp", quoted});
  EXPECT_EQ(count_rule(findings, "raw-thread"), 1) << dump(findings);

  // ...and a directive-shaped fragment in a raw string literal (the
  // expected-output idiom in linter tests) must not fabricate a
  // nolint-justification finding for its unknown rule.
  const std::string raw =
      "const char* kExpected =\n"
      "    R\"(t.cc:1: NOLINT-ACDN(bogus-rule) names unknown rule)\";\n";
  const auto fabricated = lint_file(FileInput{"src/sim/golden.cpp", raw});
  EXPECT_TRUE(fabricated.empty()) << dump(fabricated);

  // Raw-string delimiters and embedded comment openers must not derail
  // the scanner: the directive after the literal is real and must still
  // suppress, and the // inside the raw string must not eat the line.
  const std::string mixed =
      "auto s = R\"json({\"note\": \"// NOLINT-ACDN(raw-thread): no\"})json\";\n"
      "// NOLINT-ACDN(raw-thread): real directive after a raw literal\n"
      "std::thread t;\n";
  const auto suppressed = lint_file(FileInput{"src/sim/mix.cpp", mixed});
  EXPECT_TRUE(suppressed.empty()) << dump(suppressed);
}

TEST(LintFormat, JsonIsStableAndEscaped) {
  const std::vector<Finding> findings = {
      {"src/a.cpp", 3, "raw-thread", "say \"no\" to \\ backslash"},
      {"src/b.cpp", 7, "wall-clock", "plain"},
  };
  EXPECT_EQ(format_json(findings),
            "[\n"
            "  {\"file\": \"src/a.cpp\", \"line\": 3, \"rule\": "
            "\"raw-thread\", \"message\": \"say \\\"no\\\" to \\\\ "
            "backslash\"},\n"
            "  {\"file\": \"src/b.cpp\", \"line\": 7, \"rule\": "
            "\"wall-clock\", \"message\": \"plain\"}\n"
            "]\n");
  EXPECT_EQ(format_json(std::vector<Finding>{}), "[]\n");
}

TEST(LintTree, RealTreeIsClean) {
  const auto findings = lint_tree(ACDN_LINT_SOURCE_ROOT);
  EXPECT_TRUE(findings.empty())
      << "new determinism hazards in the tree:\n"
      << dump(findings);
}

}  // namespace
}  // namespace acdn::lint
