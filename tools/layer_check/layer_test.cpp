// Rule-level coverage for layer_check: must-fire and must-pass edges
// against a small in-memory DAG, config validation (cycles, unknown
// deps), waiver use and staleness, comment-awareness of the include
// scanner, and the real tree, which must be clean.
#include "layer_check/layer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace acdn::layer {
namespace {

std::string dump(const std::vector<Violation>& violations) {
  std::string out;
  for (const Violation& v : violations) out += format(v) + "\n";
  return out;
}

int count_kind(const std::vector<Violation>& violations,
               const std::string& kind) {
  int n = 0;
  for (const Violation& v : violations) {
    if (v.kind == kind) ++n;
  }
  return n;
}

/// base <- mid <- top, with `top` also allowed to reach `base`
/// transitively.
LayerConfig tiny_config() {
  LayerConfig config;
  config.modules = {
      {"base", {}},
      {"mid", {"base"}},
      {"top", {"mid"}},
  };
  return config;
}

TEST(LayerCheck, DownwardAndTransitiveIncludesPass) {
  Checker checker(tiny_config());
  ASSERT_TRUE(checker.config_violations().empty())
      << dump(checker.config_violations());
  const auto violations = checker.check_file(
      "src/top/a.cpp",
      "#include \"top/a.h\"\n"
      "#include \"mid/b.h\"\n"
      "#include \"base/c.h\"\n"  // transitive: top -> mid -> base
      "#include <vector>\n"
      "#include \"same_dir_header.h\"\n");
  EXPECT_TRUE(violations.empty()) << dump(violations);
}

TEST(LayerCheck, UpwardIncludeFires) {
  Checker checker(tiny_config());
  const auto violations =
      checker.check_file("src/base/c.cpp", "#include \"top/a.h\"\n");
  ASSERT_EQ(violations.size(), 1u) << dump(violations);
  EXPECT_EQ(violations[0].kind, "undeclared-dependency");
  EXPECT_EQ(violations[0].line, 1);
  EXPECT_NE(violations[0].message.find("upward include"),
            std::string::npos)
      << violations[0].message;
}

TEST(LayerCheck, SidewaysUndeclaredEdgeFires) {
  LayerConfig config = tiny_config();
  config.modules.push_back({"side", {"base"}});
  Checker checker(std::move(config));
  // side and mid are siblings: neither layers above the other, so the
  // message suggests declaring the edge rather than inverting it.
  const auto violations =
      checker.check_file("src/side/s.cpp", "#include \"mid/b.h\"\n");
  ASSERT_EQ(violations.size(), 1u) << dump(violations);
  EXPECT_EQ(violations[0].kind, "undeclared-dependency");
  EXPECT_EQ(violations[0].message.find("upward include"),
            std::string::npos)
      << violations[0].message;
}

TEST(LayerCheck, UnknownModulesFire) {
  Checker checker(tiny_config());
  const auto bad_dir =
      checker.check_file("src/rogue/r.cpp", "#include \"base/c.h\"\n");
  EXPECT_EQ(count_kind(bad_dir, "unknown-module"), 1) << dump(bad_dir);

  const auto bad_include =
      checker.check_file("src/top/a.cpp", "#include \"nosuch/x.h\"\n");
  EXPECT_EQ(count_kind(bad_include, "unknown-module"), 1)
      << dump(bad_include);
}

TEST(LayerCheck, FilesOutsideTheLayersAreExempt) {
  Checker checker(tiny_config());
  EXPECT_TRUE(
      checker.check_file("tests/a_test.cpp", "#include \"top/a.h\"\n")
          .empty());
  // The umbrella header at the src root sits above every layer.
  EXPECT_TRUE(
      checker.check_file("src/acdn.h", "#include \"top/a.h\"\n").empty());
}

TEST(LayerCheck, WaiversAllowTheExactEdgeAndGoStaleOtherwise) {
  LayerConfig config = tiny_config();
  config.waivers = {
      {"base", "top/a.h", "test waiver"},
      {"base", "top/unused.h", "never matched"},
  };
  Checker checker(std::move(config));
  const auto violations =
      checker.check_file("src/base/c.cpp", "#include \"top/a.h\"\n");
  EXPECT_TRUE(violations.empty()) << dump(violations);

  const auto stale = checker.finish();
  ASSERT_EQ(stale.size(), 1u) << dump(stale);
  EXPECT_EQ(stale[0].kind, "stale-waiver");
  EXPECT_NE(stale[0].message.find("top/unused.h"), std::string::npos);
}

TEST(LayerCheck, ConfigCyclesAndUnknownDepsAreCaught) {
  LayerConfig cyclic;
  cyclic.modules = {{"a", {"b"}}, {"b", {"a"}}};
  Checker checker(std::move(cyclic));
  EXPECT_EQ(count_kind(checker.config_violations(), "config-cycle"), 1)
      << dump(checker.config_violations());

  LayerConfig dangling;
  dangling.modules = {{"a", {"ghost"}}};
  Checker dangling_checker(std::move(dangling));
  EXPECT_EQ(
      count_kind(dangling_checker.config_violations(), "config-cycle"), 1)
      << dump(dangling_checker.config_violations());
}

TEST(LayerCheck, IncludeScannerIsCommentAware) {
  const auto includes = quoted_includes(
      "// #include \"a/commented.h\"\n"
      "/* #include \"a/blocked.h\" */\n"
      "/*\n"
      "#include \"a/multiline.h\"\n"
      "*/\n"
      "#include \"a/real.h\"\n"
      "  #include \"b/indented.h\"\n"
      "#include <system_header>\n");
  ASSERT_EQ(includes.size(), 2u);
  EXPECT_EQ(includes[0].path, "a/real.h");
  EXPECT_EQ(includes[0].line, 6);
  EXPECT_EQ(includes[1].path, "b/indented.h");
  EXPECT_EQ(includes[1].line, 7);
}

TEST(LayerCheck, DefaultConfigIsValid) {
  Checker checker(default_config());
  EXPECT_TRUE(checker.config_violations().empty())
      << dump(checker.config_violations());
}

TEST(LayerCheck, BatchKernelHeadersFollowTheCommonEdges) {
  // The batch-kernel layer (common/radix.h) is a leaf of the DAG: every
  // pipeline layer that sorts keys with it reaches *down* to common,
  // which needs no new edges.
  Checker checker(default_config());
  ASSERT_TRUE(checker.config_violations().empty())
      << dump(checker.config_violations());
  const std::string kernels = "#include \"common/radix.h\"\n";
  for (const char* file :
       {"src/analysis/aggregate.cpp", "src/beacon/store.cpp",
        "src/beacon/beacon.cpp", "src/core/streaming.cpp"}) {
    const auto violations = checker.check_file(file, kernels);
    EXPECT_TRUE(violations.empty()) << file << "\n" << dump(violations);
  }
  // And the kernels cannot reach back up: common including geo would
  // invert the DAG.
  const auto upward = checker.check_file(
      "src/common/radix.h", "#include \"geo/geo_point.h\"\n");
  ASSERT_EQ(upward.size(), 1u) << dump(upward);
  EXPECT_EQ(upward[0].kind, "undeclared-dependency");
}

TEST(LayerTree, RealTreeIsClean) {
  const auto violations = check_tree(ACDN_LAYER_SOURCE_ROOT);
  EXPECT_TRUE(violations.empty())
      << "layering violations in the tree:\n"
      << dump(violations);
}

}  // namespace
}  // namespace acdn::layer
