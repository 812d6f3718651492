// The shared bench command line: every flag the benches document parses,
// and a mistyped flag, a malformed number or an unknown value fails
// loudly instead of running the bench at the wrong scale or settings.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace onepass::bench {
namespace {

// Parses `args` (argv[0] is supplied) into a default Flags.
Status Parse(const std::vector<std::string>& args, Flags* flags) {
  std::vector<const char*> argv = {"bench"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return ParseFlagsInto(static_cast<int>(argv.size()), argv.data(), flags);
}

Status Parse(const std::vector<std::string>& args) {
  Flags flags;
  return Parse(args, &flags);
}

TEST(BenchFlagsTest, NoFlagsKeepsDefaults) {
  Flags flags;
  ASSERT_TRUE(Parse({}, &flags).ok());
  EXPECT_EQ(flags.scale, 1.0);
  EXPECT_EQ(flags.threads, 0);
  EXPECT_EQ(flags.iterations, 5);
  EXPECT_EQ(flags.codec, "none");
  EXPECT_EQ(flags.simd, "auto");
  EXPECT_EQ(flags.shuffle_mode, "disk");
  EXPECT_EQ(flags.combine_scope, "task");
}

TEST(BenchFlagsTest, EveryKnownFlagParses) {
  Flags flags;
  const Status s =
      Parse({"--scale=0.25", "--threads=4", "--codec=lz", "--simd=scalar",
             "--iterations=3", "--shuffle_mode=resident",
             "--combine_scope=node", "--node_combine_budget=8192", "--ssd",
             "--hop", "--util", "--plot", "a"},
            &flags);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(flags.scale, 0.25);
  EXPECT_EQ(flags.threads, 4);
  EXPECT_EQ(flags.codec, "lz");
  EXPECT_EQ(flags.simd, "scalar");
  EXPECT_EQ(flags.iterations, 3);
  EXPECT_EQ(flags.shuffle_mode, "resident");
  EXPECT_EQ(flags.combine_scope, "node");
  EXPECT_EQ(flags.node_combine_budget, 8192u);
  EXPECT_TRUE(flags.ssd);
  EXPECT_TRUE(flags.hop);
  EXPECT_TRUE(flags.util);
  EXPECT_EQ(flags.plot, "a");
  ASSERT_TRUE(Parse({"--plot=b"}, &flags).ok());
  EXPECT_EQ(flags.plot, "b");
}

TEST(BenchFlagsTest, RejectsUnknownFlags) {
  EXPECT_EQ(Parse({"--scael=0.01"}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse({"--fast"}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse({"--ssd=1"}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse({"scale=1"}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse({"--plot"}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse({"--batch_size=64"}).code(), StatusCode::kInvalidArgument);
}

TEST(BenchFlagsTest, RejectsNumbersThatDoNotParseCompletely) {
  for (const char* arg :
       {"--scale=abc", "--scale=", "--scale=0.5x", "--scale=1 ",
        "--threads=4x", "--threads=2.5", "--node_combine_budget=-5",
        "--iterations=", "--node_combine_budget=1e3",
        "--threads=99999999999"}) {
    EXPECT_EQ(Parse({arg}).code(), StatusCode::kInvalidArgument) << arg;
  }
}

TEST(BenchFlagsTest, RejectsOutOfRangeScaleAndThreads) {
  // A chain of fewer than 2 stages has no warm iteration to measure.
  for (const char* arg : {"--scale=0", "--scale=-1", "--scale=nan",
                          "--scale=inf", "--threads=-1", "--iterations=1",
                          "--iterations=0", "--iterations=-3"}) {
    EXPECT_EQ(Parse({arg}).code(), StatusCode::kInvalidArgument) << arg;
  }
  EXPECT_TRUE(Parse({"--threads=0"}).ok());
  EXPECT_TRUE(Parse({"--scale=1e-3"}).ok());
  EXPECT_TRUE(Parse({"--iterations=2"}).ok());
}

TEST(BenchFlagsTest, RejectsUnknownValues) {
  for (const char* arg : {"--codec=zstd", "--codec=", "--simd=avx2",
                          "--shuffle_mode=memory", "--combine_scope=rack"}) {
    EXPECT_EQ(Parse({arg}).code(), StatusCode::kInvalidArgument) << arg;
  }
}

TEST(BenchFlagsDeathTest, BadCommandLineExitsWithUsage) {
  std::string prog = "bench_x";
  std::string bad = "--scale=abc";
  char* argv[] = {prog.data(), bad.data(), nullptr};
  EXPECT_EXIT(ParseFlags(2, argv), ::testing::ExitedWithCode(2),
              "not a number: --scale=abc\nusage: bench_x \\[--scale=F\\]");
}

}  // namespace
}  // namespace onepass::bench
