// Tests for the command-line helpers (src/common/flags.h and
// bench/bench_util.h): strict integer and `--jobs` parsing, and the
// unknown-flag check every bench and tool main runs first. Nothing here
// starts a worker thread; the exit paths run in death tests.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace snic::bench {
namespace {

// argv for `args`, with a program name in front.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    args_.insert(args_.begin(), "bench");
    for (std::string& arg : args_) {
      pointers_.push_back(arg.data());
    }
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> pointers_;
};

TEST(ParseU64Test, AcceptsWholeDecimalStrings) {
  EXPECT_EQ(ParseU64("0"), 0u);
  EXPECT_EQ(ParseU64("2"), 2u);
  EXPECT_EQ(ParseU64("97325601"), 97325601u);
  EXPECT_EQ(ParseU64("007"), 7u);
  EXPECT_EQ(ParseU64("18446744073709551615"), ~uint64_t{0});
}

TEST(ParseU64Test, RejectsEverythingElse) {
  for (const char* value :
       {"", "abc", "4x", "x4", "-1", "+4", " 4", "4 ", "0x10", "2.5", "1e3",
        "18446744073709551616", "99999999999999999999999"}) {
    EXPECT_FALSE(ParseU64(value).has_value()) << '"' << value << '"';
  }
}

TEST(U64FlagTest, ReadsTheFlagOrFallsBack) {
  Argv seed({"--quick", "--seed=42"});
  EXPECT_EQ(U64Flag(seed.argc(), seed.argv(), "--seed", 7), 42u);
  Argv none({"--quick", "--seeds=42"});
  EXPECT_EQ(U64Flag(none.argc(), none.argv(), "--seed", 7), 7u);
}

TEST(U64FlagDeathTest, InvalidValueExitsTwo) {
  for (const char* flag : {"--seed=abc", "--seed=", "--seed=-1",
                           "--seed=18446744073709551616"}) {
    Argv args({flag});
    EXPECT_EXIT(U64Flag(args.argc(), args.argv(), "--seed", 7),
                ::testing::ExitedWithCode(2),
                "expected an unsigned decimal integer")
        << flag;
  }
}

TEST(ParseJobsTest, AcceptsIntegersFromOneToTheCap) {
  EXPECT_EQ(ParseJobs("1"), 1u);
  EXPECT_EQ(ParseJobs("8"), 8u);
  EXPECT_EQ(ParseJobs("256"), kMaxJobs);
}

TEST(ParseJobsTest, RejectsEverythingElse) {
  for (const char* value :
       {"", "0", "257", "100000", "99999999999999999999999", "abc", "4x",
        "-1", "+4", " 4", "4 ", "0x10", "2.5"}) {
    EXPECT_FALSE(ParseJobs(value).has_value()) << '"' << value << '"';
  }
}

TEST(JobsFlagTest, ReadsTheFlagOrDefaultsToTheHardware) {
  Argv jobs({"--quick", "--jobs=3"});
  EXPECT_EQ(JobsFlag(jobs.argc(), jobs.argv()), 3u);
  Argv none({"--quick"});
  EXPECT_EQ(JobsFlag(none.argc(), none.argv()),
            runtime::HardwareConcurrency());
}

TEST(JobsFlagDeathTest, InvalidValueExitsTwo) {
  for (const char* flag : {"--jobs=abc", "--jobs=0", "--jobs=100000",
                           "--jobs="}) {
    Argv args({flag});
    EXPECT_EXIT(JobsFlag(args.argc(), args.argv()),
                ::testing::ExitedWithCode(2), "expected an integer from 1")
        << flag;
  }
}

TEST(RequireKnownFlagsTest, AcceptsListedFlagsAndOperands) {
  Argv args({"--quick", "--jobs=4", "--out=x.json"});
  RequireKnownFlags(args.argc(), args.argv(), {"--quick", "--jobs=", "--out="});
  Argv operand({"metrics.json", "--all"});
  RequireKnownFlags(operand.argc(), operand.argv(), {"--all"},
                    "<metrics.json>");
}

TEST(RequireKnownFlagsDeathTest, UnknownArgumentPrintsUsageAndExitsTwo) {
  Argv help({"--help"});
  EXPECT_EXIT(RequireKnownFlags(help.argc(), help.argv(), {"--quick"}),
              ::testing::ExitedWithCode(2),
              "unknown argument '--help'\nusage: bench \\[--quick\\]");
  // A value flag needs its '=': the bare name is not the flag.
  Argv bare({"--jobs"});
  EXPECT_EXIT(RequireKnownFlags(bare.argc(), bare.argv(), {"--jobs="}),
              ::testing::ExitedWithCode(2), "unknown argument '--jobs'");
  // Without an operand, a positional argument is unknown too.
  Argv positional({"extra"});
  EXPECT_EXIT(RequireKnownFlags(positional.argc(), positional.argv(), {}),
              ::testing::ExitedWithCode(2), "unknown argument 'extra'");
}

}  // namespace
}  // namespace snic::bench
