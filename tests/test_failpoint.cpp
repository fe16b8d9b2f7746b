// The deterministic failpoint subsystem: schedule parsing (and its
// quotable rejections), spec matching (exact / from / always /
// seeded-random), keyed vs counter-driven evaluation, the zero-cost
// disarmed fast path, and the report used by chaos assertions.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "oregami/support/failpoint.hpp"

namespace oregami::failpoint {
namespace {

/// Every test arms its own schedule; tear down so no state leaks.
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { clear(); }
};

TEST_F(FailpointTest, DisarmedSitesAreSilent) {
  clear();
  EXPECT_FALSE(armed());
  EXPECT_EQ(evaluate("persist.write").action, Action::None);
  EXPECT_EQ(evaluate("persist.write", 7).action, Action::None);
  EXPECT_EQ(report(), "");
}

TEST_F(FailpointTest, ExactSpecFiresOnTheNthEvaluationOnly) {
  configure("persist.write:err@3");
  EXPECT_EQ(evaluate("persist.write").action, Action::None);  // #1
  EXPECT_EQ(evaluate("persist.write").action, Action::None);  // #2
  EXPECT_EQ(evaluate("persist.write").action, Action::Err);   // #3
  EXPECT_EQ(evaluate("persist.write").action, Action::None);  // #4
  EXPECT_EQ(report(), "persist.write:err@3 fired 1");
}

TEST_F(FailpointTest, FromSpecFiresFromTheNthEvaluationOnwards) {
  configure("persist.write:err@3+");
  EXPECT_EQ(evaluate("persist.write").action, Action::None);
  EXPECT_EQ(evaluate("persist.write").action, Action::None);
  EXPECT_EQ(evaluate("persist.write").action, Action::Err);
  EXPECT_EQ(evaluate("persist.write").action, Action::Err);
  EXPECT_EQ(report(), "persist.write:err@3+ fired 2");
}

TEST_F(FailpointTest, StarAndOmittedSpecsFireAlways) {
  configure("a.b:err@*,c.d:short");
  EXPECT_EQ(evaluate("a.b").action, Action::Err);
  EXPECT_EQ(evaluate("a.b").action, Action::Err);
  EXPECT_EQ(evaluate("c.d").action, Action::Short);
}

TEST_F(FailpointTest, ExplicitKeysDecoupleFiringFromEvaluationOrder) {
  configure("job.run:throw@7");
  // Evaluation order is 5, 7, 6 -- only the key-7 evaluation fires,
  // exactly what makes chaos runs worker-count independent.
  EXPECT_EQ(evaluate("job.run", 5).action, Action::None);
  EXPECT_EQ(evaluate("job.run", 7).action, Action::Throw);
  EXPECT_EQ(evaluate("job.run", 6).action, Action::None);
  EXPECT_EQ(report(), "job.run:throw@7 fired 1");
}

TEST_F(FailpointTest, HangCarriesItsArgumentAndDefaults) {
  configure("job.run:hang(250)@1,slow.site:hang@1");
  EXPECT_EQ(evaluate("job.run", 1).action, Action::Hang);
  configure("job.run:hang(250)@1");
  const Hit hit = evaluate("job.run", 1);
  EXPECT_EQ(hit.action, Action::Hang);
  EXPECT_EQ(hit.arg, 250);
  configure("job.run:hang@1");
  EXPECT_EQ(evaluate("job.run", 1).arg, 100);  // default hang ms
}

TEST_F(FailpointTest, RandomSpecIsDeterministicPerSeedAndKey) {
  configure("persist.write:err@p50s42");
  std::vector<bool> first;
  for (int key = 1; key <= 64; ++key) {
    first.push_back(evaluate("persist.write", key).action == Action::Err);
  }
  // Same seed, same keys: bit-identical decisions on replay.
  configure("persist.write:err@p50s42");
  for (int key = 1; key <= 64; ++key) {
    EXPECT_EQ(evaluate("persist.write", key).action == Action::Err,
              first[static_cast<std::size_t>(key - 1)])
        << "key " << key;
  }
  // ~50% should fire; with 64 keys even a loose band proves the
  // distribution is neither all-on nor all-off.
  const int fired = static_cast<int>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fired, 16);
  EXPECT_LT(fired, 48);
  // p0 never fires, p100 always fires.
  configure("x.y:err@p0s1");
  EXPECT_EQ(evaluate("x.y", 1).action, Action::None);
  configure("x.y:err@p100s1");
  EXPECT_EQ(evaluate("x.y", 1).action, Action::Err);
}

TEST_F(FailpointTest, FirstMatchingClauseWins) {
  configure("s.x:err@2,s.x:short");
  EXPECT_EQ(evaluate("s.x").action, Action::Short);  // #1: only clause 2
  EXPECT_EQ(evaluate("s.x").action, Action::Err);    // #2: clause 1 first
  EXPECT_EQ(evaluate("s.x").action, Action::Short);  // #3
}

TEST_F(FailpointTest, ReportRendersDeterministicFireCounts) {
  configure("a.b:err@1,c.d:hang(5)@9");
  (void)evaluate("a.b");
  (void)evaluate("a.b");
  EXPECT_EQ(report(), "a.b:err@1 fired 1; c.d:hang(5)@9 fired 0");
}

TEST_F(FailpointTest, ConfigureReplacesThePreviousSchedule) {
  configure("a.b:err");
  EXPECT_EQ(evaluate("a.b").action, Action::Err);
  configure("c.d:short");
  EXPECT_EQ(evaluate("a.b").action, Action::None);
  EXPECT_EQ(evaluate("c.d").action, Action::Short);
  // Counters restart with the new schedule: a.b's next evaluation is #1
  // again.
  configure("a.b:err@1");
  EXPECT_EQ(evaluate("a.b").action, Action::Err);
}

void expect_bad_schedule(const std::string& schedule,
                         const std::string& needle) {
  try {
    configure(schedule);
    FAIL() << "expected std::invalid_argument for: " << schedule;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "expected \"" << needle << "\" in: " << e.what();
  }
}

TEST_F(FailpointTest, BadSchedulesAreRejectedWithQuotableMessages) {
  expect_bad_schedule("", "empty clause");
  expect_bad_schedule("siteonly", "needs the form");
  expect_bad_schedule(":err", "needs the form");
  expect_bad_schedule("a.b:frobnicate", "unknown action");
  expect_bad_schedule("a.b:err@x", "bad index");
  expect_bad_schedule("a.b:err@-1", "bad index");
  expect_bad_schedule("a.b:err@p5", "pPCTsSEED");
  expect_bad_schedule("a.b:err@p200s1", "probability must be 0..100");
  expect_bad_schedule("a.b:err(3)", "does not take an argument");
  expect_bad_schedule("a.b:hang(", "unbalanced");
  expect_bad_schedule("a b:err", "invalid characters");
  expect_bad_schedule("a.b:err,,c.d:err", "empty clause");
  // A rejected schedule must not arm anything.
  EXPECT_FALSE(armed());
}

TEST_F(FailpointTest, ClearDisarmsEverything) {
  configure("a.b:err");
  EXPECT_TRUE(armed());
  clear();
  EXPECT_FALSE(armed());
  EXPECT_EQ(evaluate("a.b").action, Action::None);
  EXPECT_EQ(report(), "");
}

}  // namespace
}  // namespace oregami::failpoint
