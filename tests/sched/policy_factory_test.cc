#include "sched/policy_factory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace webtx {
namespace {

TEST(PolicyFactoryTest, CreatesEveryKnownPolicy) {
  for (const std::string& name : KnownPolicyNames()) {
    auto policy = CreatePolicy(name);
    ASSERT_TRUE(policy.ok()) << name << ": " << policy.status();
    EXPECT_EQ(policy.ValueOrDie()->name(), name);
  }
}

TEST(PolicyFactoryTest, KnownNamesListIsComplete) {
  const auto names = KnownPolicyNames();
  EXPECT_EQ(names.size(), 9u);
  for (const char* expected :
       {"FCFS", "EDF", "SRPT", "LS", "HDF", "HVF", "ASETS", "Ready",
        "ASETS*"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(PolicyFactoryTest, MixVariants) {
  auto bare = CreatePolicy("MIX");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.ValueOrDie()->name(), "MIX(0.5)");

  auto parameterized = CreatePolicy("MIX(0.25)");
  ASSERT_TRUE(parameterized.ok()) << parameterized.status();
  EXPECT_EQ(parameterized.ValueOrDie()->name(), "MIX(0.25)");

  EXPECT_FALSE(CreatePolicy("MIX(1.5)").ok());
  EXPECT_FALSE(CreatePolicy("MIX(-0.1)").ok());
  EXPECT_FALSE(CreatePolicy("MIX(abc)").ok());
  // NaN passes an ordered "< 0 || > 1" test; MixPolicy would abort on it.
  for (const char* spec : {"MIX(nan)", "MIX(-nan)"}) {
    EXPECT_EQ(CreatePolicy(spec).status().code(), StatusCode::kInvalidArgument)
        << spec;
  }
}

TEST(PolicyFactoryTest, UnknownNameFails) {
  auto policy = CreatePolicy("RoundRobin");
  ASSERT_FALSE(policy.ok());
  EXPECT_EQ(policy.status().code(), StatusCode::kNotFound);
}

TEST(PolicyFactoryTest, BalanceAwareTimeBased) {
  auto policy = CreatePolicy("ASETS*-BA(time=0.005)");
  ASSERT_TRUE(policy.ok()) << policy.status();
  EXPECT_EQ(policy.ValueOrDie()->name(), "ASETS*-BA");
}

TEST(PolicyFactoryTest, BalanceAwareCountBased) {
  auto policy = CreatePolicy("ASETS-BA(count=0.05)");
  ASSERT_TRUE(policy.ok()) << policy.status();
  EXPECT_EQ(policy.ValueOrDie()->name(), "ASETS-BA");
}

TEST(PolicyFactoryTest, BalanceAwareAroundBaseline) {
  auto policy = CreatePolicy("EDF-BA(time=0.01)");
  ASSERT_TRUE(policy.ok()) << policy.status();
  EXPECT_EQ(policy.ValueOrDie()->name(), "EDF-BA");
}

TEST(PolicyFactoryTest, MalformedBalanceAwareSpecs) {
  EXPECT_FALSE(CreatePolicy("ASETS*-BA(time=0.005").ok());   // no ')'
  EXPECT_FALSE(CreatePolicy("ASETS*-BA(time)").ok());        // no '='
  EXPECT_FALSE(CreatePolicy("ASETS*-BA(weekly=0.1)").ok());  // bad mode
  EXPECT_FALSE(CreatePolicy("ASETS*-BA(time=abc)").ok());    // bad rate
  EXPECT_FALSE(CreatePolicy("ASETS*-BA(time=0)").ok());      // zero rate
  EXPECT_FALSE(CreatePolicy("ASETS*-BA(time=-1)").ok());     // negative
  EXPECT_FALSE(CreatePolicy("Nope-BA(time=0.01)").ok());     // bad inner
  // NaN passes an ordered "<= 0" test; BalanceAwarePolicy would abort
  // on it.
  for (const char* spec :
       {"EDF-BA(time=nan)", "EDF-BA(count=nan)", "ASETS*-BA(time=-nan)"}) {
    EXPECT_EQ(CreatePolicy(spec).status().code(), StatusCode::kInvalidArgument)
        << spec;
  }
  // An infinite rate means "activate at every point" and stays legal.
  EXPECT_TRUE(CreatePolicy("EDF-BA(time=inf)").ok());
  EXPECT_TRUE(CreatePolicy("ASETS-BA(count=inf)").ok());
}

// "<base>-sharded" is a no-op suffix: it builds the base policy itself,
// for the six single-queue policies and ASETS* only, and no policy has
// sharded state. The ShardedPolicyStateTest names date from when the
// suffix built a variant with per-server ownership.
TEST(ShardedPolicyStateTest, FactoryCreatesShardedVariants) {
  for (const char* base :
       {"FCFS", "EDF", "SRPT", "LS", "HDF", "HVF", "ASETS*"}) {
    const std::string spec = std::string(base) + "-sharded";
    auto policy = CreatePolicy(spec);
    ASSERT_TRUE(policy.ok()) << spec << ": " << policy.status();
    EXPECT_EQ(policy.ValueOrDie()->name(), base);
    EXPECT_EQ(policy.ValueOrDie()->AsShardedState(), nullptr) << spec;
  }
}

TEST(ShardedPolicyStateTest, PlainPoliciesHaveNoShardedState) {
  for (const char* base : {"FCFS", "SRPT", "ASETS*", "ASETS", "Ready"}) {
    auto policy = CreatePolicy(base);
    ASSERT_TRUE(policy.ok()) << base << ": " << policy.status();
    EXPECT_EQ(policy.ValueOrDie()->AsShardedState(), nullptr) << base;
  }
}

TEST(ShardedPolicyStateTest, UnsupportedBasesAreNotFound) {
  for (const char* spec :
       {"ASETS-sharded", "Ready-sharded", "MIX-sharded", "MIX(0.25)-sharded",
        "ASETS*-BA(time=0.01)-sharded", "Nope-sharded", "ASETS*-lazy",
        "ASETS*-lazy-sharded"}) {
    auto policy = CreatePolicy(spec);
    ASSERT_FALSE(policy.ok()) << spec;
    EXPECT_EQ(policy.status().code(), StatusCode::kNotFound) << spec;
  }
}

TEST(PolicyFactoryTest, EmptySpecFails) {
  EXPECT_FALSE(CreatePolicy("").ok());
}

}  // namespace
}  // namespace webtx
