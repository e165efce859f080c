#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include "fault/fault_injector.hpp"
#include "test_world.hpp"

/// Fault-plan input validation: every malformed input is rejected with a
/// clear, specific error — at construction where possible, at
/// schedule-time range checks otherwise — and a rejected plan schedules
/// nothing.
namespace et::test {
namespace {

using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::PartitionSpec;

bool mentions(const std::vector<std::string>& problems,
              const std::string& needle) {
  for (const std::string& problem : problems) {
    if (problem.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(FaultPlanValidate, CleanPlanHasNoProblems) {
  FaultPlan plan;
  plan.crash_for(Time::seconds(1), NodeId{3}, Duration::seconds(2))
      .radio_blackout(Time::seconds(2), NodeId{4}, Duration::seconds(1))
      .sensor_dropout(Time::seconds(3), NodeId{5}, Duration::millis(300));
  PartitionSpec spec;
  spec.components.push_back({NodeId{1}, NodeId{2}});
  plan.partition(Time::seconds(4), spec, Duration::seconds(1));
  EXPECT_TRUE(plan.construction_problems().empty());
  EXPECT_TRUE(plan.validate(24).empty());
  EXPECT_EQ(plan.events().size(), 8u);
}

TEST(FaultPlanValidate, NegativeTimeRejected) {
  FaultPlan plan;
  plan.crash(Time::seconds(-1), NodeId{2});
  EXPECT_TRUE(plan.events().empty()) << "the bogus event must not land";
  ASSERT_FALSE(plan.construction_problems().empty());
  EXPECT_TRUE(mentions(plan.construction_problems(), "must not be negative"));
}

TEST(FaultPlanValidate, InvertedAndZeroWindowsRejected) {
  FaultPlan plan;
  plan.radio_blackout(Time::seconds(1), NodeId{2}, Duration::seconds(-2));
  plan.sensor_dropout(Time::seconds(1), NodeId{2}, Duration::zero());
  plan.crash_for(Time::seconds(1), NodeId{2}, Duration::zero());
  PartitionSpec spec;
  spec.components.push_back({NodeId{1}});
  plan.partition(Time::seconds(1), spec, Duration::seconds(-1));
  plan.burst_partition(Time::seconds(1), spec, Duration::zero(),
                       Duration::seconds(1), 2);
  plan.burst_partition(Time::seconds(1), spec, Duration::seconds(1),
                       Duration::seconds(1), 0);
  EXPECT_TRUE(plan.events().empty());
  EXPECT_EQ(plan.construction_problems().size(), 6u);
  EXPECT_TRUE(mentions(plan.construction_problems(), "window must be"));
  EXPECT_TRUE(mentions(plan.construction_problems(), "downtime must be"));
  EXPECT_TRUE(mentions(plan.construction_problems(), "cycles >= 1"));
}

TEST(FaultPlanValidate, OutOfRangeVictimCaughtAtValidate) {
  FaultPlan plan;
  plan.crash(Time::seconds(1), NodeId{99});
  EXPECT_TRUE(plan.construction_problems().empty())
      << "range depends on the deployment, not the plan";
  const std::vector<std::string> problems = plan.validate(24);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems.front().find("out of range"), std::string::npos);
  EXPECT_TRUE(plan.validate(128).empty());
}

TEST(FaultPlanValidate, PartitionNamingMoteTwiceRejected) {
  FaultPlan plan;
  PartitionSpec spec;
  spec.components.push_back({NodeId{1}, NodeId{2}});
  spec.components.push_back({NodeId{2}, NodeId{3}});
  plan.partition_start(Time::seconds(1), spec);
  ASSERT_FALSE(plan.construction_problems().empty());
  EXPECT_TRUE(
      mentions(plan.construction_problems(), "more than one component"));
}

TEST(FaultPlanValidate, EmptyPartitionComponentRejected) {
  FaultPlan plan;
  PartitionSpec spec;
  spec.components.push_back({});
  plan.partition_start(Time::seconds(1), spec);
  EXPECT_TRUE(mentions(plan.construction_problems(), "is empty"));
}

TEST(FaultPlanValidate, PartitionMemberOutOfRangeCaughtAtValidate) {
  FaultPlan plan;
  PartitionSpec spec;
  spec.components.push_back({NodeId{500}});
  plan.partition(Time::seconds(1), spec, Duration::seconds(1));
  EXPECT_TRUE(plan.construction_problems().empty());
  EXPECT_TRUE(mentions(plan.validate(24), "out of range"));
}

TEST(FaultPlanValidate, RawPartitionStartWithoutSpecRejected) {
  FaultPlan plan;
  plan.add(Time::seconds(1), NodeId{}, FaultKind::kPartitionStart);
  EXPECT_TRUE(plan.events().empty());
  EXPECT_TRUE(mentions(plan.construction_problems(), "partition_start"));
}

TEST(FaultPlanValidate, InjectorRefusesInvalidPlanAndSchedulesNothing) {
  TestWorld world;
  FaultInjector injector(world.system());
  FaultPlan plan;
  plan.crash(Time::seconds(1), NodeId{0});     // fine
  plan.crash(Time::seconds(2), NodeId{999});   // out of range
  const Expected<std::size_t> result = injector.schedule(plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "invalid_fault_plan");
  EXPECT_NE(result.error().message.find("out of range"), std::string::npos);
  world.run(3);
  EXPECT_EQ(injector.stats().crashes, 0u)
      << "a rejected plan must schedule none of its events, not just the "
         "bad ones";
}

TEST(FaultPlanValidate, InjectorAcceptsValidPlan) {
  TestWorld world;
  FaultInjector injector(world.system());
  FaultPlan plan;
  plan.crash_for(Time::seconds(0.1), NodeId{1}, Duration::millis(200));
  const Expected<std::size_t> result = injector.schedule(plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 2u);
  world.run(1);
  EXPECT_EQ(injector.stats().crashes, 1u);
  EXPECT_EQ(injector.stats().reboots, 1u);
}

TEST(FaultPlanValidate, ZeroPeriodHarassmentRejected) {
  TestWorld world;
  FaultInjector injector(world.system());
  const Expected<std::size_t> zero_period =
      injector.harass_leaders(0, Duration::zero(), Duration::millis(100));
  ASSERT_FALSE(zero_period.ok());
  EXPECT_EQ(zero_period.error().code, "invalid_harassment");
  const Expected<std::size_t> zero_downtime =
      injector.harass_leaders(0, Duration::seconds(1), Duration::zero());
  EXPECT_FALSE(zero_downtime.ok());
}

TEST(FaultPlanValidate, JsonRoundTripIsExact) {
  FaultPlan plan;
  plan.crash_for(Time::micros(1234567), NodeId{3}, Duration::millis(500));
  plan.radio_blackout(Time::seconds(2), NodeId{7}, Duration::millis(250));
  PartitionSpec spec;
  spec.components.push_back({NodeId{0}, NodeId{4}});
  plan.burst_partition(Time::seconds(3), spec, Duration::millis(400),
                       Duration::millis(600), 2);

  const util::Json doc = plan.to_json();
  const Expected<FaultPlan> round = FaultPlan::from_json(doc);
  ASSERT_TRUE(round.ok());
  const FaultPlan& back = round.value();
  ASSERT_EQ(back.events().size(), plan.events().size());
  for (std::size_t i = 0; i < plan.events().size(); ++i) {
    EXPECT_EQ(back.events()[i].at, plan.events()[i].at);
    EXPECT_EQ(back.events()[i].kind, plan.events()[i].kind);
    EXPECT_EQ(back.events()[i].node.value(), plan.events()[i].node.value());
  }
  // Serialize -> parse -> serialize is byte-stable (replay artifacts diff
  // cleanly).
  EXPECT_EQ(back.to_json().dump(2), doc.dump(2));
}

TEST(FaultPlanValidate, FromJsonRejectsMalformedDocuments) {
  const auto reject = [](const char* text) {
    const Expected<util::Json> doc = util::parse_json(text);
    ASSERT_TRUE(doc.ok()) << text;
    const Expected<FaultPlan> plan = FaultPlan::from_json(doc.value());
    EXPECT_FALSE(plan.ok()) << text;
    if (!plan.ok()) {
      EXPECT_EQ(plan.error().code, "fault_plan_json");
    }
  };
  reject("[]");
  reject("{}");
  reject("{\"events\": [{\"kind\": \"crash\", \"node\": 1}]}");
  reject("{\"events\": [{\"at_us\": 1.5, \"kind\": \"crash\", \"node\": "
         "1}]}");
  reject("{\"events\": [{\"at_us\": 1, \"kind\": \"meteor\", \"node\": "
         "1}]}");
  reject("{\"events\": [{\"at_us\": 1, \"kind\": \"crash\", \"node\": "
         "-2}]}");
  reject("{\"events\": [{\"at_us\": 1, \"kind\": \"partition-start\", "
         "\"partition\": 0}]}");
}

}  // namespace
}  // namespace et::test
