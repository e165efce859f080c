#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/system.hpp"
#include "test_world.hpp"

/// EnviroTrackSystem facade and SenseRegistry builder tests.
namespace et::test {
namespace {

TEST(SenseRegistry, TargetBuilder) {
  TestWorld world;
  world.add_blob({2.0, 1.0});
  auto predicate = core::sense_target("blob");
  EXPECT_TRUE(predicate(world.system().network().mote(NodeId{2})));
  EXPECT_FALSE(predicate(
      world.system().network().mote(NodeId{world.system().node_count() - 1})));
}

TEST(SenseRegistry, ThresholdBuilder) {
  TestWorld world;
  world.add_blob({2.0, 1.0});  // magnetic emission 10
  auto hot = core::sense_threshold("magnetic", 5.0);
  auto impossible = core::sense_threshold("magnetic", 1e9);
  // Mote 10 sits at (2, 1): on top of the blob.
  auto& near = world.system().network().mote(world.field().nearest({2, 1}));
  EXPECT_TRUE(hot(near));
  EXPECT_FALSE(impossible(near));
}

TEST(SenseRegistry, AndBuilder) {
  TestWorld world;
  world.add_blob({2.0, 1.0});
  auto both = core::sense_and(core::sense_target("blob"),
                              core::sense_threshold("magnetic", 5.0));
  auto contradictory = core::sense_and(
      core::sense_target("blob"), core::sense_threshold("magnetic", 1e9));
  auto& near = world.system().network().mote(world.field().nearest({2, 1}));
  EXPECT_TRUE(both(near));
  EXPECT_FALSE(contradictory(near));
}

TEST(SenseRegistry, OrAndNotBuilders) {
  TestWorld world;
  world.add_blob({2.0, 1.0});
  auto& near = world.system().network().mote(world.field().nearest({2, 1}));
  auto& far = world.system().network().mote(
      NodeId{world.system().node_count() - 1});

  auto either = core::sense_or(core::sense_target("blob"),
                               core::sense_threshold("magnetic", 1e9));
  EXPECT_TRUE(either(near));
  EXPECT_FALSE(either(far));

  auto inverted = core::sense_not(core::sense_target("blob"));
  EXPECT_FALSE(inverted(near));
  EXPECT_TRUE(inverted(far));
}

TEST(SenseRegistry, ContainsAndReplace) {
  core::SenseRegistry registry;
  EXPECT_FALSE(registry.contains("x"));
  registry.add("x", [](const node::Mote&) { return false; });
  EXPECT_TRUE(registry.contains("x"));
  registry.add("x", [](const node::Mote&) { return true; });  // replace
  EXPECT_TRUE(registry.contains("x"));
}

TEST(SystemFacade, ConfigIsPlumbedThrough) {
  sim::Simulator sim(1);
  env::Environment environment(sim.make_rng("env"));
  const env::Field field = env::Field::grid(2, 3);
  core::SystemConfig config;
  config.radio.comm_radius = 2.5;
  config.radio.bitrate_bps = 19'200.0;
  core::EnviroTrackSystem system(sim, environment, field, config);
  EXPECT_DOUBLE_EQ(system.config().radio.comm_radius, 2.5);
  EXPECT_DOUBLE_EQ(system.medium().config().bitrate_bps, 19'200.0);
  EXPECT_EQ(system.node_count(), 6u);
  EXPECT_FALSE(system.started());
  system.start();
  EXPECT_TRUE(system.started());
}

TEST(SystemFacade, TypeIndicesAreDense) {
  sim::Simulator sim(1);
  env::Environment environment(sim.make_rng("env"));
  const env::Field field = env::Field::grid(2, 3);
  core::EnviroTrackSystem system(sim, environment, field);
  system.senses().add("a", [](const node::Mote&) { return false; });

  core::ContextTypeSpec first;
  first.name = "one";
  first.activation = "a";
  core::ContextTypeSpec second;
  second.name = "two";
  second.activation = "a";
  EXPECT_EQ(system.add_context_type(std::move(first)), 0);
  EXPECT_EQ(system.add_context_type(std::move(second)), 1);
  EXPECT_EQ(system.specs().size(), 2u);
  system.start();
  EXPECT_EQ(system.stack(NodeId{0}).groups().type_count(), 2u);
}

TEST(SystemFacade, ObserversSeeEventsFromEveryMote) {
  TestWorld world;  // already attaches one EventLog through its own path
  metrics::EventLog second_log;
  world.system().add_group_observer(&second_log);
  world.add_blob({3.5, 1.0});
  world.run(5);
  EXPECT_GT(second_log.total(), 0u);
  EXPECT_EQ(second_log.total(), world.events().total());
}

/// A blob crossing the default world, with a second group observer
/// attached or not: the events fired, and what each observer saw.
struct ObservedRun {
  std::size_t events_fired = 0;
  std::vector<std::string> first;
  std::vector<std::string> second;
};

std::vector<std::string> lines_of(const metrics::EventLog& log) {
  std::vector<std::string> out;
  for (const core::GroupEvent& event : log.events()) {
    out.push_back(event.to_string());
  }
  return out;
}

ObservedRun observed_run(const sim::KernelConfig& kernel,
                         bool second_observer) {
  TestWorld::Options options;
  options.kernel = kernel;
  TestWorld world(options);  // attaches the first observer
  metrics::EventLog second;
  if (second_observer) world.system().add_group_observer(&second);
  world.add_moving_blob({0.0, 1.0}, {7.0, 1.0}, 1.0);
  ObservedRun run;
  run.events_fired = world.system().run_for(Duration::seconds(8));
  run.first = lines_of(world.events());
  run.second = lines_of(second);
  return run;
}

/// Each group event is journaled as one op whatever the number of
/// observers, so a second observer adds no simulated event, and both see
/// the same events in the same order.
void expect_second_observer_is_free(const sim::KernelConfig& kernel) {
  const ObservedRun one = observed_run(kernel, false);
  const ObservedRun two = observed_run(kernel, true);
  ASSERT_FALSE(one.first.empty());
  EXPECT_EQ(two.events_fired, one.events_fired);
  EXPECT_EQ(two.first, one.first);
  EXPECT_EQ(two.second, two.first);
}

TEST(SystemFacade, SecondGroupObserverAddsNoEvent) {
  expect_second_observer_is_free(sim::KernelConfig{});
}

TEST(SystemFacade, SecondGroupObserverAddsNoEventOnParallelKernel) {
  sim::KernelConfig kernel;
  kernel.use_parallel_kernel = true;
  kernel.threads = 2;
  expect_second_observer_is_free(kernel);
}

/// A world event at 4 s registers a second group observer mid-run. Every
/// journaling op is keyed at its emit's time and mote rank, so the ops of
/// events emitted up to 4 s run before the registration, and the second
/// observer sees exactly the events emitted after it, in the first one's
/// order.
void expect_mid_run_observer_sees_later_events(
    const sim::KernelConfig& kernel) {
  TestWorld::Options options;
  options.kernel = kernel;
  TestWorld world(options);
  metrics::EventLog second;
  const Time registered_at = Time::seconds(4);
  world.sim().schedule_at(registered_at, [&] {
    world.system().add_group_observer(&second);
  });
  world.add_moving_blob({0.0, 1.0}, {7.0, 1.0}, 1.0);
  world.system().run_for(Duration::seconds(8));

  std::vector<std::string> later;
  for (const core::GroupEvent& event : world.events().events()) {
    if (event.time > registered_at) later.push_back(event.to_string());
  }
  ASSERT_FALSE(later.empty());
  ASSERT_LT(later.size(), world.events().total())
      << "events were emitted before the registration too";
  EXPECT_EQ(lines_of(second), later);
}

TEST(SystemFacade, ObserverAddedByAWorldEventSeesOnlyLaterEvents) {
  expect_mid_run_observer_sees_later_events(sim::KernelConfig{});
}

TEST(SystemFacade, ObserverAddedByAWorldEventSeesOnlyLaterEventsInParallel) {
  sim::KernelConfig kernel;
  kernel.use_parallel_kernel = true;
  kernel.threads = 2;
  expect_mid_run_observer_sees_later_events(kernel);
}

TEST(SystemFacade, AggregationRegistryPreloaded) {
  sim::Simulator sim(1);
  env::Environment environment(sim.make_rng("env"));
  const env::Field field = env::Field::grid(1, 2);
  core::EnviroTrackSystem system(sim, environment, field);
  EXPECT_TRUE(system.aggregations().contains("avg"));
  EXPECT_TRUE(system.aggregations().contains("centroid"));
}

}  // namespace
}  // namespace et::test
