#include "traffic/simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

namespace olev::traffic {
namespace {

Network straight_road(double length = 1000.0, int lanes = 1) {
  Network net;
  net.add_edge("main", length, 13.89, lanes);
  return net;
}

SimulationConfig deterministic_config() {
  SimulationConfig config;
  config.deterministic = true;
  return config;
}

Vehicle single_vehicle(Route route) {
  Vehicle vehicle;
  vehicle.type = VehicleType::passenger();
  vehicle.route = std::move(route);
  return vehicle;
}

TEST(Simulation, StartsEmpty) {
  Simulation sim(straight_road(), deterministic_config());
  EXPECT_EQ(sim.active_count(), 0u);
  EXPECT_DOUBLE_EQ(sim.time_s(), 0.0);
}

TEST(Simulation, TimeAdvancesPerStep) {
  Simulation sim(straight_road(), deterministic_config());
  sim.step();
  sim.step();
  EXPECT_DOUBLE_EQ(sim.time_s(), 2.0);
}

TEST(Simulation, InsertAndTraverse) {
  Simulation sim(straight_road(500.0), deterministic_config());
  ASSERT_TRUE(sim.try_insert(single_vehicle({0})));
  EXPECT_EQ(sim.active_count(), 1u);
  EXPECT_EQ(sim.stats().departed, 1u);
  sim.run_until(120.0);
  EXPECT_EQ(sim.active_count(), 0u);
  EXPECT_EQ(sim.stats().arrived, 1u);
  EXPECT_GT(sim.stats().total_travel_time_s, 30.0);  // 500 m at <= 13.89 m/s
}

TEST(Simulation, VehicleRespectsSpeedLimit) {
  Simulation sim(straight_road(2000.0), deterministic_config());
  ASSERT_TRUE(sim.try_insert(single_vehicle({0})));
  for (int i = 0; i < 60; ++i) {
    sim.step();
    for (const Vehicle& vehicle : sim.vehicles()) {
      EXPECT_LE(vehicle.speed_mps, 13.89 + 1e-9);
    }
  }
}

TEST(Simulation, InsertionFailsWhenEntryBlocked) {
  Simulation sim(straight_road(100.0), deterministic_config());
  ASSERT_TRUE(sim.try_insert(single_vehicle({0})));
  // The first vehicle still sits near pos 0; a second cannot fit.
  EXPECT_FALSE(sim.try_insert(single_vehicle({0})));
}

TEST(Simulation, MultiLaneEntryAllowsParallelInsertion) {
  Simulation sim(straight_road(100.0, 2), deterministic_config());
  EXPECT_TRUE(sim.try_insert(single_vehicle({0})));
  EXPECT_TRUE(sim.try_insert(single_vehicle({0})));
  ASSERT_EQ(sim.active_count(), 2u);
  EXPECT_NE(sim.vehicles()[0].lane, sim.vehicles()[1].lane);
}

TEST(Simulation, FollowerNeverHitsLeader) {
  Simulation sim(straight_road(2000.0), deterministic_config());
  ASSERT_TRUE(sim.try_insert(single_vehicle({0})));
  // Advance so there is room, then insert a follower.
  for (int i = 0; i < 10; ++i) sim.step();
  ASSERT_TRUE(sim.try_insert(single_vehicle({0})));
  for (int i = 0; i < 120 && sim.active_count() == 2; ++i) {
    sim.step();
    const auto vehicles = sim.vehicles();
    if (vehicles.size() < 2) break;
    const double front = std::max(vehicles[0].pos_m, vehicles[1].pos_m);
    const double rear = std::min(vehicles[0].pos_m, vehicles[1].pos_m);
    EXPECT_GE(front - rear, vehicles[0].type.length_m - 1e-9);
  }
}

TEST(Simulation, RedLightStopsVehicle) {
  // Two-segment arterial whose interior junction shows red forever.
  Network corridor = Network::arterial(
      2, 200.0, 13.89, SignalProgram({{LightState::kRed, 1000.0}}), 1);

  Simulation sim(corridor, deterministic_config());
  ASSERT_TRUE(sim.try_insert(single_vehicle({0, 1})));
  sim.run_until(120.0);
  // The light never turns green: the vehicle must be held on edge 0.
  ASSERT_EQ(sim.active_count(), 1u);
  const Vehicle& vehicle = sim.vehicles()[0];
  EXPECT_EQ(vehicle.current_edge(), 0u);
  EXPECT_LT(vehicle.pos_m, 200.0);
  EXPECT_GT(vehicle.pos_m, 150.0);  // crept up to the stop line
  EXPECT_NEAR(vehicle.speed_mps, 0.0, 0.5);
}

TEST(Simulation, GreenLightPassesThrough) {
  Network corridor = Network::arterial(
      2, 200.0, 13.89, SignalProgram({{LightState::kGreen, 1000.0}}), 1);
  Simulation sim(corridor, deterministic_config());
  ASSERT_TRUE(sim.try_insert(single_vehicle({0, 1})));
  sim.run_until(120.0);
  EXPECT_EQ(sim.stats().arrived, 1u);
}

TEST(Simulation, SignalCycleEventuallyReleasesQueue) {
  Network corridor = Network::arterial(
      2, 150.0, 13.89, SignalProgram::fixed_cycle(20.0, 4.0, 36.0), 1);
  Simulation sim(corridor, deterministic_config());
  ASSERT_TRUE(sim.try_insert(single_vehicle({0, 1})));
  sim.run_until(240.0);
  EXPECT_EQ(sim.stats().arrived, 1u);
}

TEST(Simulation, PoissonSourceProducesTraffic) {
  Network net = straight_road(800.0, 2);
  SimulationConfig config = deterministic_config();
  Simulation sim(net, config);
  DemandConfig demand;
  demand.counts.fill(720.0);  // 0.2 vehicles/s
  sim.add_source(FlowSource({0}, demand, VehicleType::passenger()));
  sim.run_until(600.0);
  EXPECT_GT(sim.stats().departed, 60u);
  EXPECT_GT(sim.stats().arrived, 30u);
}

TEST(Simulation, BacklogDrainsWhenRoadClears) {
  Network net = straight_road(200.0, 1);
  Simulation sim(net, deterministic_config());
  DemandConfig demand;
  demand.counts.fill(7200.0);  // 2/s: far beyond capacity of one lane
  sim.add_source(FlowSource({0}, demand, VehicleType::passenger()));
  sim.run_until(60.0);
  EXPECT_GT(sim.stats().backlog, 0u);
  const std::size_t departed_at_60 = sim.stats().departed;
  sim.run_until(120.0);
  EXPECT_GT(sim.stats().departed, departed_at_60);  // keeps draining
}

TEST(Simulation, ObserverSeesEveryStep) {
  struct Counter : StepObserver {
    int steps = 0;
    void on_step(const StepView& view) override {
      ++steps;
      EXPECT_DOUBLE_EQ(view.dt_s, 1.0);
    }
  };
  Counter counter;
  Simulation sim(straight_road(), deterministic_config());
  sim.add_observer(&counter);
  sim.run_until(10.0);
  EXPECT_EQ(counter.steps, 10);
}

TEST(Simulation, ObserverArrivalHookFiresExactlyOnce) {
  struct Counter : StepObserver {
    int arrivals = 0;
    void on_step(const StepView&) override {}
    void on_vehicle_arrived(const Vehicle&, double) override { ++arrivals; }
  };
  Vehicle olev;
  olev.type = VehicleType::olev();
  olev.route = {0};
  olev.is_olev = true;
  Simulation sim(straight_road(400.0), deterministic_config());
  Counter counter;
  sim.add_observer(&counter);
  ASSERT_TRUE(sim.try_insert(olev));
  sim.run_until(120.0);
  sim.run_until(240.0);  // no further arrivals
  EXPECT_EQ(counter.arrivals, 1);
}

TEST(Simulation, FindVehicleById) {
  Simulation sim(straight_road(), deterministic_config());
  ASSERT_TRUE(sim.try_insert(single_vehicle({0})));
  const VehicleId id = sim.vehicles()[0].id;
  EXPECT_NE(sim.find_vehicle(id), nullptr);
  EXPECT_EQ(sim.find_vehicle(id + 1000), nullptr);
}

TEST(Simulation, StatsDistanceMatchesOdometer) {
  Simulation sim(straight_road(500.0), deterministic_config());
  ASSERT_TRUE(sim.try_insert(single_vehicle({0})));
  for (int i = 0; i < 20; ++i) sim.step();
  ASSERT_EQ(sim.active_count(), 1u);
  EXPECT_NEAR(sim.stats().total_distance_m, sim.vehicles()[0].odometer_m, 1e-9);
}

TEST(Simulation, WaitingTimeAccumulatesAtRedLight) {
  Network corridor = Network::arterial(
      2, 200.0, 13.89, SignalProgram({{LightState::kRed, 1000.0}}), 1);
  Simulation sim(corridor, deterministic_config());
  ASSERT_TRUE(sim.try_insert(single_vehicle({0, 1})));
  sim.run_until(120.0);
  ASSERT_EQ(sim.active_count(), 1u);
  // Vehicle reaches the stop line in ~20 s and then waits.
  EXPECT_GT(sim.vehicles()[0].waiting_time_s, 60.0);
  EXPECT_NEAR(sim.stats().total_waiting_time_s,
              sim.vehicles()[0].waiting_time_s, 1e-9);
}

TEST(Simulation, FreeFlowAccumulatesNoWaiting) {
  Simulation sim(straight_road(500.0), deterministic_config());
  ASSERT_TRUE(sim.try_insert(single_vehicle({0})));
  sim.run_until(60.0);
  EXPECT_LT(sim.stats().total_waiting_time_s, 2.0);  // only the start-up step
}

TEST(LaneChange, FastFollowerOvertakesSlowLeader) {
  Simulation sim(straight_road(3000.0, 2), deterministic_config());
  // Slow leader crawling at 3 m/s; force the fast follower into its lane.
  Vehicle slow = single_vehicle({0});
  slow.type.max_speed_mps = 3.0;
  ASSERT_TRUE(sim.try_insert(slow));
  const int slow_lane = sim.vehicles()[0].lane;
  for (int i = 0; i < 15; ++i) sim.step();
  ASSERT_TRUE(sim.try_insert(single_vehicle({0})));
  const VehicleId fast_id = sim.vehicles()[1].id;
  ASSERT_TRUE(sim.set_vehicle_lane(fast_id, slow_lane));
  sim.run_until(sim.time_s() + 60.0);
  // The fast vehicle must have escaped the slow leader's lane and be doing
  // near the speed limit, not 3 m/s.
  const Vehicle* fast = sim.find_vehicle(fast_id);
  ASSERT_NE(fast, nullptr);
  EXPECT_GT(sim.stats().lane_changes, 0u);
  EXPECT_NE(fast->lane, slow_lane);
  EXPECT_GT(fast->speed_mps, 10.0);
}

TEST(LaneChange, SetVehicleLaneValidates) {
  Simulation sim(straight_road(500.0, 2), deterministic_config());
  ASSERT_TRUE(sim.try_insert(single_vehicle({0})));
  const VehicleId id = sim.vehicles()[0].id;
  EXPECT_TRUE(sim.set_vehicle_lane(id, 1));
  EXPECT_FALSE(sim.set_vehicle_lane(id, 2));   // lane out of range
  EXPECT_FALSE(sim.set_vehicle_lane(id, -1));
  EXPECT_FALSE(sim.set_vehicle_lane(id + 99, 0));  // unknown vehicle
}

TEST(LaneChange, DisabledByConfig) {
  SimulationConfig config = deterministic_config();
  config.enable_lane_changing = false;
  Simulation sim(straight_road(3000.0, 2), config);
  Vehicle slow = single_vehicle({0});
  slow.type.max_speed_mps = 3.0;
  ASSERT_TRUE(sim.try_insert(slow));
  for (int i = 0; i < 15; ++i) sim.step();
  ASSERT_TRUE(sim.try_insert(single_vehicle({0})));
  // Both vehicles were inserted into different lanes by the lane picker, so
  // force the follower behind the leader.
  sim.run_until(sim.time_s() + 60.0);
  EXPECT_EQ(sim.stats().lane_changes, 0u);
}

TEST(LaneChange, NeverCreatesOverlap) {
  // Dense two-lane traffic with lane changing on: no two vehicles in the
  // same lane may ever overlap bodies.
  Network net = straight_road(600.0, 2);
  SimulationConfig config;
  config.seed = 1234;
  Simulation sim(net, config);
  DemandConfig demand;
  demand.counts.fill(2400.0);
  sim.add_source(FlowSource({0}, demand, VehicleType::passenger()));
  for (int t = 0; t < 600; ++t) {
    sim.step();
    std::map<int, std::vector<const Vehicle*>> by_lane;
    for (const Vehicle& vehicle : sim.vehicles()) {
      by_lane[vehicle.lane].push_back(&vehicle);
    }
    for (auto& [lane, vehicles] : by_lane) {
      std::sort(vehicles.begin(), vehicles.end(),
                [](const Vehicle* a, const Vehicle* b) {
                  return a->pos_m > b->pos_m;
                });
      for (std::size_t i = 1; i < vehicles.size(); ++i) {
        EXPECT_GE(vehicles[i - 1]->pos_m - vehicles[i - 1]->type.length_m,
                  vehicles[i]->pos_m - 1e-6)
            << "overlap at t=" << t << " lane " << lane;
      }
    }
  }
  EXPECT_GT(sim.stats().lane_changes, 0u);
}

TEST(LaneChange, SingleLaneRoadNeverChanges) {
  Network net = straight_road(800.0, 1);
  SimulationConfig config;
  config.seed = 77;
  Simulation sim(net, config);
  DemandConfig demand;
  demand.counts.fill(1200.0);
  sim.add_source(FlowSource({0}, demand, VehicleType::passenger()));
  sim.run_until(300.0);
  EXPECT_EQ(sim.stats().lane_changes, 0u);
}

TEST(Simulation, DeterministicRunsAreIdentical) {
  auto run_once = []() {
    Network net = straight_road(800.0, 2);
    SimulationConfig config;
    config.seed = 99;
    Simulation sim(net, config);
    DemandConfig demand;
    demand.counts.fill(1200.0);
    sim.add_source(FlowSource({0}, demand, VehicleType::passenger()));
    sim.run_until(300.0);
    return sim.stats().departed + 1000 * sim.stats().arrived;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace olev::traffic
