// Microbenchmarks for the core algorithmic kernels (google-benchmark):
// water-filling, payment evaluation, best response, one game update, full
// game convergence, message serialization, and a traffic simulation step.
// These quantify the per-iteration cost of the decentralized protocol --
// what an embedded smart-grid controller or an OLEV ECU would execute.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/best_response.h"
#include "core/game.h"
#include "core/payment.h"
#include "core/stackelberg.h"
#include "core/water_filling.h"
#include "grid/dispatch.h"
#include "grid/frequency.h"
#include "net/bus.h"
#include "traffic/simulation.h"
#include "util/rng.h"
#include "util/units.h"

namespace {

using namespace olev;

std::vector<double> random_loads(std::size_t sections, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> loads(sections);
  for (double& v : loads) v = rng.uniform(0.0, 50.0);
  return loads;
}

core::SectionCost make_cost() {
  return core::SectionCost(
      std::make_unique<core::NonlinearPricing>(5.0, 0.875, 40.0),
      core::OverloadCost{1.0}, olev::util::kw(40.0));
}

void BM_WaterFillExact(benchmark::State& state) {
  const auto loads = random_loads(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::water_fill(loads, olev::util::kw(100.0)));
  }
}
BENCHMARK(BM_WaterFillExact)->Arg(10)->Arg(100)->Arg(1000);

void BM_WaterFillBisect(benchmark::State& state) {
  const auto loads = random_loads(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::water_fill_bisect(loads, olev::util::kw(100.0)));
  }
}
BENCHMARK(BM_WaterFillBisect)->Arg(10)->Arg(100)->Arg(1000);

void BM_WaterFillPresorted(benchmark::State& state) {
  // A pre-sorted b filled at many totals: sorted once, O(C) per fill.
  const auto loads = random_loads(static_cast<std::size_t>(state.range(0)), 1);
  const core::SortedLoads sorted(loads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sorted.fill(olev::util::kw(100.0)));
  }
}
BENCHMARK(BM_WaterFillPresorted)->Arg(10)->Arg(100)->Arg(1000);

void BM_PaymentOfTotal(benchmark::State& state) {
  const auto loads = random_loads(static_cast<std::size_t>(state.range(0)), 2);
  const core::SectionCost z = make_cost();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::payment_of_total(z, loads, olev::util::kw(75.0)));
  }
}
BENCHMARK(BM_PaymentOfTotal)->Arg(10)->Arg(100);

void BM_BestResponse(benchmark::State& state) {
  const auto loads = random_loads(static_cast<std::size_t>(state.range(0)), 3);
  const core::SectionCost z = make_cost();
  const core::LogSatisfaction u(20.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::best_response(u, z, loads, olev::util::kw(120.0)));
  }
}
BENCHMARK(BM_BestResponse)->Arg(10)->Arg(100);

core::Game make_game(std::size_t players, std::size_t sections) {
  util::Rng rng(7);
  std::vector<core::PlayerSpec> specs;
  for (std::size_t n = 0; n < players; ++n) {
    core::PlayerSpec spec;
    spec.satisfaction =
        std::make_unique<core::LogSatisfaction>(rng.uniform(5.0, 40.0));
    spec.p_max = olev::util::kw(rng.uniform(20.0, 100.0));
    specs.push_back(std::move(spec));
  }
  return core::Game(std::move(specs), make_cost(), sections, olev::util::kw(50.0));
}

void BM_GameUpdate(benchmark::State& state) {
  core::Game game = make_game(static_cast<std::size_t>(state.range(0)),
                              static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(game.step());
  }
}
BENCHMARK(BM_GameUpdate)->Args({10, 10})->Args({50, 100})->Args({100, 100});

void BM_GameRunToConvergence(benchmark::State& state) {
  for (auto _ : state) {
    core::Game game = make_game(static_cast<std::size_t>(state.range(0)),
                                static_cast<std::size_t>(state.range(1)));
    benchmark::DoNotOptimize(game.run());
  }
}
BENCHMARK(BM_GameRunToConvergence)->Args({10, 10})->Args({30, 20})
    ->Unit(benchmark::kMillisecond);

void BM_MessageSerializeRoundTrip(benchmark::State& state) {
  net::PaymentFunctionMsg msg;
  msg.player = 3;
  msg.round = 99;
  msg.others_load_kw = random_loads(static_cast<std::size_t>(state.range(0)), 4);
  const net::Message message(msg);
  for (auto _ : state) {
    const auto bytes = net::serialize(message);
    benchmark::DoNotOptimize(net::deserialize(bytes));
  }
}
BENCHMARK(BM_MessageSerializeRoundTrip)->Arg(10)->Arg(100);

void BM_BusSendPoll(benchmark::State& state) {
  net::MessageBus bus;
  double now = 0.0;
  for (auto _ : state) {
    bus.send(1, 2, now, net::PowerRequestMsg{1, 1, 5.0, {}});
    now += 1.0;
    benchmark::DoNotOptimize(bus.poll(2, now));
  }
}
BENCHMARK(BM_BusSendPoll);

void BM_GeneralizedFill(benchmark::State& state) {
  const auto sections = static_cast<std::size_t>(state.range(0));
  std::vector<core::SectionCost> costs;
  util::Rng rng(5);
  for (std::size_t c = 0; c < sections; ++c) {
    const double cap = rng.uniform(20.0, 80.0);
    costs.emplace_back(std::make_unique<core::NonlinearPricing>(5.0, 0.875, cap),
                       core::OverloadCost{1.0}, olev::util::kw(cap));
  }
  std::vector<const core::SectionCost*> pointers;
  for (const auto& cost : costs) pointers.push_back(&cost);
  const auto loads = random_loads(sections, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::generalized_fill(pointers, loads, olev::util::kw(60.0)));
  }
}
BENCHMARK(BM_GeneralizedFill)->Arg(10)->Arg(100);

void BM_StackelbergSolve(benchmark::State& state) {
  util::Rng rng(8);
  std::vector<std::unique_ptr<core::Satisfaction>> players;
  std::vector<double> caps;
  for (int n = 0; n < 30; ++n) {
    players.push_back(
        std::make_unique<core::LogSatisfaction>(rng.uniform(5.0, 40.0)));
    caps.push_back(rng.uniform(20.0, 80.0));
  }
  const core::SectionCost z = make_cost();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_stackelberg(players, caps, z, 10));
  }
}
BENCHMARK(BM_StackelbergSolve)->Unit(benchmark::kMicrosecond);

void BM_FrequencyStep(benchmark::State& state) {
  grid::FrequencySimulator sim;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.step(olev::util::mw(100.0)));
  }
}
BENCHMARK(BM_FrequencyStep);

void BM_DispatchStack(benchmark::State& state) {
  const grid::DispatchStack stack = grid::DispatchStack::nyiso_like();
  double load = 4000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack.dispatch(olev::util::mw(load)));
    load = load >= 6600.0 ? 4000.0 : load + 10.0;
  }
}
BENCHMARK(BM_DispatchStack);

void BM_TrafficSimStep(benchmark::State& state) {
  const auto program = traffic::SignalProgram::fixed_cycle(35.0, 4.0, 31.0);
  traffic::Network net = traffic::Network::arterial(
      3, 300.0, util::to_mps(util::mph(30.0)).value(), program, 2);
  traffic::Simulation sim(std::move(net), traffic::SimulationConfig{});
  traffic::DemandConfig demand;
  demand.counts.fill(static_cast<double>(state.range(0)));
  sim.add_source(
      traffic::FlowSource({0, 1, 2}, demand, traffic::VehicleType::olev()));
  sim.run_until(600.0);  // warm up to steady-state density
  for (auto _ : state) {
    sim.step();
  }
  state.counters["vehicles"] =
      static_cast<double>(sim.active_count());
}
BENCHMARK(BM_TrafficSimStep)->Arg(600)->Arg(1800);

}  // namespace
