#include "traffic/routing.h"

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <map>
#include <queue>
#include <stdexcept>
#include <string>

namespace olev::traffic {
namespace {
// Floor on the adjusted edge cost: keeps Dijkstra valid under arbitrarily
// large charging bonuses.
constexpr double kMinEdgeCost = 1e-3;

// `prefix` then the indices joined by '_' ("n0_1", "e0_0_0_1"), appended
// into one string: chained operator+ on std::to_string temporaries trips
// gcc 12's false-positive -Wrestrict at -O3 (GCC bug 105651).
std::string node_name(char prefix, std::initializer_list<int> indices) {
  std::string name(1, prefix);
  for (const int index : indices) {
    if (name.size() > 1) name += '_';
    name += std::to_string(index);
  }
  return name;
}
}  // namespace

double expected_edge_time_s(const Network& network, EdgeId edge_id) {
  const Edge& edge = network.edge(edge_id);
  double time = edge.length_m / edge.speed_limit_mps;
  if (const SignalProgram* signal = network.signal_for_edge(edge_id)) {
    const double cycle = signal->cycle_length_s();
    if (cycle > 0.0) {
      const double red = (1.0 - signal->green_ratio()) * cycle;
      time += red * red / (2.0 * cycle);
    }
  }
  return time;
}

double route_expected_time_s(const Network& network, const Route& route) {
  double total = 0.0;
  for (EdgeId edge : route) total += expected_edge_time_s(network, edge);
  return total;
}

RouteResult shortest_route(const Network& network, EdgeId from, EdgeId to,
                           std::span<const double> edge_cost_adjust) {
  const std::size_t edge_count = network.edge_count();
  if (from >= edge_count || to >= edge_count) {
    throw std::out_of_range("shortest_route: unknown edge");
  }
  if (!edge_cost_adjust.empty() && edge_cost_adjust.size() != edge_count) {
    throw std::invalid_argument(
        "shortest_route: edge_cost_adjust must have one entry per edge");
  }

  auto edge_cost = [&](EdgeId edge) {
    double cost = expected_edge_time_s(network, edge);
    if (!edge_cost_adjust.empty()) cost += edge_cost_adjust[edge];
    return std::max(kMinEdgeCost, cost);
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(edge_count, kInf);
  std::vector<EdgeId> prev(edge_count, kInvalidEdge);
  using Item = std::pair<double, EdgeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> frontier;

  dist[from] = edge_cost(from);
  frontier.emplace(dist[from], from);
  while (!frontier.empty()) {
    const auto [d, edge] = frontier.top();
    frontier.pop();
    if (d > dist[edge]) continue;  // stale entry
    if (edge == to) break;
    for (EdgeId next : network.successors(edge)) {
      const double candidate = d + edge_cost(next);
      if (candidate < dist[next]) {
        dist[next] = candidate;
        prev[next] = edge;
        frontier.emplace(candidate, next);
      }
    }
  }

  RouteResult result;
  if (dist[to] == kInf) return result;
  result.found = true;
  result.cost = dist[to];
  for (EdgeId edge = to; edge != kInvalidEdge; edge = prev[edge]) {
    result.route.push_back(edge);
    if (edge == from) break;
  }
  std::reverse(result.route.begin(), result.route.end());
  result.travel_time_s = route_expected_time_s(network, result.route);
  return result;
}

Network grid_city(int rows, int cols, double block_m, double speed_limit_mps,
                  const SignalProgram& program) {
  if (rows < 2 || cols < 2) {
    throw std::invalid_argument("grid_city: need at least a 2x2 grid");
  }
  Network net;

  // One signalized junction per node; adjacent nodes' signals are staggered
  // by half a cycle (checkerboard green wave).
  std::vector<JunctionId> junctions;
  junctions.reserve(static_cast<std::size_t>(rows) * cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const JunctionId j =
          net.add_junction(node_name('n', {r, c}), JunctionKind::kTrafficLight);
      SignalProgram staggered(program.phases(),
                              ((r + c) % 2) * 0.5 * program.cycle_length_s());
      net.set_junction_signal(j, net.add_signal(std::move(staggered)));
      junctions.push_back(j);
    }
  }
  auto node = [cols](int r, int c) { return static_cast<std::size_t>(r) * cols + c; };

  // Directed edge per ordered adjacent node pair.
  std::map<std::pair<std::size_t, std::size_t>, EdgeId> by_endpoints;
  auto add_directed = [&](int r1, int c1, int r2, int c2) {
    const EdgeId edge = net.add_edge(node_name('e', {r1, c1, r2, c2}), block_m,
                                     speed_limit_mps, 1);
    net.set_edge_end(edge, junctions[node(r2, c2)]);
    by_endpoints[{node(r1, c1), node(r2, c2)}] = edge;
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        add_directed(r, c, r, c + 1);
        add_directed(r, c + 1, r, c);
      }
      if (r + 1 < rows) {
        add_directed(r, c, r + 1, c);
        add_directed(r + 1, c, r, c);
      }
    }
  }

  // Connectivity: an edge into node v continues on every edge out of v
  // except the immediate U-turn.
  for (const auto& [uv, edge] : by_endpoints) {
    const auto [u, v] = uv;
    for (const auto& [vw, next] : by_endpoints) {
      if (vw.first != v) continue;
      if (vw.second == u) continue;  // no U-turn
      net.connect(edge, next);
    }
  }
  return net;
}

}  // namespace olev::traffic
