/// \file inputs.hpp
/// Seeded input generation for the large workloads.
#pragma once

#include <cstdint>
#include <vector>

#include "khop/geom/point.hpp"
#include "khop/graph/graph.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"

namespace perfbench {

/// A connected jittered-grid unit-disk network.
struct GridNetwork {
  std::vector<khop::Point2> positions;
  double radius = 0.0;
  khop::Graph graph;             ///< the connected unit-disk graph
};

/// n nodes, one per unit cell of a ceil(sqrt(n))-wide grid, each placed
/// uniformly in the central half-width square of its cell; node ids are a
/// seeded shuffle of the cells, so ids carry no spatial order ("generator
/// ids"). The radius is the analytic value for \p degree (one node per unit
/// area), raised by 5% until the unit-disk graph is connected. With the
/// jitter confined to the central square, grid neighbours are at most
/// sqrt(1.5^2 + 0.5^2) = 1.58 apart, so for degree >= 7 the first radius
/// already connects the network and the graph's size does not swing with
/// the seed. Deterministic in (n, degree, seed). The graph is built on
/// \p pool, or serially when it is null.
GridNetwork make_grid_network(std::size_t n, double degree, std::uint64_t seed,
                              khop::Workspace& ws, khop::ThreadPool* pool);

}  // namespace perfbench
