#include "inputs.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "khop/common/rng.hpp"
#include "khop/graph/spatial_grid.hpp"

namespace perfbench {

using namespace khop;

GridNetwork make_grid_network(std::size_t n, double degree, std::uint64_t seed,
                              Workspace& ws, ThreadPool* pool) {
  GridNetwork net;
  const auto cols =
      static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  Rng rng(seed);
  std::vector<NodeId> cell_of(n);
  for (std::size_t i = 0; i < n; ++i) cell_of[i] = static_cast<NodeId>(i);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(cell_of[i - 1], cell_of[rng.uniform_int(i)]);
  }
  net.positions.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double cx = static_cast<double>(cell_of[i] % cols);
    const double cy = static_cast<double>(cell_of[i] / cols);
    net.positions[i] = {cx + 0.25 + 0.5 * rng.uniform(),
                        cy + 0.25 + 0.5 * rng.uniform()};
  }
  // One node per unit area: E[degree] = pi r^2 - 1 away from the border.
  net.radius = std::sqrt((degree + 1.0) / std::numbers::pi);
  for (int raises = 0;; ++raises) {
    if (raises == 32) {
      throw std::runtime_error("grid network never became connected");
    }
    net.graph =
        build_unit_disk_graph_streamed(net.positions, net.radius, ws.grid, pool);
    ws.bfs.run(net.graph, 0, kUnreachable);
    if (ws.bfs.reached().size() == n) break;
    net.radius *= 1.05;
  }
  return net;
}

}  // namespace perfbench
