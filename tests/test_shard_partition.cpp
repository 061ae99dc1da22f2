// shard_cut_quality properties: its contiguous ranges partition the id
// space, its boundary count matches brute force, and it shows Hilbert order
// beating random order on jittered-grid unit-disk graphs (the thin-cut
// property that keeps the simulator's cross-range traffic small).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "khop/common/rng.hpp"
#include "khop/graph/relabel.hpp"
#include "khop/graph/spatial_grid.hpp"
#include "khop/net/generator.hpp"

namespace khop {
namespace {

Graph random_topology(std::size_t n, double degree, std::uint64_t seed) {
  GeneratorConfig gen;
  gen.num_nodes = n;
  gen.target_degree = degree;
  Rng rng(seed);
  return generate_network(gen, rng).graph;
}

Graph path_graph(std::size_t n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return Graph::from_edges(n, edges);
}

/// Brute-force boundary fraction: shard s owns [n*s/S, n*(s+1)/S), and a
/// node is boundary iff some neighbor has another owner.
double brute_force_cut(const Graph& g, std::size_t shards) {
  const std::size_t n = g.num_nodes();
  std::vector<std::size_t> owner(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t s = 0; s < shards; ++s) {
      if (n * s / shards <= v && v < n * (s + 1) / shards) owner[v] = s;
    }
  }
  std::size_t boundary = 0;
  for (NodeId v = 0; v < n; ++v) {
    bool crossing = false;
    for (NodeId u : g.neighbors(v)) crossing |= owner[u] != owner[v];
    boundary += crossing ? 1 : 0;
  }
  return static_cast<double>(boundary) / static_cast<double>(n);
}

TEST(ShardPlan, RangesPartitionTheIdSpace) {
  // On a path, S contiguous non-empty ranges cut S - 1 edges, and each cut
  // makes both of its endpoints boundary: exactly 2(S - 1) boundary nodes.
  // Ranges that overlapped, left a gap or were not contiguous would show.
  const Graph g = path_graph(97);
  for (const std::size_t shards : {1u, 2u, 3u, 8u, 13u}) {
    EXPECT_DOUBLE_EQ(shard_cut_quality(g, shards),
                     2.0 * static_cast<double>(shards - 1) / 97.0)
        << "shards " << shards;
  }
  const Graph r = random_topology(97, 5.0, 901);
  for (const std::size_t shards : {1u, 2u, 3u, 8u, 13u}) {
    EXPECT_DOUBLE_EQ(shard_cut_quality(r, shards), brute_force_cut(r, shards))
        << "shards " << shards;
  }
}

TEST(ShardPlan, SurplusShardsAreEmpty) {
  // 9 shards over 5 nodes: 5 singleton ranges, 4 empty ones. On a path
  // every node then has a neighbor in another range.
  EXPECT_DOUBLE_EQ(shard_cut_quality(path_graph(5), 9), 1.0);
  const Graph g = random_topology(5, 2.0, 902);
  EXPECT_DOUBLE_EQ(shard_cut_quality(g, 9), brute_force_cut(g, 9));
}

TEST(ShardPlan, BoundaryMatchesBruteForce) {
  const Graph g = random_topology(84, 6.0, 903);
  for (const std::size_t shards : {2u, 3u, 5u, 8u}) {
    EXPECT_DOUBLE_EQ(shard_cut_quality(g, shards), brute_force_cut(g, shards))
        << "shards " << shards;
  }
}

TEST(ShardPlan, SingleShardHasNoBoundary) {
  const Graph g = random_topology(50, 5.0, 904);
  EXPECT_DOUBLE_EQ(shard_cut_quality(g, 1), 0.0);
  EXPECT_DOUBLE_EQ(brute_force_cut(g, 1), 0.0);
}

TEST(ShardCutQuality, HilbertOrderBeatsRandomOrderOnJitteredGrid) {
  // Jittered grid: side x side points on unit spacing, each perturbed by
  // less than half a cell, connected at radius 1.5 (grid neighbors plus
  // some diagonals) - the regular-density placement where spatial order
  // matters most and every cut's cost is easy to reason about.
  constexpr std::size_t side = 24;
  Rng rng(905);
  std::vector<Point2> pts;
  pts.reserve(side * side);
  for (std::size_t y = 0; y < side; ++y) {
    for (std::size_t x = 0; x < side; ++x) {
      pts.push_back(Point2{static_cast<double>(x) + rng.uniform(-0.3, 0.3),
                           static_cast<double>(y) + rng.uniform(-0.3, 0.3)});
    }
  }
  const Graph g = build_unit_disk_graph(pts, 1.5);

  // Hilbert order: relabel by the SFC of the positions. Random order: a
  // seeded Fisher-Yates permutation (the adversarial baseline - contiguous
  // id ranges become spatially meaningless).
  const Relabeling hilbert = sfc_relabeling(pts);
  const Graph hilbert_g = relabel(g, hilbert);

  Relabeling random = identity_relabeling(g.num_nodes());
  for (std::size_t i = g.num_nodes(); i > 1; --i) {
    std::swap(random.new_of_old[i - 1],
              random.new_of_old[rng.uniform_int(i)]);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    random.old_of_new[random.new_of_old[v]] = v;
  }
  const Graph random_g = relabel(g, random);

  for (const std::size_t shards : {2u, 4u, 8u}) {
    const double hq = shard_cut_quality(hilbert_g, shards);
    const double rq = shard_cut_quality(random_g, shards);
    // Hilbert tiles have perimeter/area cuts; a random order makes nearly
    // every node boundary. Require a decisive margin, not just <.
    EXPECT_LT(hq, 0.5 * rq) << "shards " << shards;
    EXPECT_GT(rq, 0.9) << "shards " << shards;
  }
  // More shards cannot make the Hilbert cut *better*; sanity-check the
  // diagnostic is monotone-ish and nontrivial.
  EXPECT_GT(shard_cut_quality(hilbert_g, 2), 0.0);
}

}  // namespace
}  // namespace khop
