// ShardPlan properties: the contiguous ranges partition the id space, the
// interior/boundary classification and counts match brute force, and the
// shard_cut_quality diagnostic shows Hilbert order beating random order on
// jittered-grid unit-disk graphs (the thin-cut property that keeps the
// simulator's cross-range traffic small).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "khop/common/rng.hpp"
#include "khop/graph/partition.hpp"
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

TEST(ShardPlan, RangesPartitionTheIdSpace) {
  const Graph g = random_topology(97, 5.0, 901);
  for (const std::size_t shards : {1u, 2u, 3u, 8u, 13u}) {
    const ShardPlan plan(g, shards);
    ASSERT_EQ(plan.num_shards(), shards);
    ASSERT_EQ(plan.num_nodes(), g.num_nodes());

    NodeId expect_begin = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const ShardRange& r = plan.shard(s);
      EXPECT_EQ(r.begin, expect_begin) << "shard " << s;
      EXPECT_LE(r.begin, r.end);
      expect_begin = r.end;
      // Near-equal cut: sizes differ by at most one.
      EXPECT_LE(r.size(), g.num_nodes() / shards + 1);
      for (NodeId v = r.begin; v < r.end; ++v) {
        EXPECT_EQ(plan.shard_of(v), s);
      }
    }
    EXPECT_EQ(expect_begin, g.num_nodes());
  }
}

TEST(ShardPlan, SurplusShardsAreEmpty) {
  const Graph g = random_topology(5, 2.0, 902);
  const ShardPlan plan(g, 9);
  std::size_t covered = 0;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    covered += plan.shard(s).size();
    EXPECT_DOUBLE_EQ(plan.shard(s).size() == 0 ? 0.0
                                               : plan.boundary_fraction(s),
                     plan.boundary_fraction(s));
  }
  EXPECT_EQ(covered, g.num_nodes());
}

TEST(ShardPlan, BoundaryMatchesBruteForce) {
  const Graph g = random_topology(84, 6.0, 903);
  for (const std::size_t shards : {2u, 3u, 5u, 8u}) {
    const ShardPlan plan(g, shards);

    std::size_t boundary_total = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      bool crossing = false;
      for (NodeId u : g.neighbors(v)) {
        crossing |= plan.shard_of(u) != plan.shard_of(v);
      }
      EXPECT_EQ(plan.is_boundary(v), crossing) << "node " << v;
      boundary_total += crossing ? 1 : 0;
    }
    EXPECT_EQ(plan.num_boundary_nodes(), boundary_total);

    for (std::size_t s = 0; s < shards; ++s) {
      const ShardRange& r = plan.shard(s);
      std::vector<NodeId> want_boundary;
      for (NodeId v = r.begin; v < r.end; ++v) {
        if (plan.is_boundary(v)) want_boundary.push_back(v);
      }
      EXPECT_EQ(r.num_boundary, want_boundary.size()) << "shard " << s;
      if (r.size() > 0) {
        EXPECT_DOUBLE_EQ(plan.boundary_fraction(s),
                         static_cast<double>(want_boundary.size()) /
                             static_cast<double>(r.size()));
      }
    }
  }
}

TEST(ShardPlan, SingleShardHasNoBoundary) {
  const Graph g = random_topology(50, 5.0, 904);
  const ShardPlan plan(g, 1);
  EXPECT_EQ(plan.num_boundary_nodes(), 0u);
  EXPECT_DOUBLE_EQ(plan.boundary_fraction(0), 0.0);
  EXPECT_DOUBLE_EQ(shard_cut_quality(g, 1), 0.0);
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
