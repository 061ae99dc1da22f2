// Larger-topology equivalence checks, the generator's allocation count and
// bench-harness end-to-end smoke.
// These carry the `slow` ctest label: CI's main job excludes them (-LE slow)
// and the bench job runs them; locally a plain `ctest` still includes them
// (they are sized to stay in the seconds range).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "khop/common/error.hpp"

#include "harness/harness.hpp"
#include "khop/cluster/reference.hpp"
#include "khop/graph/spatial_grid.hpp"
#include "khop/net/generator.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {
namespace {

Graph random_topology(std::size_t n, double degree, std::uint64_t seed) {
  GeneratorConfig gen;
  gen.num_nodes = n;
  gen.target_degree = degree;
  Rng rng(seed);
  return generate_network(gen, rng).graph;
}

TEST(WorkspaceEquivalenceSlow, ClusteringMatchesReferenceAtScale) {
  Workspace ws;
  const Graph g = random_topology(1000, 7.0, 97);
  const auto prios = make_priorities(g, PriorityRule::kLowestId);
  for (Hops k = 2; k <= 3; ++k) {
    const Clustering got =
        khop_clustering(g, k, prios, AffiliationRule::kDistanceBased, ws);
    const Clustering want =
        reference::khop_clustering(g, k, prios, AffiliationRule::kDistanceBased);
    EXPECT_EQ(got.heads, want.heads);
    EXPECT_EQ(got.head_of, want.head_of);
    EXPECT_EQ(got.dist_to_head, want.dist_to_head);
    EXPECT_EQ(got.election_rounds, want.election_rounds);
  }
}

TEST(BenchHarnessSlow, TimesKernelsAndEmitsSchemaV2Json) {
  bench::Harness h("test", {2, 0.0});
  const Graph g = random_topology(200, 6.0, 7);
  Workspace ws;
  h.time_kernel("clustering", "legacy", g.num_nodes(), 2, [&] {
    return static_cast<double>(reference::khop_clustering(
                                   g, 2,
                                   make_priorities(g, PriorityRule::kLowestId),
                                   AffiliationRule::kIdBased)
                                   .heads.size());
  });
  h.time_kernel("clustering", "workspace", g.num_nodes(), 2, [&] {
    return static_cast<double>(
        khop_clustering(g, 2, make_priorities(g, PriorityRule::kLowestId),
                        AffiliationRule::kIdBased, ws)
            .heads.size());
  });

  EXPECT_TRUE(h.checksum_mismatches().empty());
  EXPECT_GT(h.speedup("clustering", g.num_nodes()), 0.0);

  const std::string json = h.to_json();
  EXPECT_NE(json.find("\"schema\": \"khop.bench\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"allocs_per_rep\""), std::string::npos);
  EXPECT_NE(json.find("\"peak_rss_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"kernels\""), std::string::npos);
  EXPECT_NE(json.find("\"speedups\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_ns_mean\""), std::string::npos);

  const std::string path = "harness_smoke_test.json";
  h.write_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream read_back;
  read_back << in.rdbuf();
  EXPECT_EQ(read_back.str(), json);
  in.close();
  std::remove(path.c_str());
}

TEST(BenchHarnessSlow, RejectsNondeterministicKernels) {
  bench::Harness h("test", {2, 0.0});
  double counter = 0.0;
  EXPECT_THROW(h.time_kernel("bogus", "legacy", 1, 1,
                             [&] { return ++counter; }),
               InvariantViolation);
}

TEST(UnitDiskSlow, StreamedBuildMakesLogarithmicallyManyAllocations) {
  // 10^5 uniform points at unit density, expected degree ~8. On a reused
  // grid the one-pass build allocates only its offsets, its geometrically
  // grown adjacency and row buffer, and the Graph: O(log m) in all. A
  // per-node allocation anywhere would add ~n. The reference builder makes
  // one growing vector per node, which shows the counter sees them.
  const std::size_t n = 100000;
  Rng rng(131);
  const double side = std::sqrt(static_cast<double>(n));
  std::vector<Point2> pts(n);
  for (Point2& p : pts) p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  const double radius = std::sqrt(9.0 / 3.14159265358979323846);

  SpatialGrid grid;
  build_unit_disk_graph_streamed(pts, radius, grid);  // sizes the grid
  std::uint64_t before = bench::alloc_count();
  const Graph got = build_unit_disk_graph_streamed(pts, radius, grid);
  const std::uint64_t streamed = bench::alloc_count() - before;

  before = bench::alloc_count();
  const Graph want = reference::build_unit_disk_graph(pts, radius);
  const std::uint64_t ref = bench::alloc_count() - before;

  EXPECT_LE(streamed, 64u);
  EXPECT_GE(ref, n);
  EXPECT_EQ(got.edge_list(), want.edge_list());
}

}  // namespace
}  // namespace khop
