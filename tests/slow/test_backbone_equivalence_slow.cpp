// At-scale bit-exactness for the backbone construction (`slow` ctest
// label): all five paper pipelines, built with the fused bounded sweeps on
// a reused workspace, on a fresh one and through the allocating overload,
// against the preserved reference pipeline on a four-digit-node topology.
// This is the acceptance gate for the fused bounded-sweep construction.
// LMSTGA is also swept against its set/map oracle over many small
// networks.
#include <gtest/gtest.h>

#include <vector>

#include "khop/gateway/backbone.hpp"
#include "khop/gateway/reference.hpp"
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

void expect_backbone_eq(const Backbone& got, const Backbone& want,
                        const char* what) {
  EXPECT_EQ(got.heads, want.heads) << what;
  EXPECT_EQ(got.gateways, want.gateways) << what;
  EXPECT_EQ(got.virtual_links, want.virtual_links) << what;
}

TEST(BackboneEquivalenceSlow, AllPipelinesAllThreadCountsAtScale) {
  const Graph g = random_topology(1500, 7.0, 98);
  // Formerly also across thread counts; phase 2 now has one serial body,
  // so the variants are the workspace it runs on.
  Workspace ws;
  for (Hops k = 2; k <= 3; ++k) {
    const Clustering c = khop_clustering(g, k);
    for (const Pipeline p : kAllPipelines) {
      const Backbone want = reference::build_backbone(g, c, p);
      expect_backbone_eq(build_backbone(g, c, p, ws), want, "reused");
      Workspace fresh;
      expect_backbone_eq(build_backbone(g, c, p, fresh), want, "fresh");
      expect_backbone_eq(build_backbone(g, c, p), want, "tls_workspace");
    }
  }
}

TEST(BackboneEquivalenceSlow, RepeatedWorkspaceReuseStaysExact) {
  // One workspace reused across every pipeline and k must not leak state
  // between builds.
  const Graph g = random_topology(1200, 6.5, 99);
  Workspace ws;
  for (int rep = 0; rep < 2; ++rep) {
    for (Hops k = 1; k <= 2; ++k) {
      const Clustering c = khop_clustering(g, k);
      for (const Pipeline p : kAllPipelines) {
        expect_backbone_eq(build_backbone(g, c, p, ws),
                           reference::build_backbone(g, c, p), "reuse");
      }
    }
  }
}

TEST(BackboneEquivalenceSlow, LmstMatchesReferenceOnManyNetworks) {
  // LMSTGA against the set/map oracle over many small networks: NC and AC
  // at k 1-3, Wu-Lou at k = 1, both keep rules.
  std::size_t cases = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    for (const std::size_t n : {40u, 100u, 200u}) {
      for (const double degree : {6.0, 10.0}) {
        const Graph g = random_topology(n, degree, 7000 + seed);
        for (Hops k = 1; k <= 3; ++k) {
          const Clustering c = khop_clustering(g, k);
          for (const NeighborRule rule :
               {NeighborRule::kAllWithin2k1, NeighborRule::kAdjacent,
                NeighborRule::kWuLou25}) {
            if (rule == NeighborRule::kWuLou25 && k != 1) continue;
            const NeighborSelection sel = select_neighbors(g, c, rule);
            const VirtualLinkMap links =
                VirtualLinkMap::build(g, sel.head_pairs);
            for (const LmstKeepRule keep : {LmstKeepRule::kEitherEndpoint,
                                            LmstKeepRule::kBothEndpoints}) {
              const LmstResult got = lmst_gateways(c, sel, links, keep);
              const LmstResult want =
                  reference::lmst_gateways(c, sel, links, keep);
              ASSERT_EQ(got.kept_links, want.kept_links)
                  << "seed " << seed << " n " << n << " k " << k;
              ASSERT_EQ(got.gateways, want.gateways)
                  << "seed " << seed << " n " << n << " k " << k;
              ASSERT_EQ(got.asymmetric_links, want.asymmetric_links)
                  << "seed " << seed << " n " << n << " k " << k;
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 150u * 3u * 2u * 7u * 2u);  // 12600
}

}  // namespace
}  // namespace khop
