#include "khop/gateway/lmst.hpp"

#include <algorithm>

#include "khop/common/assert.hpp"
#include "khop/graph/mst.hpp"

namespace khop {

LmstResult lmst_gateways(const Clustering& c, const NeighborSelection& sel,
                         const VirtualLinkMap& links, LmstKeepRule keep) {
  KHOP_REQUIRE(sel.selected.size() == c.heads.size(),
               "selection does not match clustering");
  const auto& pairs = sel.head_pairs;  // sorted and unique by contract

  // Keep decisions as (min, max) head pairs, one entry per deciding
  // endpoint: once sorted, a link both endpoints keep appears twice.
  std::vector<std::pair<NodeId, NodeId>> kept;
  std::vector<NodeId> local;
  std::vector<std::vector<WeightedEdge>> adj;

  for (std::uint32_t i = 0; i < c.heads.size(); ++i) {
    const NodeId u = c.heads[i];
    const auto& nbrs = sel.selected[i];
    if (nbrs.empty()) continue;

    // Local node set {u} ∪ S(u), ascending by head id. Local index order is
    // therefore id order, so comparing local indices == comparing ids, which
    // keeps edge_less's tie-breaking faithful to the paper's id rule.
    local.assign(nbrs.begin(), nbrs.end());
    const auto at_u = std::lower_bound(local.begin(), local.end(), u);
    const auto u_local = static_cast<NodeId>(at_u - local.begin());
    local.insert(at_u, u);

    // Local virtual-edge adjacency: every selected pair with both endpoints
    // in the local set (u knows these from its neighbors' broadcasts).
    adj.resize(local.size());
    for (auto& row : adj) row.clear();
    for (NodeId a = 0; a < local.size(); ++a) {
      for (NodeId b = a + 1; b < local.size(); ++b) {
        const std::pair<NodeId, NodeId> p{local[a], local[b]};
        if (!std::binary_search(pairs.begin(), pairs.end(), p)) continue;
        const Hops w = links.link(p.first, p.second).hops;
        adj[a].push_back({a, b, w});
        adj[b].push_back({b, a, w});
      }
    }

    // The local graph is connected: u has a selected pair with every member
    // of S(u) by construction. The tree is rooted at u, so the on-tree links
    // incident to u - exactly the ones u keeps - are those to its children.
    const std::vector<NodeId> parent = prim_mst(local.size(), adj, u_local);
    for (NodeId li = 0; li < local.size(); ++li) {
      if (parent[li] == u_local) {
        kept.emplace_back(std::min(u, local[li]), std::max(u, local[li]));
      }
    }
  }

  // Realize links per the keep rule (union by default, intersection as the
  // stricter LMST G0 ∩ G1 variant).
  std::sort(kept.begin(), kept.end());
  LmstResult r;
  for (std::size_t j = 0; j < kept.size();) {
    const bool both = j + 1 < kept.size() && kept[j + 1] == kept[j];
    if (!both) ++r.asymmetric_links;
    if (both || keep == LmstKeepRule::kEitherEndpoint) {
      r.kept_links.push_back(kept[j]);
    }
    j += both ? 2 : 1;
  }
  r.gateways = link_gateways(c, links, r.kept_links);
  return r;
}

}  // namespace khop
