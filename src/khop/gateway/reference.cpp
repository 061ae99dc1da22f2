// Verbatim pre-PR4 gateway implementations (see reference.hpp). Kept
// byte-for-byte close to the originals on purpose — do not "clean up".
#include "khop/gateway/reference.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "khop/common/assert.hpp"
#include "khop/common/error.hpp"
#include "khop/gateway/lmst.hpp"
#include "khop/gateway/mesh.hpp"
#include "khop/graph/bfs.hpp"
#include "khop/graph/mst.hpp"
#include "khop/nbr/reference.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop::reference {

VirtualLinkMap build_virtual_links(
    const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  Workspace ws;  // oracle independence: never shares scratch with production

  // Group pairs by smaller endpoint so each source needs a single BFS.
  std::map<NodeId, std::vector<NodeId>> by_source;
  for (const auto& [a, b] : pairs) {
    KHOP_REQUIRE(a != b, "virtual link endpoints must differ");
    by_source[std::min(a, b)].push_back(std::max(a, b));
  }

  std::vector<VirtualLink> links;
  for (auto& [src, targets] : by_source) {
    ws.bfs.run(g, src, kUnreachable);
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    for (NodeId dst : targets) {
      if (ws.bfs.dist(dst) == kUnreachable) {
        throw NotConnected("virtual link endpoints are disconnected in G");
      }
      VirtualLink link;
      link.u = src;
      link.v = dst;
      link.hops = ws.bfs.dist(dst);
      link.path = ws.bfs.extract_path(dst);
      links.push_back(std::move(link));
    }
  }
  return VirtualLinkMap::from_links(std::move(links));
}

GmstResult gmst_gateways(const Graph& g, const Clustering& c) {
  KHOP_REQUIRE(!c.heads.empty(), "clustering has no heads");
  const std::size_t h = c.heads.size();

  // Complete virtual graph over heads; indices into c.heads.
  std::vector<WeightedEdge> edges;
  edges.reserve(h * (h - 1) / 2);
  for (std::size_t i = 0; i < h; ++i) {
    const BfsTree tree = bfs(g, c.heads[i]);
    for (std::size_t j = i + 1; j < h; ++j) {
      const Hops d = tree.dist[c.heads[j]];
      KHOP_ASSERT(d != kUnreachable, "heads disconnected in G");
      edges.push_back(
          {static_cast<NodeId>(i), static_cast<NodeId>(j), d});
    }
  }

  GmstResult r;
  // Head indices are ascending in id, so index tie-breaking == id
  // tie-breaking; translate back to ids afterwards.
  for (const auto& e : kruskal_mst(h, std::move(edges))) {
    r.tree.push_back({c.heads[e.u], c.heads[e.v], e.weight});
  }

  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(r.tree.size());
  for (const auto& e : r.tree) {
    pairs.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v));
  }
  const VirtualLinkMap links = build_virtual_links(g, pairs);

  std::sort(pairs.begin(), pairs.end());
  r.kept_links = pairs;
  for (const auto& [u, v] : pairs) {
    const VirtualLink& link = links.link(u, v);
    for (std::size_t i = 1; i + 1 < link.path.size(); ++i) {
      const NodeId w = link.path[i];
      if (!c.is_head(w)) r.gateways.push_back(w);
    }
  }
  std::sort(r.gateways.begin(), r.gateways.end());
  r.gateways.erase(std::unique(r.gateways.begin(), r.gateways.end()),
                   r.gateways.end());
  return r;
}

namespace {

/// Set of selected unordered pairs for O(log) membership tests.
using PairSet = std::set<std::pair<NodeId, NodeId>>;

std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
  return {std::min(a, b), std::max(a, b)};
}

}  // namespace

LmstResult lmst_gateways(const Clustering& c, const NeighborSelection& sel,
                         const VirtualLinkMap& links, LmstKeepRule keep) {
  KHOP_REQUIRE(sel.selected.size() == c.heads.size(),
               "selection does not match clustering");
  const PairSet pair_set(sel.head_pairs.begin(), sel.head_pairs.end());

  // Directed keep decisions: (head u, neighbor v) kept by u's local MST.
  std::set<std::pair<NodeId, NodeId>> kept_directed;

  for (std::uint32_t i = 0; i < c.heads.size(); ++i) {
    const NodeId u = c.heads[i];
    const auto& nbrs = sel.selected[i];
    if (nbrs.empty()) continue;

    // Local node set {u} ∪ S(u), ascending by head id. Local index order is
    // therefore id order, so comparing local indices == comparing ids, which
    // keeps edge_less's tie-breaking faithful to the paper's id rule.
    std::vector<NodeId> local_nodes;
    local_nodes.reserve(nbrs.size() + 1);
    local_nodes.push_back(u);
    local_nodes.insert(local_nodes.end(), nbrs.begin(), nbrs.end());
    std::sort(local_nodes.begin(), local_nodes.end());

    std::map<NodeId, NodeId> local_of;  // head id -> local index
    for (NodeId li = 0; li < local_nodes.size(); ++li) {
      local_of[local_nodes[li]] = li;
    }

    // Local virtual-edge adjacency: every selected pair with both endpoints
    // in the local set (u knows these from its neighbors' broadcasts).
    std::vector<std::vector<WeightedEdge>> adj(local_nodes.size());
    for (std::size_t a = 0; a < local_nodes.size(); ++a) {
      for (std::size_t b = a + 1; b < local_nodes.size(); ++b) {
        const auto p = ordered(local_nodes[a], local_nodes[b]);
        if (!pair_set.contains(p)) continue;
        const Hops w = links.link(p.first, p.second).hops;
        adj[a].push_back({static_cast<NodeId>(a), static_cast<NodeId>(b), w});
        adj[b].push_back({static_cast<NodeId>(b), static_cast<NodeId>(a), w});
      }
    }

    // The local graph is connected: u has a selected pair with every member
    // of S(u) by construction.
    const std::vector<NodeId> parent =
        prim_mst(local_nodes.size(), adj, local_of.at(u));

    // u keeps exactly the on-tree links incident to itself.
    const NodeId u_local = local_of.at(u);
    for (NodeId li = 0; li < local_nodes.size(); ++li) {
      if (parent[li] == u_local) {
        kept_directed.emplace(u, local_nodes[li]);
      } else if (li == u_local && parent[li] != kInvalidNode) {
        kept_directed.emplace(u, local_nodes[parent[li]]);
      }
    }
  }

  // Realize links per the keep rule (union by default, intersection as the
  // stricter LMST G0 ∩ G1 variant).
  LmstResult r;
  std::set<std::pair<NodeId, NodeId>> undirected;
  for (const auto& [from, to] : kept_directed) {
    undirected.insert(ordered(from, to));
  }
  for (const auto& p : undirected) {
    const bool fwd = kept_directed.contains({p.first, p.second});
    const bool rev = kept_directed.contains({p.second, p.first});
    if (fwd != rev) ++r.asymmetric_links;
    if (keep == LmstKeepRule::kBothEndpoints && !(fwd && rev)) continue;
    r.kept_links.push_back(p);
  }

  for (const auto& [u, v] : r.kept_links) {
    const VirtualLink& link = links.link(u, v);
    for (std::size_t i = 1; i + 1 < link.path.size(); ++i) {
      const NodeId w = link.path[i];
      if (!c.is_head(w)) r.gateways.push_back(w);
    }
  }
  std::sort(r.gateways.begin(), r.gateways.end());
  r.gateways.erase(std::unique(r.gateways.begin(), r.gateways.end()),
                   r.gateways.end());
  return r;
}

Backbone build_backbone(const Graph& g, const Clustering& c,
                        const BackboneSpec& spec) {
  Backbone b;
  b.spec = spec;
  b.heads = c.heads;

  if (spec.gateway == GatewayAlgorithm::kGmst) {
    GmstResult r = reference::gmst_gateways(g, c);
    b.gateways = std::move(r.gateways);
    b.virtual_links = std::move(r.kept_links);
    return b;
  }

  const NeighborSelection sel =
      reference::select_neighbors(g, c, spec.neighbor_rule);
  const VirtualLinkMap links = build_virtual_links(g, sel.head_pairs);

  if (spec.gateway == GatewayAlgorithm::kMesh) {
    MeshResult r = mesh_gateways(c, sel, links);
    b.gateways = std::move(r.gateways);
    b.virtual_links = std::move(r.kept_links);
  } else {
    LmstResult r = reference::lmst_gateways(c, sel, links, spec.lmst_keep);
    b.gateways = std::move(r.gateways);
    b.virtual_links = std::move(r.kept_links);
  }
  return b;
}

Backbone build_backbone(const Graph& g, const Clustering& c, Pipeline p) {
  Backbone b = reference::build_backbone(g, c, spec_for(p));
  b.pipeline = p;
  return b;
}

}  // namespace khop::reference
