#include "khop/gateway/gmst.hpp"

#include <algorithm>
#include <utility>

#include "khop/common/error.hpp"
#include "khop/gateway/head_sweep.hpp"

namespace khop {

namespace {

/// The head graph over head indices. Heads ascend in id, so each link
/// (u < v) gives an edge with i < j, and index tie-breaking == id
/// tie-breaking.
std::vector<WeightedEdge> head_graph(const Clustering& c,
                                     const VirtualLinkMap& links) {
  std::vector<WeightedEdge> edges;
  edges.reserve(links.all().size());
  for (const VirtualLink& l : links.all()) {
    edges.push_back({c.cluster_of[l.u], c.cluster_of[l.v], l.hops});
  }
  return edges;
}

}  // namespace

GmstResult gmst_gateways(const Graph& g, const Clustering& c, Workspace& ws,
                         ThreadPool* pool) {
  const std::size_t h = c.heads.size();
  HeadSweep sweep = nc_sweep(g, c, 2 * c.k + 1, ws, pool);
  std::vector<WeightedEdge> tree;
  try {
    tree = kruskal_mst(h, head_graph(c, sweep.links));
  } catch (const NotConnected&) {
    // The bounded head graph spans whenever every node is within k hops of
    // its head (see file comment); an invariant-violating clustering gets
    // the complete virtual graph instead. Kruskal's order is a strict total
    // order on head pairs, and every omitted edge sorts after the spanning
    // bounded set, so on spanning inputs both graphs give the same MST.
    sweep = nc_sweep(g, c, kUnreachable, ws, pool);
    tree = kruskal_mst(h, head_graph(c, sweep.links));
  }

  GmstResult r;
  r.tree.reserve(tree.size());
  r.kept_links.reserve(tree.size());
  for (const auto& e : tree) {
    const NodeId u = c.heads[e.u];
    const NodeId v = c.heads[e.v];
    r.tree.push_back({u, v, e.weight});
    r.kept_links.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(r.kept_links.begin(), r.kept_links.end());
  for (const auto& [u, v] : r.kept_links) {
    const VirtualLink& link = sweep.links.link(u, v);
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

}  // namespace khop
