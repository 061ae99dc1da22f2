/// \file gmst.hpp
/// G-MST: the centralized global-minimum-spanning-tree baseline the paper
/// uses as a lower bound. Builds the virtual graph over all clusterheads
/// (weight = hop distance in G), takes its MST, and marks the interior nodes
/// of the tree edges' canonical shortest paths as gateways.
///
/// The virtual graph is the NC head sweep's (gateway/head_sweep.hpp) links
/// (u, v, hops), and the gateways are read off the same links' paths, so
/// G-MST runs no BFS of its own. Dropping the > 2k+1 pairs cannot change
/// the MST: every node sits within k hops of its head, so walking any
/// shortest path between two heads yields a head chain whose edges are all
/// <= 2k+1 — a cycle in which any longer edge is the strict maximum (cycle
/// property). If the bounded head graph fails to span (input violating the
/// clustering invariant), the same sweep reruns at kUnreachable to give the
/// complete graph, so the output stays bit-identical to the reference on
/// every input.
#pragma once

#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/gateway/virtual_link.hpp"
#include "khop/graph/mst.hpp"

namespace khop {

struct Workspace;
class ThreadPool;

struct GmstResult {
  /// MST edges over head ids (weights are hop distances).
  std::vector<WeightedEdge> tree;
  /// Realized head pairs, (min,max), sorted.
  std::vector<std::pair<NodeId, NodeId>> kept_links;
  /// Interior nodes of tree-edge paths, minus heads. Sorted.
  std::vector<NodeId> gateways;
};

/// Computes the G-MST backbone for \p c over \p g; the head sweeps run
/// serially on \p ws, or across \p pool (bit-identical output).
GmstResult gmst_gateways(const Graph& g, const Clustering& c, Workspace& ws,
                         ThreadPool* pool = nullptr);

}  // namespace khop
