#include "khop/graph/bfs.hpp"

#include <algorithm>

#include "khop/common/assert.hpp"

namespace khop {

namespace {

/// Per-thread scratch backing the allocating signatures, so they pay no
/// per-call frontier/mark allocations. Thread-local keeps them safe under
/// parallel_for. Callers on a hot path run a BfsScratch of their own.
BfsScratch& wrapper_scratch() {
  thread_local BfsScratch ws;
  return ws;
}

BfsTree bounded_tree(const Graph& g, NodeId source, Hops max_hops) {
  BfsScratch& ws = wrapper_scratch();
  ws.run(g, source, max_hops);
  BfsTree t;
  t.source = source;
  t.dist.assign(g.num_nodes(), kUnreachable);
  t.parent.assign(g.num_nodes(), kInvalidNode);
  for (NodeId v : ws.reached()) {
    t.dist[v] = ws.dist(v);
    t.parent[v] = ws.parent(v);
  }
  return t;
}

}  // namespace

BfsTree bfs(const Graph& g, NodeId source) {
  return bounded_tree(g, source, kUnreachable);
}

BfsTree bfs_bounded(const Graph& g, NodeId source, Hops max_hops) {
  return bounded_tree(g, source, max_hops);
}

std::vector<NodeId> k_hop_neighborhood(const Graph& g, NodeId source, Hops k) {
  BfsScratch& ws = wrapper_scratch();
  ws.run(g, source, k);
  // reached() is level-ordered and includes the source; the contract is
  // ascending ids without the source.
  std::vector<NodeId> out;
  for (NodeId v : ws.reached()) {
    if (v != source) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> extract_path(const BfsTree& tree, NodeId target) {
  KHOP_REQUIRE(target < tree.dist.size(), "path target out of range");
  KHOP_REQUIRE(tree.dist[target] != kUnreachable,
               "target unreachable from BFS source");
  std::vector<NodeId> path;
  for (NodeId v = target; v != kInvalidNode; v = tree.parent[v]) {
    path.push_back(v);
  }
  std::reverse(path.begin(), path.end());
  KHOP_ASSERT(path.front() == tree.source, "path does not start at source");
  return path;
}

MultiSourceBfs multi_source_bfs(const Graph& g,
                                const std::vector<NodeId>& seeds) {
  BfsScratch& ws = wrapper_scratch();
  ws.run_multi(g, seeds);
  MultiSourceBfs r;
  r.dist.assign(g.num_nodes(), kUnreachable);
  r.owner.assign(g.num_nodes(), kInvalidNode);
  for (NodeId v : ws.reached()) {
    r.dist[v] = ws.dist(v);
    r.owner[v] = ws.owner(v);
  }
  return r;
}

std::vector<std::vector<Hops>> all_pairs_hops(const Graph& g) {
  std::vector<std::vector<Hops>> d(g.num_nodes());
  BfsScratch ws;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ws.run(g, u, kUnreachable);
    d[u].assign(g.num_nodes(), kUnreachable);
    for (NodeId v : ws.reached()) d[u][v] = ws.dist(v);
  }
  return d;
}

}  // namespace khop
