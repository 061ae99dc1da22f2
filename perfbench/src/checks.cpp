#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>

namespace perfbench {

using namespace khop;

namespace {

template <typename... Args>
std::string describe(const Args&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

bool strictly_ascending(const std::vector<NodeId>& v) {
  return std::adjacent_find(v.begin(), v.end(), std::greater_equal<>()) ==
         v.end();
}

}  // namespace

std::string check_unit_disk_graph(const Graph& g, const std::vector<Point2>& pts,
                                  double radius) {
  const std::size_t n = g.num_nodes();
  if (pts.size() != n) return "graph and positions differ in size";
  if (n == 0) return {};
  const double r2 = radius * radius;
  for (NodeId u = 0; u < n; ++u) {
    const auto row = g.neighbors(u);
    for (std::size_t i = 0; i < row.size(); ++i) {
      const NodeId v = row[i];
      if (v >= n || v == u || (i > 0 && row[i - 1] >= v)) {
        return describe("row ", u, " is not a strictly ascending list of "
                        "other nodes");
      }
      if (distance_sq(pts[u], pts[v]) > r2) {
        return describe("edge (", u, ",", v, ") is longer than the radius");
      }
      const auto back = g.neighbors(v);
      if (!std::binary_search(back.begin(), back.end(), u)) {
        return describe("edge (", u, ",", v, ") is listed one way only");
      }
    }
  }

  // Bucket the points into square cells no smaller than the radius (and at
  // most about n of them), so the 3x3 cells around a point hold every point
  // within the radius.
  double x0 = pts[0].x, x1 = pts[0].x, y0 = pts[0].y, y1 = pts[0].y;
  for (const Point2& p : pts) {
    x0 = std::min(x0, p.x);
    x1 = std::max(x1, p.x);
    y0 = std::min(y0, p.y);
    y1 = std::max(y1, p.y);
  }
  const double cell = std::max(
      radius, std::max(x1 - x0, y1 - y0) / std::sqrt(static_cast<double>(n)));
  const auto cols = static_cast<std::size_t>((x1 - x0) / cell) + 1;
  const auto rows = static_cast<std::size_t>((y1 - y0) / cell) + 1;
  const auto col_of = [&](const Point2& p) {
    return std::min(static_cast<std::size_t>((p.x - x0) / cell), cols - 1);
  };
  const auto row_of = [&](const Point2& p) {
    return std::min(static_cast<std::size_t>((p.y - y0) / cell), rows - 1);
  };
  std::vector<std::size_t> start(cols * rows + 1, 0);
  for (const Point2& p : pts) ++start[row_of(p) * cols + col_of(p) + 1];
  for (std::size_t c = 0; c < cols * rows; ++c) start[c + 1] += start[c];
  std::vector<NodeId> members(n);
  std::vector<std::size_t> fill(start.begin(), start.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    members[fill[row_of(pts[u]) * cols + col_of(pts[u])]++] = u;
  }
  for (NodeId u = 0; u < n; ++u) {
    const std::size_t cx = col_of(pts[u]), cy = row_of(pts[u]);
    std::size_t within = 0;
    for (std::size_t y = cy > 0 ? cy - 1 : 0; y <= std::min(cy + 1, rows - 1);
         ++y) {
      for (std::size_t x = cx > 0 ? cx - 1 : 0;
           x <= std::min(cx + 1, cols - 1); ++x) {
        const std::size_t c = y * cols + x;
        for (std::size_t i = start[c]; i < start[c + 1]; ++i) {
          const NodeId v = members[i];
          if (v != u && distance_sq(pts[u], pts[v]) <= r2) ++within;
        }
      }
    }
    if (within != g.degree(u)) {
      return describe("node ", u, " has degree ", g.degree(u), " but ", within,
                      " nodes within the radius");
    }
  }
  return {};
}

std::string check_clustering(const Graph& g, const Clustering& c,
                             Workspace& ws) {
  const std::size_t n = g.num_nodes();
  if (c.head_of.size() != n || c.dist_to_head.size() != n) {
    return "clustering vectors are not sized to the graph";
  }
  if (!strictly_ascending(c.heads)) return "heads are not strictly ascending";
  std::size_t self_headed = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (c.head_of[v] >= n) return describe("node ", v, " has no head");
    if (c.head_of[v] == v) ++self_headed;
  }
  for (NodeId h : c.heads) {
    if (h >= n || c.head_of[h] != h || c.dist_to_head[h] != 0) {
      return describe("head ", h, " is not its own head at distance 0");
    }
  }
  if (self_headed != c.heads.size()) {
    return describe(self_headed, " nodes head themselves but ", c.heads.size(),
                    " heads are listed");
  }
  if (!c.cluster_of.empty()) {
    for (NodeId v = 0; v < n; ++v) {
      if (c.cluster_of[v] >= c.heads.size() ||
          c.heads[c.cluster_of[v]] != c.head_of[v]) {
        return describe("node ", v, " has an inconsistent cluster index");
      }
    }
  }

  // One k-bounded BFS per head: any other head inside the ball breaks
  // independence; every member inside it gets its distance confirmed.
  std::vector<std::uint8_t> confirmed(n, 0);
  for (NodeId h : c.heads) {
    ws.bfs.run(g, h, c.k);
    for (NodeId v : ws.bfs.reached()) {
      const Hops d = ws.bfs.dist(v);
      if (v != h && c.head_of[v] == v) {
        return describe("heads ", h, " and ", v, " are ", d,
                        " hops apart; k = ", c.k);
      }
      if (c.head_of[v] != h) continue;
      if (c.dist_to_head[v] != d) {
        return describe("node ", v, " records distance ", c.dist_to_head[v],
                        " to head ", h, " but BFS says ", d);
      }
      confirmed[v] = 1;
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (confirmed[v] == 0) {
      return describe("node ", v, " is not within k = ", c.k,
                      " hops of its head ", c.head_of[v]);
    }
  }
  return {};
}

std::string check_backbone(const Graph& g, const Clustering& c,
                           const Backbone& b, Workspace& ws) {
  const std::size_t n = g.num_nodes();
  if (b.heads != c.heads) return "backbone heads differ from the clustering";
  if (!strictly_ascending(b.gateways)) {
    return "gateways are not strictly ascending";
  }
  std::vector<std::uint8_t> in_cds(n, 0);
  for (NodeId h : b.heads) in_cds[h] = 1;
  for (NodeId w : b.gateways) {
    if (w >= n) return describe("gateway ", w, " is out of range");
    if (in_cds[w] != 0) return describe("node ", w, " is head and gateway");
    in_cds[w] = 1;
  }
  for (const auto& [u, v] : b.virtual_links) {
    if (u >= n || v >= n || u == v || in_cds[u] == 0 || in_cds[v] == 0 ||
        c.head_of[u] != u || c.head_of[v] != v) {
      return describe("virtual link (", u, ",", v, ") does not join two heads");
    }
  }
  if (b.heads.empty()) return "backbone has no heads";

  // Connectivity: BFS over the subgraph induced by heads + gateways.
  std::vector<NodeId> queue{b.heads.front()};
  std::vector<std::uint8_t> seen(n, 0);
  seen[b.heads.front()] = 1;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    for (NodeId w : g.neighbors(queue[i])) {
      if (in_cds[w] != 0 && seen[w] == 0) {
        seen[w] = 1;
        queue.push_back(w);
      }
    }
  }
  if (queue.size() != b.cds_size()) {
    return describe("CDS is disconnected: one component holds ", queue.size(),
                    " of ", b.cds_size(), " nodes");
  }

  // Domination: every node within k hops of some head.
  ws.bfs.run_multi(g, b.heads);
  for (NodeId v = 0; v < n; ++v) {
    const Hops d = ws.bfs.dist(v);
    if (d == kUnreachable || d > c.k) {
      return describe("node ", v, " is not within k = ", c.k,
                      " hops of a head");
    }
  }
  return {};
}

std::string check_discovery(const Graph& g, const KnownOf& known,
                            const SimStats& stats, bool lossy) {
  std::size_t missing = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const KnownTable& table = known(v);
    std::size_t found = 0;
    for (NodeId u : g.neighbors(v)) {
      const KnownRecord* rec = table.find(u);
      if (rec == nullptr) {
        ++missing;
        continue;
      }
      if (rec->dist != 1 || rec->parent != u) {
        return describe("node ", v, " records neighbour ", u, " at distance ",
                        rec->dist, " via ", rec->parent);
      }
      ++found;
    }
    if (table.size() != found) {
      return describe("node ", v, " knows ", table.size() - found,
                      " nodes that are not its neighbours");
    }
  }
  if (!lossy && (missing != 0 || stats.drops != 0)) {
    return describe("ideal flood lost ", missing, " neighbour entries (",
                    stats.drops, " drops counted)");
  }
  if (missing != stats.drops) {
    return describe(missing, " neighbour entries are missing but the flood "
                    "counted ", stats.drops, " drops");
  }
  const std::size_t deliveries = 2 * g.num_edges();
  if (stats.transmissions != g.num_nodes() ||
      stats.receptions + stats.drops != deliveries) {
    return describe("flood counters disagree with the graph: ",
                    stats.transmissions, " transmissions, ", stats.receptions,
                    " receptions, ", stats.drops, " drops for ",
                    g.num_nodes(), " nodes and ", deliveries, " deliveries");
  }
  return {};
}

std::string check_lossy_counts(const SimStats& stats, std::size_t deliveries,
                               double loss, std::size_t retry_budget) {
  const auto retries = static_cast<double>(retry_budget);
  const auto drops = static_cast<double>(stats.drops);
  const auto retx = static_cast<double>(stats.retransmissions);
  // A final drop used every retry; no delivery retries more than the budget.
  if (retx < retries * drops ||
      retx > retries * static_cast<double>(deliveries)) {
    return describe(stats.retransmissions, " retransmissions are outside [",
                    retries * drops, ", ",
                    retries * static_cast<double>(deliveries), "]");
  }
  const double p_drop = std::pow(loss, retries + 1.0);
  const double mean = static_cast<double>(deliveries) * p_drop;
  const double slack = 6.0 * std::sqrt(mean * (1.0 - p_drop)) + 6.0;
  if (drops > mean + slack || drops < mean - slack) {
    return describe(stats.drops, " drops are outside ", mean, " +- ", slack,
                    " (delivery ratio floor ",
                    1.0 - (mean + slack) / static_cast<double>(deliveries),
                    ")");
  }
  return {};
}

std::string compare_engines(const ChurnEngine& a, const ChurnEngine& b) {
  const DynamicGraph& ga = a.graph();
  const DynamicGraph& gb = b.graph();
  if (ga.capacity() != gb.capacity() || ga.num_alive() != gb.num_alive() ||
      ga.num_edges() != gb.num_edges()) {
    return "topology sizes differ";
  }
  for (NodeId v = 0; v < ga.capacity(); ++v) {
    if (ga.alive(v) != gb.alive(v)) {
      return describe("node ", v, " liveness differs");
    }
    if (!ga.alive(v)) continue;
    const auto na = ga.neighbors(v);
    const auto nb = gb.neighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) {
      return describe("node ", v, " neighbours differ");
    }
  }
  const Clustering& ca = a.clustering();
  const Clustering& cb = b.clustering();
  if (ca.heads != cb.heads) return "clustering heads differ";
  if (ca.head_of != cb.head_of) return "clustering head_of differs";
  if (ca.dist_to_head != cb.dist_to_head) {
    return "clustering dist_to_head differs";
  }

  const auto sorted = [](auto v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  const Backbone& ba = a.backbone();
  const Backbone& bb = b.backbone();
  if (sorted(ba.heads) != sorted(bb.heads)) return "backbone heads differ";
  if (sorted(ba.gateways) != sorted(bb.gateways)) {
    return "backbone gateways differ";
  }
  if (sorted(ba.virtual_links) != sorted(bb.virtual_links)) {
    return "backbone virtual links differ";
  }

  const auto link_rows = [](const VirtualLinkMap& m) {
    std::vector<std::tuple<NodeId, NodeId, Hops, std::vector<NodeId>>> rows;
    rows.reserve(m.all().size());
    for (const VirtualLink& l : m.all()) {
      rows.emplace_back(l.u, l.v, l.hops, l.path);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  if (link_rows(a.virtual_links()) != link_rows(b.virtual_links())) {
    return "virtual link paths differ";
  }

  const ChurnCounters& sa = a.stats();
  const ChurnCounters& sb = b.stats();
  const auto fields = [](const ChurnCounters& s) {
    return std::vector<std::size_t>{
        s.events,          s.fails,         s.joins,       s.link_downs,
        s.link_ups,        s.noop_events,   s.full_rebuilds, s.orphans,
        s.reaffiliations,  s.new_heads,     s.heads_resweeped,
        s.touched_nodes,   s.partitions,    s.merges,      s.audits};
  };
  if (fields(sa) != fields(sb)) return "churn counters differ";
  if (a.num_components() != b.num_components()) {
    return "component counts differ";
  }
  return {};
}

}  // namespace perfbench
