/// \file checks.hpp
/// Output checks that run in linear time, so they finish at n = 10^6.
///
/// cluster/validate.cpp runs one unbounded BFS per head, which is quadratic
/// in practice (~74k heads at n = 10^6). These checks bound every BFS:
///  * check_unit_disk_graph: every listed edge is symmetric and no longer
///    than the radius, and every degree equals a neighbour count taken on a
///    bucket grid of the check's own (so no edge is missing);
///  * check_clustering: one k-bounded BFS per head proves head independence
///    and the exact dist_to_head of every member (hence k-hop domination);
///  * check_backbone: one BFS restricted to heads + gateways proves the CDS
///    connected, and one multi-source BFS from the heads proves k-hop
///    domination;
///  * check_discovery: every node's KnownTable after a k = 1 flood equals
///    its neighbour set, except for exactly the deliveries the flood counts
///    as dropped;
///  * check_lossy_counts: invariants of a lossy flood's counters that hold
///    for any random stream with the given loss rate and retry budget.
/// Every check returns "" on success, else the first violation found.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/dynamic/churn_engine.hpp"
#include "khop/geom/point.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/graph/graph.hpp"
#include "khop/runtime/workspace.hpp"
#include "khop/sim/message.hpp"
#include "khop/sim/protocols/neighborhood.hpp"

namespace perfbench {

std::string check_unit_disk_graph(const khop::Graph& g,
                                  const std::vector<khop::Point2>& pts,
                                  double radius);

std::string check_clustering(const khop::Graph& g, const khop::Clustering& c,
                             khop::Workspace& ws);

std::string check_backbone(const khop::Graph& g, const khop::Clustering& c,
                           const khop::Backbone& b, khop::Workspace& ws);

/// Discovery table of node v after a flood.
using KnownOf = std::function<const khop::KnownTable&(khop::NodeId)>;

/// \p lossy: drops are allowed, but the missing entries must number exactly
/// stats.drops; otherwise none may be missing.
std::string check_discovery(const khop::Graph& g, const KnownOf& known,
                            const khop::SimStats& stats, bool lossy);

/// \p deliveries: per-link deliveries the flood attempted (2m at k = 1).
/// Checks retransmissions against the retry budget, and the drop count
/// against a band of six standard deviations around deliveries * loss^(r+1)
/// (which also gives the delivery-ratio floor).
std::string check_lossy_counts(const khop::SimStats& stats,
                               std::size_t deliveries, double loss,
                               std::size_t retry_budget);

/// Field-by-field equality of two churn engines: topology, clustering
/// (heads, head_of, dist_to_head), backbone, virtual links and counters.
std::string compare_engines(const khop::ChurnEngine& a,
                            const khop::ChurnEngine& b);

}  // namespace perfbench
