#include "khop/gateway/head_sweep.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "khop/common/assert.hpp"
#include "khop/common/error.hpp"
#include "khop/graph/dynamic_graph.hpp"
#include "khop/obs/metrics.hpp"
#include "khop/obs/telemetry.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

template <typename GraphT>
void sweep_head(const GraphT& g, NodeId u, Hops horizon,
                const Clustering* discover, std::span<const NodeId> partners,
                BfsScratch& bfs, HeadSlice& out) {
  if (discover == nullptr && (partners.empty() || partners.back() <= u)) {
    return;  // every given pair belongs to its other endpoint's sweep
  }
  bfs.run(g, u, horizon);
  if (discover != nullptr) {
    for (NodeId w : bfs.reached()) {
      if (w != u && discover->is_head(w)) out.selected.push_back(w);
    }
    // The reached set is level-ordered; selections are id-ordered (NC
    // discovery never yields duplicates).
    std::sort(out.selected.begin(), out.selected.end());
    partners = out.selected;
  }
  const auto owned = partners.subspan(static_cast<std::size_t>(
      std::upper_bound(partners.begin(), partners.end(), u) -
      partners.begin()));
  if (horizon != kUnreachable &&
      std::any_of(owned.begin(), owned.end(),
                  [&](NodeId v) { return bfs.dist(v) == kUnreachable; })) {
    bfs.run(g, u, kUnreachable);
    out.fallback = true;
  }
  out.links.reserve(out.links.size() + owned.size());
  for (NodeId v : owned) {
    if (bfs.dist(v) == kUnreachable) {
      throw NotConnected("virtual link endpoints are disconnected in G");
    }
    out.links.push_back({u, v, bfs.dist(v), bfs.extract_path(v)});
  }
}

template void sweep_head(const Graph&, NodeId, Hops, const Clustering*,
                         std::span<const NodeId>, BfsScratch&, HeadSlice&);
template void sweep_head(const DynamicGraph&, NodeId, Hops, const Clustering*,
                         std::span<const NodeId>, BfsScratch&, HeadSlice&);

HeadSweep nc_sweep(const Graph& g, const Clustering& c, Hops horizon,
                   Workspace& ws) {
  KHOP_REQUIRE(!c.heads.empty(), "clustering has no heads");
  // Per-head neighbor-head counts measure the density of the head overlay
  // the gateway stage prunes; observational only.
  obs::Histogram* neighbors =
      obs::enabled()
          ? &obs::Registry::global().histogram("backbone.head_neighbors")
          : nullptr;
  // Heads ascend in id and each head's links are appended in turn, so link
  // order is source-major ascending — the order
  // VirtualLinkMap::build_bounded gives.
  HeadSweep r;
  r.sel.rule = NeighborRule::kAllWithin2k1;
  r.sel.selected.resize(c.heads.size());
  std::vector<VirtualLink> links;
  HeadSlice s;
  for (std::size_t i = 0; i < c.heads.size(); ++i) {
    const NodeId u = c.heads[i];
    s.selected.clear();
    s.links.clear();
    sweep_head(g, u, horizon, &c, {}, ws.bfs, s);
    if (neighbors != nullptr) neighbors->record(s.selected.size());
    for (NodeId v : s.selected) {
      r.sel.head_pairs.emplace_back(std::min(u, v), std::max(u, v));
    }
    r.sel.selected[i] = s.selected;
    std::move(s.links.begin(), s.links.end(), std::back_inserter(links));
  }
  r.sel = finalize_selection(std::move(r.sel));
  r.links = VirtualLinkMap::from_links(std::move(links));
  return r;
}

}  // namespace khop
