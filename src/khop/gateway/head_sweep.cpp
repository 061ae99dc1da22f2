#include "khop/gateway/head_sweep.hpp"

#include <algorithm>
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
                   Workspace& ws, ThreadPool* pool) {
  KHOP_REQUIRE(!c.heads.empty(), "clustering has no heads");
  std::vector<HeadSlice> slots(c.heads.size());
  for_each_index(c.heads.size(), ws, pool, [&](std::size_t i, Workspace& w) {
    sweep_head(g, c.heads[i], horizon, &c, {}, w.bfs, slots[i]);
  });

  // Per-head neighbor-head counts measure the density of the head overlay
  // the gateway stage prunes; observational only.
  if (obs::enabled()) {
    obs::Histogram& h =
        obs::Registry::global().histogram("backbone.head_neighbors");
    for (const HeadSlice& s : slots) h.record(s.selected.size());
  }
  // Head-index-ordered merge. Heads ascend in id, so link order is
  // source-major ascending — the order VirtualLinkMap::build_bounded gives.
  HeadSweep r;
  r.sel.rule = NeighborRule::kAllWithin2k1;
  r.sel.selected.resize(c.heads.size());
  std::vector<VirtualLink> links;
  for (std::uint32_t i = 0; i < c.heads.size(); ++i) {
    const NodeId u = c.heads[i];
    for (NodeId v : slots[i].selected) {
      r.sel.head_pairs.emplace_back(std::min(u, v), std::max(u, v));
    }
    r.sel.selected[i] = std::move(slots[i].selected);
    for (VirtualLink& l : slots[i].links) links.push_back(std::move(l));
  }
  r.sel = finalize_selection(std::move(r.sel));
  r.links = VirtualLinkMap::from_links(std::move(links));
  return r;
}

}  // namespace khop
