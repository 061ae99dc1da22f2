#include "khop/gateway/virtual_link.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "khop/cluster/clustering.hpp"
#include "khop/common/assert.hpp"
#include "khop/gateway/head_sweep.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

std::uint64_t VirtualLinkMap::key(NodeId a, NodeId b) noexcept {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

VirtualLinkMap VirtualLinkMap::from_links(std::vector<VirtualLink> links) {
  VirtualLinkMap m;
  m.links_ = std::move(links);
  m.index_.reserve(m.links_.size());
  for (std::size_t i = 0; i < m.links_.size(); ++i) {
    const VirtualLink& l = m.links_[i];
    KHOP_REQUIRE(l.u < l.v, "virtual link endpoints must be (smaller, larger)");
    const bool inserted = m.index_.emplace(key(l.u, l.v), i).second;
    KHOP_REQUIRE(inserted, "duplicate virtual link pair");
  }
  return m;
}

VirtualLinkMap VirtualLinkMap::build_bounded(
    const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs,
    Hops horizon, Workspace& ws) {
  // Normalized to (min,max), sorted and unique: source-major with ascending
  // targets, so each run of one source is that head's partner list.
  std::vector<std::pair<NodeId, NodeId>> np;
  np.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    KHOP_REQUIRE(a != b, "virtual link endpoints must differ");
    np.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(np.begin(), np.end());
  np.erase(std::unique(np.begin(), np.end()), np.end());
  std::vector<NodeId> targets;
  targets.reserve(np.size());
  for (const auto& p : np) targets.push_back(p.second);

  // Every sweep appends its links to one slice, in ascending source order.
  HeadSlice s;
  s.links.reserve(np.size());
  std::size_t fallbacks = 0;
  for (std::size_t first = 0, last = 0; first < np.size(); first = last) {
    while (last < np.size() && np[last].first == np[first].first) ++last;
    s.fallback = false;
    sweep_head(g, np[first].first, horizon, nullptr,
               std::span<const NodeId>(targets).subspan(first, last - first),
               ws.bfs, s);
    fallbacks += s.fallback ? 1 : 0;
  }
  VirtualLinkMap m = from_links(std::move(s.links));
  m.bounded_fallbacks_ = fallbacks;
  return m;
}

VirtualLinkMap VirtualLinkMap::build(
    const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  return build_bounded(g, pairs, kUnreachable, tls_workspace());
}

const VirtualLink& VirtualLinkMap::link(NodeId a, NodeId b) const {
  const auto it = index_.find(key(a, b));
  KHOP_REQUIRE(it != index_.end(), "virtual link not built for this pair");
  return links_[it->second];
}

bool VirtualLinkMap::contains(NodeId a, NodeId b) const {
  return index_.contains(key(a, b));
}

void VirtualLinkMap::insert(VirtualLink l) {
  KHOP_REQUIRE(l.u < l.v, "virtual link endpoints must be (smaller, larger)");
  const auto [it, inserted] = index_.emplace(key(l.u, l.v), links_.size());
  if (inserted) {
    links_.push_back(std::move(l));
  } else {
    links_[it->second] = std::move(l);
  }
}

bool VirtualLinkMap::erase(NodeId a, NodeId b) {
  const auto it = index_.find(key(a, b));
  if (it == index_.end()) return false;
  const std::size_t pos = it->second;
  index_.erase(it);
  if (pos + 1 != links_.size()) {
    links_[pos] = std::move(links_.back());
    index_[key(links_[pos].u, links_[pos].v)] = pos;
  }
  links_.pop_back();
  return true;
}

std::vector<NodeId> link_gateways(
    const Clustering& c, const VirtualLinkMap& links,
    const std::vector<std::pair<NodeId, NodeId>>& kept) {
  std::vector<NodeId> gateways;
  for (const auto& [u, v] : kept) {
    const std::vector<NodeId>& path = links.link(u, v).path;
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      if (!c.is_head(path[i])) gateways.push_back(path[i]);
    }
  }
  std::sort(gateways.begin(), gateways.end());
  gateways.erase(std::unique(gateways.begin(), gateways.end()),
                 gateways.end());
  return gateways;
}

}  // namespace khop
