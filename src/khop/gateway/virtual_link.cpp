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
    Hops horizon, Workspace& ws, ThreadPool* pool) {
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
  // Source i owns targets [first[i], first[i + 1]).
  std::vector<NodeId> targets;
  std::vector<std::size_t> first;
  targets.reserve(np.size());
  for (std::size_t i = 0; i < np.size(); ++i) {
    if (i == 0 || np[i].first != np[i - 1].first) first.push_back(i);
    targets.push_back(np[i].second);
  }
  first.push_back(np.size());
  std::vector<HeadSlice> slots(first.size() - 1);
  const std::span<const NodeId> all_targets(targets);
  for_each_index(slots.size(), ws, pool, [&](std::size_t i, Workspace& w) {
    sweep_head(g, np[first[i]].first, horizon, nullptr,
               all_targets.subspan(first[i], first[i + 1] - first[i]), w.bfs,
               slots[i]);
  });

  std::vector<VirtualLink> links;
  links.reserve(np.size());
  std::size_t fallbacks = 0;
  for (HeadSlice& s : slots) {
    for (VirtualLink& l : s.links) links.push_back(std::move(l));
    fallbacks += s.fallback ? 1 : 0;
  }
  VirtualLinkMap m = from_links(std::move(links));
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
