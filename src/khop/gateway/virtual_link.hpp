/// \file virtual_link.hpp
/// Virtual links between clusterheads (paper section 3.2): for a selected
/// head pair, the canonical shortest path in G connecting them; its hop count
/// is the pair's "virtual distance" and its interior nodes are the gateway
/// candidates.
///
/// Canonicality: the path is extracted from a min-id-parent BFS rooted at the
/// smaller head id, so the same topology always yields the same gateways.
#pragma once

#include <unordered_map>
#include <utility>
#include <vector>

#include "khop/common/types.hpp"
#include "khop/graph/graph.hpp"

namespace khop {

struct Workspace;
class ThreadPool;

struct VirtualLink {
  NodeId u = kInvalidNode;  ///< smaller head id
  NodeId v = kInvalidNode;  ///< larger head id
  Hops hops = 0;            ///< virtual distance
  std::vector<NodeId> path; ///< canonical shortest path u..v inclusive
};

/// Canonical-shortest-path store for a set of head pairs.
class VirtualLinkMap {
 public:
  /// Builds links for all \p pairs (unordered (min,max) head-id pairs):
  /// build_bounded at kUnreachable on the calling thread's tls_workspace().
  static VirtualLinkMap build(
      const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs);

  /// One head sweep (gateway/head_sweep.hpp) per distinct smaller endpoint,
  /// bounded at \p horizon; serial on \p ws, or across \p pool merged in
  /// ascending source order (bit-identical for any thread count). The
  /// paper's structure puts every selected pair within 2k+1 hops, so
  /// backbone construction passes that bound; a pair whose endpoints are
  /// farther apart (invariant-violating input) reruns its source unbounded,
  /// so the output — including the NotConnected throw for truly
  /// disconnected endpoints — equals the unbounded build on EVERY input.
  static VirtualLinkMap build_bounded(
      const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs,
      Hops horizon, Workspace& ws, ThreadPool* pool = nullptr);

  /// Adopts already-extracted links. \pre each link has u < v; no duplicate
  /// (u,v) keys. Used by the fused NC sweep (gateway/head_sweep.hpp), which
  /// extracts links during head discovery, and by the reference oracle.
  static VirtualLinkMap from_links(std::vector<VirtualLink> links);

  /// Link for the unordered pair {a, b}. Throws InvalidArgument if absent.
  const VirtualLink& link(NodeId a, NodeId b) const;

  bool contains(NodeId a, NodeId b) const;

  /// Upserts a link: replaces the stored path for the pair if present, else
  /// adds it. Used by the churn engine's incremental re-sweeps.
  /// \pre l.u < l.v
  void insert(VirtualLink l);

  /// Drops the link for the unordered pair {a, b} if present; returns
  /// whether one was removed. O(1) (swap-pop).
  bool erase(NodeId a, NodeId b);

  const std::vector<VirtualLink>& all() const noexcept { return links_; }

  /// Number of sources whose bounded sweep missed a target and was rerun
  /// unbounded (0 whenever the 2k+1 invariant holds; diagnostic only).
  std::size_t bounded_fallbacks() const noexcept { return bounded_fallbacks_; }

 private:
  std::vector<VirtualLink> links_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::size_t bounded_fallbacks_ = 0;

  static std::uint64_t key(NodeId a, NodeId b) noexcept;
};

}  // namespace khop
