/// \file head_sweep.hpp
/// The one per-head operation of phase 2 (paper sections 3.1-3.2): a
/// canonical min-id-parent BFS from clusterhead u to depth 2k+1. The heads
/// it reaches are u's NC neighbor heads, and its BFS tree holds the
/// canonical virtual link (u, v) to every partner v > u. Every phase-2
/// producer runs this sweep:
///  * nc_sweep below: NC discovery plus links, one sweep per head;
///  * G-MST (gmst.hpp): its head graph and tree paths are nc_sweep's links;
///  * VirtualLinkMap::build_bounded: links for given pairs (A-NCR, Wu-Lou);
///  * ChurnEngine: the initial state and every local re-sweep of the
///    section 3.3 repair, over the mutable DynamicGraph.
///
/// Under the clustering invariant every selected pair lies within 2k+1
/// hops, so one bounded BFS per head serves both questions: no all-heads
/// probe and no unbounded per-source BFS.
///
/// Determinism: sweeps are independent per head. The per-head loops run
/// serially on the caller's workspace or across a pool (each worker on its
/// tls_workspace()) and merge in head order, so the output is bit-identical
/// for any thread count — and matches the reference two-pass pipeline
/// (nbr/reference.hpp + gateway/reference.hpp) exactly.
#pragma once

#include <span>
#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/gateway/virtual_link.hpp"
#include "khop/graph/bfs_scratch.hpp"
#include "khop/nbr/neighbor_rules.hpp"

namespace khop {

struct Workspace;
class ThreadPool;

/// One head's sweep output.
struct HeadSlice {
  /// Partner heads the sweep discovered, ascending (discovery only; a
  /// sweep over given partners leaves it as the caller set it).
  std::vector<NodeId> selected;
  /// Canonical links (u, v) for every partner v > u, ascending in v.
  std::vector<VirtualLink> links;
  /// A partner lay beyond the horizon, so the sweep was rerun unbounded.
  bool fallback = false;
};

/// Sweeps from \p u over \p g (Graph or DynamicGraph) to \p horizon on
/// \p bfs. With \p discover, the heads of it that the sweep reaches (u
/// excluded, read through is_head) become out.selected and are the
/// partners; without, the partners are \p partners (ascending). Then the
/// link to every partner v > u is extracted (pairs with v < u belong to v's
/// sweep, so given partners all below u need no BFS at all). A partner
/// beyond the horizon reruns the sweep unbounded — both runs agree inside
/// the horizon, so the paths do not depend on it — and one unreachable even
/// then throws NotConnected.
template <typename GraphT>
void sweep_head(const GraphT& g, NodeId u, Hops horizon,
                const Clustering* discover, std::span<const NodeId> partners,
                BfsScratch& bfs, HeadSlice& out);

/// NC selection and links of every head.
struct HeadSweep {
  NeighborSelection sel;  ///< NC selection (rule kAllWithin2k1)
  VirtualLinkMap links;   ///< canonical links for every pair in sel
};

/// Sweeps every head of \p c to \p horizon: 2k+1 is the NC rule, and
/// kUnreachable joins every pair of heads in a component (G-MST's
/// complete-graph fallback). Serial on \p ws, or across \p pool.
HeadSweep nc_sweep(const Graph& g, const Clustering& c, Hops horizon,
                   Workspace& ws, ThreadPool* pool = nullptr);

}  // namespace khop
