/// \file partition.hpp
/// Spatial sharding of the node id space for the distributed round loop.
///
/// A ShardPlan cuts [0, n) into S contiguous half-open ranges. On a graph
/// whose ids follow the space-filling-curve relabeling (graph/relabel.hpp),
/// numerically contiguous ranges are spatially compact, so the cut crossed
/// by edges is thin: most nodes are *interior* (every neighbor in the same
/// shard) and only a narrow band is *boundary* (some neighbor elsewhere).
/// That thin-cut property is what keeps the simulator's cross-range traffic
/// small when its workers own contiguous id ranges (sim/engine.hpp) — the
/// same structure (k,m)-connectivity analysis exploits in clustered
/// networks. shard_cut_quality (graph/relabel.hpp) reports the boundary
/// fraction per shard count — the diagnostic for whether an id order shards
/// well.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "khop/common/types.hpp"
#include "khop/graph/graph.hpp"

namespace khop {

/// One shard's contiguous node range plus its boundary count.
struct ShardRange {
  NodeId begin = 0;  ///< first owned node id
  NodeId end = 0;    ///< one past the last owned node id
  /// Owned nodes with at least one neighbor outside [begin, end).
  std::size_t num_boundary = 0;

  std::size_t size() const noexcept { return end - begin; }
};

/// A partition of [0, n) into contiguous shards with cut classification.
class ShardPlan {
 public:
  /// Cuts \p g's id space into \p num_shards near-equal contiguous ranges
  /// (the same arithmetic as parallel_for's static blocks: shard s owns
  /// [n*s/S, n*(s+1)/S)) and classifies every node. num_shards may exceed
  /// the node count; the surplus shards are empty.
  ShardPlan(const Graph& g, std::size_t num_shards);

  std::size_t num_shards() const noexcept { return ranges_.size(); }
  std::size_t num_nodes() const noexcept { return shard_of_.size(); }

  const ShardRange& shard(std::size_t s) const { return ranges_[s]; }
  std::span<const ShardRange> shards() const noexcept { return ranges_; }

  /// Owning shard of \p v. O(1).
  std::size_t shard_of(NodeId v) const { return shard_of_[v]; }

  /// True iff \p v has a neighbor in another shard.
  bool is_boundary(NodeId v) const { return boundary_[v] != 0; }

  /// Total boundary nodes across all shards.
  std::size_t num_boundary_nodes() const noexcept { return boundary_total_; }

  /// Boundary fraction of shard \p s: num_boundary / size (0 for an
  /// empty shard). The per-shard form of the cut-quality diagnostic.
  double boundary_fraction(std::size_t s) const;

 private:
  std::vector<ShardRange> ranges_;
  std::vector<std::uint32_t> shard_of_;  ///< per node, O(1) routing
  std::vector<std::uint8_t> boundary_;   ///< per node, 1 = boundary
  std::size_t boundary_total_ = 0;
};

}  // namespace khop
