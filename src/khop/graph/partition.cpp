#include "khop/graph/partition.hpp"

#include <algorithm>

#include "khop/common/assert.hpp"

namespace khop {

ShardPlan::ShardPlan(const Graph& g, std::size_t num_shards) {
  KHOP_REQUIRE(num_shards > 0, "shard plan needs at least one shard");
  const std::size_t n = g.num_nodes();
  ranges_.resize(num_shards);
  shard_of_.assign(n, 0);
  boundary_.assign(n, 0);

  // Contiguous near-equal cuts, the same arithmetic as parallel_for's static
  // blocks: shard s owns [n*s/S, n*(s+1)/S). Shards beyond the node count
  // come out empty (begin == end).
  for (std::size_t s = 0; s < num_shards; ++s) {
    ranges_[s].begin = static_cast<NodeId>(n * s / num_shards);
    ranges_[s].end = static_cast<NodeId>(n * (s + 1) / num_shards);
    for (NodeId v = ranges_[s].begin; v < ranges_[s].end; ++v) {
      shard_of_[v] = static_cast<std::uint32_t>(s);
    }
  }

  // Classify: a node is boundary iff any neighbor lives in another shard.
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t sv = shard_of_[v];
    const auto nbrs = g.neighbors(v);
    if (std::any_of(nbrs.begin(), nbrs.end(),
                    [&](NodeId u) { return shard_of_[u] != sv; })) {
      boundary_[v] = 1;
      ++ranges_[sv].num_boundary;
      ++boundary_total_;
    }
  }
}

double ShardPlan::boundary_fraction(std::size_t s) const {
  KHOP_REQUIRE(s < ranges_.size(), "shard index out of range");
  const ShardRange& r = ranges_[s];
  if (r.size() == 0) return 0.0;
  return static_cast<double>(r.num_boundary) /
         static_cast<double>(r.size());
}

}  // namespace khop
