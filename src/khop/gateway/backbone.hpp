/// \file backbone.hpp
/// Assembly of the full connected k-hop clustering backbone and the five
/// pipelines compared in the paper's evaluation.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/gateway/lmst.hpp"
#include "khop/gateway/virtual_link.hpp"
#include "khop/net/energy.hpp"
#include "khop/nbr/neighbor_rules.hpp"

namespace khop {

/// The five algorithm pipelines of the paper's section 4.
enum class Pipeline : std::uint8_t {
  kNcMesh,   ///< all heads within 2k+1 hops, mesh gateways
  kAcMesh,   ///< A-NCR heads, mesh gateways
  kNcLmst,   ///< all heads within 2k+1 hops, LMST gateways
  kAcLmst,   ///< A-NCR heads, LMST gateways (the paper's AC-LMST)
  kGmst,     ///< centralized global MST (lower bound)
};

std::string_view pipeline_name(Pipeline p);

/// Phase-2 gateway algorithm choice for custom (non-preset) backbones.
enum class GatewayAlgorithm : std::uint8_t {
  kMesh,  ///< one path per selected pair
  kLmst,  ///< LMSTGA
  kGmst,  ///< centralized global MST (ignores the neighbor rule)
};

/// Full phase-2 configuration. The paper's five pipelines are presets over
/// this space (see spec_for); the spec form additionally exposes the Wu-Lou
/// 2.5-hop rule (k = 1) and the LMST keep-rule ablation.
struct BackboneSpec {
  NeighborRule neighbor_rule = NeighborRule::kAdjacent;
  GatewayAlgorithm gateway = GatewayAlgorithm::kLmst;
  LmstKeepRule lmst_keep = LmstKeepRule::kEitherEndpoint;
};

/// The preset spec behind each paper pipeline.
BackboneSpec spec_for(Pipeline p);

/// All five, in the paper's comparison order.
inline constexpr Pipeline kAllPipelines[] = {
    Pipeline::kNcMesh, Pipeline::kAcMesh, Pipeline::kNcLmst,
    Pipeline::kAcLmst, Pipeline::kGmst};

/// A connected k-hop clustering backbone: clusterheads + gateway nodes +
/// the virtual links they realize.
struct Backbone {
  /// Preset identity when built from a Pipeline; kAcLmst placeholder for
  /// custom specs (spec below is authoritative either way).
  Pipeline pipeline = Pipeline::kAcLmst;
  BackboneSpec spec;
  std::vector<NodeId> heads;     ///< ascending
  std::vector<NodeId> gateways;  ///< ascending, disjoint from heads
  std::vector<std::pair<NodeId, NodeId>> virtual_links;  ///< realized pairs

  std::size_t cds_size() const noexcept {
    return heads.size() + gateways.size();
  }

  /// n-sized membership mask over heads ∪ gateways.
  std::vector<bool> cds_mask(std::size_t n) const;

  /// Per-node role vector (member / gateway / clusterhead).
  std::vector<NodeRole> roles(std::size_t n) const;
};

/// Runs phase 2 for a given clustering: neighbor selection per the pipeline,
/// then the pipeline's gateway algorithm.
Backbone build_backbone(const Graph& g, const Clustering& c, Pipeline p);

/// Runs phase 2 with a custom spec (e.g. the Wu-Lou 2.5-hop rule at k = 1,
/// or the intersection LMST keep rule).
Backbone build_backbone(const Graph& g, const Clustering& c,
                        const BackboneSpec& spec);

struct Workspace;
class ThreadPool;

/// Workspace variants: neighbor selection and virtual-link BFS runs reuse
/// \p ws. Bit-identical output; the overloads above forward here.
///
/// All per-head BFS work is bounded to the paper's 2k+1 structural horizon,
/// and the NC rule runs as ONE fused sweep per head (discovery + link
/// extraction, see gateway/head_sweep.hpp).
Backbone build_backbone(const Graph& g, const Clustering& c, Pipeline p,
                        Workspace& ws);
Backbone build_backbone(const Graph& g, const Clustering& c,
                        const BackboneSpec& spec, Workspace& ws);

/// Parallel variants: the per-head sweeps (NC and G-MST discovery + link
/// extraction, AC link extraction) fan out across \p pool; each worker uses
/// its thread's tls_workspace() and results merge in head-index order, so
/// the output is bit-identical to the serial overloads for any thread
/// count. Both forms run one body; the sweeps take an optional pool.
Backbone build_backbone(const Graph& g, const Clustering& c, Pipeline p,
                        ThreadPool& pool);
Backbone build_backbone(const Graph& g, const Clustering& c,
                        const BackboneSpec& spec, ThreadPool& pool);

}  // namespace khop
