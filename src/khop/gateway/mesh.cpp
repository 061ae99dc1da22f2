#include "khop/gateway/mesh.hpp"

namespace khop {

MeshResult mesh_gateways(const Clustering& c, const NeighborSelection& sel,
                         const VirtualLinkMap& links) {
  MeshResult r;
  r.kept_links = sel.head_pairs;
  r.gateways = link_gateways(c, links, r.kept_links);
  return r;
}

}  // namespace khop
