/// \file spatial_grid.hpp
/// Uniform spatial hashing for near-linear unit-disk graph construction.
///
/// The grid stores its cell membership in CSR form (one offsets array plus
/// one flat id array, built by a counting pass) instead of a
/// vector-of-vectors: at n = 10^6 the per-cell vector headers alone would be
/// ~100 MB of scattered allocations, while the CSR layout is two contiguous
/// arrays rebuilt in place. A default-constructed grid plus rebuild() lets
/// long-lived owners (Workspace) amortize those arrays across topologies —
/// the Monte-Carlo trial loop rebuilds the grid once per trial without
/// re-allocating.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "khop/geom/point.hpp"
#include "khop/graph/graph.hpp"

namespace khop {

/// Uniform grid over the bounding box of a point set, cell size >= the query
/// radius, so a range query touches at most the 3x3 surrounding cells.
///
/// Lifetime: the grid borrows \p pts; the point vector must outlive every
/// query (rebuild() re-borrows a new set).
class SpatialGrid {
 public:
  /// Empty grid; call rebuild() before querying.
  SpatialGrid() = default;

  /// \pre as for rebuild()
  SpatialGrid(const std::vector<Point2>& pts, double radius);

  /// Re-binds the grid to \p pts / \p radius, reusing the internal arrays.
  /// Equivalent to constructing a fresh grid (bit-identical query results).
  /// \pre radius > 0, pts non-empty, every coordinate finite and the
  /// bounding box's extent finite (InvalidArgument otherwise)
  void rebuild(const std::vector<Point2>& pts, double radius);

  /// Ids of all points within \p radius of pts[u], excluding u itself,
  /// in ascending id order.
  std::vector<NodeId> within_radius(NodeId u) const;

  /// within_radius into a caller-owned buffer (cleared first): the streamed
  /// graph build calls this once per node and must not allocate per call.
  void within_radius_into(NodeId u, std::vector<NodeId>& out) const;

  /// Number of points within \p radius of pts[u], excluding u itself.
  /// Allocation-free (no list materialization); used by the degree
  /// calibration's bisection probes.
  std::size_t count_within_radius(NodeId u) const;

  /// Number of grid cells (cols x rows) after the cell-count cap.
  std::size_t num_cells() const noexcept { return cols_ * rows_; }

  /// Number of points the grid currently indexes (0 before rebuild()).
  std::size_t num_points() const noexcept {
    return pts_ == nullptr ? 0 : pts_->size();
  }

 private:
  const std::vector<Point2>* pts_ = nullptr;
  double radius_ = 0.0;
  double cell_ = 0.0;
  std::size_t cols_ = 0, rows_ = 0;
  double min_x_ = 0.0, min_y_ = 0.0;
  std::vector<std::size_t> cell_offsets_;  // size num_cells()+1
  std::vector<NodeId> cell_ids_;  // grouped by cell, ascending within a cell

  std::size_t cell_index(double x, double y) const noexcept;

  std::span<const NodeId> cell_members(std::size_t cell) const noexcept {
    return {cell_ids_.data() + cell_offsets_[cell],
            cell_offsets_[cell + 1] - cell_offsets_[cell]};
  }

  /// Shared 3x3 cell walk behind both queries: calls \p visit(v) for every
  /// v != u with dist(u, v) <= radius.
  template <typename Visitor>
  void for_each_within_radius(NodeId u, Visitor&& visit) const;
};

/// Builds the unit-disk graph: edge {u,v} iff dist(u,v) <= radius.
/// O(n * average-neighborhood) via spatial hashing. Streams each node's
/// neighborhood straight into CSR in one pass without materializing an
/// edge-pair vector; bit-identical to reference::build_unit_disk_graph.
Graph build_unit_disk_graph(const std::vector<Point2>& pts, double radius);

/// The streamed build against a caller-owned grid: rebuild()s \p grid for
/// (pts, radius), then appends each node's row, u ascending, to one growing
/// adjacency array — O(log m) allocations, none per node.
Graph build_unit_disk_graph_streamed(const std::vector<Point2>& pts,
                                     double radius, SpatialGrid& grid);

class ThreadPool;

/// Deprecated forward to the serial build above; the pool is ignored. It
/// exists only for perfbench/, until perfbench/ moves its calls to the
/// three-argument form.
[[deprecated("generation is serial; use the three-argument form")]]
Graph build_unit_disk_graph_streamed(const std::vector<Point2>& pts,
                                     double radius, SpatialGrid& grid,
                                     ThreadPool* pool);

namespace reference {

/// Pre-PR8 builder kept verbatim as the streamed path's oracle: materializes
/// the full (u, v) edge-pair vector and hands it to Graph::from_edges.
Graph build_unit_disk_graph(const std::vector<Point2>& pts, double radius);

}  // namespace reference

}  // namespace khop
