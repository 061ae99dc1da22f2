/// \file workspace.hpp
/// Shared reusable-scratch subsystem for the hot paths across graph, cluster,
/// gateway, sim and exp layers.
///
/// A Workspace bundles every per-thread scratch structure the pipeline
/// kernels need, so one object threaded through a call tree eliminates all
/// transient heap allocation. The API contract:
///
///  * Epoch invalidation - scratch results (BfsScratch queries, DistCache
///    rows) are valid only until the next kernel call that reuses the same
///    workspace. Kernels never hold workspace-backed views across calls;
///    their outputs are plain owned containers.
///  * Thread affinity - a Workspace is NOT thread-safe. Use one per thread;
///    tls_workspace() hands out a lazily-created thread-local instance (this
///    is what the allocating convenience wrappers and run_trials use).
///  * Growth only - buffers grow to the largest graph seen and are retained,
///    so steady-state reuse is allocation-free.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "khop/common/types.hpp"
#include "khop/graph/bfs_scratch.hpp"
#include "khop/graph/spatial_grid.hpp"

namespace khop {

/// Epoch-stamped per-node cache of bounded-distance rows, reused across
/// calls (rows keep their capacity; begin() invalidates contents in O(1)
/// amortized). Backs the krishna_kclusters ball cache.
class DistCache {
 public:
  /// Opens a fresh cache generation for an n-node graph.
  void begin(std::size_t n) {
    if (stamp_.size() < n) {
      stamp_.resize(n, 0);
      rows_.resize(n);
    }
    if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 0;
    }
    ++epoch_;
  }

  bool contains(NodeId v) const noexcept { return stamp_[v] == epoch_; }

  /// Row for \p v, marked present in the current generation. Contents are
  /// whatever the caller last stored this generation (stale capacity reused).
  std::vector<Hops>& row(NodeId v) {
    stamp_[v] = epoch_;
    return rows_[v];
  }

  const std::vector<Hops>& row(NodeId v) const { return rows_[v]; }

 private:
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::vector<Hops>> rows_;
};

/// Epoch-stamped boolean set over dense indices: set/test are O(1) and
/// begin() clears in O(1) amortized (no per-generation fill). Backs the
/// per-cluster coverage marks of the Wu-Lou neighbor rule.
class EpochFlags {
 public:
  /// Opens a fresh (all-false) generation over indices [0, n).
  void begin(std::size_t n) {
    if (stamp_.size() < n) stamp_.resize(n, 0);
    if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 0;
    }
    ++epoch_;
  }

  void set(std::size_t i) noexcept { stamp_[i] = epoch_; }
  bool test(std::size_t i) const noexcept { return stamp_[i] == epoch_; }

 private:
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_;
};

/// The per-thread scratch bundle threaded through the hot paths.
struct Workspace {
  /// Primary BFS scratch (clustering election, neighbor rules, floods).
  BfsScratch bfs;
  /// Secondary scratch for kernels that interleave two BFS result sets.
  BfsScratch bfs2;
  /// Bounded-distance ball cache (krishna_kclusters).
  DistCache ball_cache;
  /// Epoch-stamped flag set (neighbor-rule coverage marks).
  EpochFlags flags;
  /// General-purpose node id buffer.
  std::vector<NodeId> node_buf;
  /// Spatial grid reused across topology builds (Monte-Carlo trials of one
  /// configuration rebuild it in place instead of re-allocating).
  SpatialGrid grid;
};

/// Lazily-created workspace owned by the calling thread. Reused across calls
/// for the life of the thread; safe under ThreadPool workers because each
/// worker sees its own instance.
Workspace& tls_workspace();

class ThreadPool;

/// Runs body(i, ws) for every i in [0, count): in ascending order on \p ws
/// when \p pool is null, otherwise across the pool's workers, each on its
/// own tls_workspace() (parallel_for_throwing, so the exception of the
/// lowest failing index surfaces, as in the serial loop). Bodies write
/// per-index slots only, so the result never depends on the pool.
void for_each_index(std::size_t count, Workspace& ws, ThreadPool* pool,
                    const std::function<void(std::size_t, Workspace&)>& body);

}  // namespace khop
