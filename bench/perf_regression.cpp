/// \file perf_regression.cpp
/// The perf-regression bench: times the pipeline kernels (topology
/// generation, bounded BFS, clustering, backbone build per paper pipeline,
/// engine flood) at several node counts, checks that the optimized paths
/// compute bit-identical results to the preserved legacy implementations
/// (via output checksums), and emits the schema-versioned trajectory JSON
/// (`BENCH_PR10.json` by default).
///
/// Backbone kernels (PR 4): every paper pipeline is timed as `legacy` (the
/// preserved reference two-pass construction: per-head all-heads probes +
/// unbounded per-source BFS link build) vs `workspace` (fused bounded
/// sweeps); the AC-LMST trajectory kernel (`backbone`) additionally gets a
/// `parallel` variant running the same sweeps across a hardware ThreadPool.
/// Matching checksums across variants double-check bit-exactness.
///
/// Engine kernels (PR 5): `engine_flood` is timed as `legacy` (the preserved
/// pre-PR5 engine: one flat O(M log M) sort over all in-flight messages per
/// round + std::map discovery agent, sim/reference.hpp) and `workspace` (the
/// production engine, one id range + flat KnownTable agent). The checksum
/// digests every node's discovered (origin, dist, parent) set, so a single
/// reordered or lost delivery shows up as cross-variant checksum drift.
///
/// Million-node kernels (PR 8):
///  * `generation` — unit-disk topology build from fixed positions: `legacy`
///    (preserved edge-pair-vector reference, graph/spatial_grid.cpp) vs
///    `workspace` (streamed grid-sharded CSR build, no edge intermediate) vs
///    `parallel` (the streamed build with per-tile ThreadPool fill).
///  * `bounded_bfs` gains an `sfc` variant: the same all-sources sweep on
///    the Hilbert-relabeled graph. The probe sum is iteration-order
///    invariant, so its checksum must equal the workspace variant's —
///    the wall-time delta isolates the locality win of the renumbering.
///  * `clustering_sfc` — the kDistanceBased election under explicitly
///    distinct carried priority keys, `direct` vs `relabeled`; the digest
///    (rounds + sum of original-id heads + sum of dist_to_head) is
///    permutation-equivariant, so the two variants must agree exactly.
///  * At n >= 100000 the quadratic-cost legacy references for BFS,
///    clustering, backbone and engine are skipped (each legacy BFS call
///    allocates O(n) — the sweep would be O(n^2)); the topology switches to
///    jittered-grid placement with an analytic radius and a deterministic
///    radius-bump retry until connected, and the backbone set narrows to
///    AC-Mesh + G-MST (the flat and global extremes of the five pipelines).
///    `engine_flood` runs at k=1 to bound per-node discovery state.
///
/// Pooled engine: `engine_flood` also runs as `pool_shuffled` and
/// `pool_hilbert` - the same flood through run(max_rounds, pool), which cuts
/// one contiguous id range per pool thread. The suffix names the input id
/// order: the bench's own ids (placement order, spatially shuffled) or the
/// Hilbert relabeling of the same graph, on which contiguous ranges are
/// spatially compact. pool_shuffled's digest must equal the serial rows'.
/// pool_hilbert's is mapped back to the bench's ids: origins through the
/// permutation, and each parent as the minimum original-id neighbor one hop
/// closer to the origin (the serial rows' tie-break, which a relabeled run
/// resolves in Hilbert order instead). That mapping is computed once, from
/// the untimed warm-up rep; every timed rep must reproduce the warm-up's
/// Hilbert-id digest exactly.
///
/// Usage:
///   bench_perf_regression [--out FILE] [--sizes n1,n2,...] [--k K]
///                         [--degree D] [--min-seconds S] [--min-reps R]
///                         [--seed S] [--max-rss-mb MB]
///
/// The CI smoke job runs it at tiny sizes (plus a downscaled million-node
/// smoke with --min-reps 1 and an --max-rss-mb ceiling); the committed
/// trajectory uses the defaults (n in {500, 2000, 8000, 1000000}).
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/harness.hpp"
#include "khop/cluster/reference.hpp"
#include "khop/common/assert.hpp"
#include "khop/exp/experiment.hpp"
#include "khop/gateway/reference.hpp"
#include "khop/graph/bfs_reference.hpp"
#include "khop/graph/relabel.hpp"
#include "khop/graph/spatial_grid.hpp"
#include "khop/net/generator.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"
#include "khop/sim/protocols/neighborhood.hpp"
#include "khop/sim/reference.hpp"

namespace {

using namespace khop;

/// Above this node count the O(n)-alloc-per-call legacy references are
/// skipped and the topology comes from the streamed jittered-grid path.
constexpr std::size_t kBigN = 100000;

struct Options {
  std::string out = "BENCH_PR10.json";
  std::vector<std::size_t> sizes = {500, 2000, 8000, 1000000};
  Hops k = 2;
  double degree = 8.0;
  double min_seconds = 0.05;
  std::size_t min_reps = 3;
  std::uint64_t seed = 20260729;
  std::size_t max_rss_mb = 0;  ///< 0 = unlimited; else fail past the ceiling
};

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> sizes;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    sizes.push_back(static_cast<std::size_t>(std::stoull(item)));
  }
  return sizes;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << flag << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      opt.out = need_value("--out");
    } else if (arg == "--sizes") {
      opt.sizes = parse_sizes(need_value("--sizes"));
    } else if (arg == "--k") {
      opt.k = static_cast<Hops>(std::stoul(need_value("--k")));
    } else if (arg == "--degree") {
      opt.degree = std::stod(need_value("--degree"));
    } else if (arg == "--min-seconds") {
      opt.min_seconds = std::stod(need_value("--min-seconds"));
    } else if (arg == "--min-reps") {
      opt.min_reps = std::stoull(need_value("--min-reps"));
    } else if (arg == "--seed") {
      opt.seed = std::stoull(need_value("--seed"));
    } else if (arg == "--max-rss-mb") {
      opt.max_rss_mb = std::stoull(need_value("--max-rss-mb"));
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      std::exit(2);
    }
  }
  return opt;
}

/// Variant-independent digest of a BFS result: probes one fixed node per
/// source so legacy (array) and workspace (query) variants pay the same
/// checksum cost.
double probe(Hops d) { return d == kUnreachable ? -1.0 : d; }

/// The five pipelines as bench kernels. AC-LMST keeps the plain `backbone`
/// name so the trajectory rows stay comparable with BENCH_PR3.json.
struct PipelineKernel {
  Pipeline pipeline;
  const char* name;
};

constexpr PipelineKernel kPipelineKernels[] = {
    {Pipeline::kAcLmst, "backbone"},
    {Pipeline::kNcMesh, "backbone_nc_mesh"},
    {Pipeline::kAcMesh, "backbone_ac_mesh"},
    {Pipeline::kNcLmst, "backbone_nc_lmst"},
    {Pipeline::kGmst, "backbone_gmst"},
};

/// The two pipelines retained at n >= kBigN: the cheapest (flat adjacent
/// cluster mesh) and the most global (gateway MST over the cluster graph).
bool benched_at_big_n(Pipeline p) {
  return p == Pipeline::kAcMesh || p == Pipeline::kGmst;
}

/// Million-node topology: jittered-grid placement (one node per unit cell,
/// uniform jitter inside it) over a sqrt(n) x sqrt(n) field, radius from the
/// analytic degree formula, then a deterministic 5% radius bump until the
/// unit-disk graph is connected. Every step is seeded, so the topology is a
/// pure function of (n, degree, seed). Placement never needs retrying: the
/// jittered grid has no density holes, so the radius bump alone restores
/// connectivity. The cell -> id assignment is shuffled: row-major ids would
/// be spatially sequential, which both turns the lowest-id election into a
/// sqrt(n)-round diagonal march (each round's winners hug the undecided
/// region's low-id frontier) and hands the un-relabeled layout the SFC
/// variant's locality for free — shuffled ids reproduce the id/placement
/// independence of the small-n uniform generator.
AdHocNetwork make_big_topology(std::size_t n, double degree,
                               std::uint64_t seed, Workspace& ws,
                               ThreadPool& pool) {
  AdHocNetwork net;
  const std::size_t cols =
      static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  const std::size_t rows = (n + cols - 1) / cols;
  net.field = Field{static_cast<double>(std::max(cols, rows))};
  net.requested_nodes = n;
  net.positions.resize(n);
  Rng rng(seed);
  std::vector<NodeId> cell_of(n);
  for (std::size_t i = 0; i < n; ++i) cell_of[i] = static_cast<NodeId>(i);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(cell_of[i - 1], cell_of[rng.uniform_int(i)]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double cx = static_cast<double>(cell_of[i] % cols);
    const double cy = static_cast<double>(cell_of[i] / cols);
    net.positions[i] = {cx + rng.uniform(), cy + rng.uniform()};
  }
  // Unit cells => density ~= 1 node per unit area: E[deg] = pi r^2 - 1.
  double radius = std::sqrt((degree + 1.0) / 3.14159265358979323846);
  for (std::size_t attempt = 0;; ++attempt) {
    KHOP_REQUIRE(attempt < 32, "big topology never became connected");
    net.graph = build_unit_disk_graph_streamed(net.positions, radius,
                                               ws.grid, &pool);
    ws.bfs.run(net.graph, 0, kUnreachable);
    if (ws.bfs.reached().size() == n) break;
    radius *= 1.05;
    net.connectivity = ConnectivityOutcome::kConnectedAfterRetry;
    net.placement_attempts = attempt + 2;
  }
  net.radius = radius;
  return net;
}

/// Returns the realized node count benched (rows are keyed by it), or 0 if
/// this point was skipped.
std::size_t bench_point(bench::Harness& h, const Options& opt, std::size_t n,
                        ThreadPool& pool,
                        const std::vector<std::size_t>& already_benched) {
  const bool big = n >= kBigN;
  Workspace ws;

  // Identical topology for every kernel at this n: the calibrated generator
  // at bench scales, the seeded jittered grid above it.
  AdHocNetwork net;
  if (big) {
    net = make_big_topology(n, opt.degree, opt.seed + n, ws, pool);
  } else {
    ExperimentConfig cal;
    cal.num_nodes = n;
    cal.avg_degree = opt.degree;
    const double radius = resolve_radius(cal, opt.seed);
    GeneratorConfig gen;
    gen.num_nodes = n;
    gen.explicit_radius = radius;
    Rng rng(opt.seed + n);
    net = generate_network(gen, rng);
  }
  const Graph& g = net.graph;
  // The generator may fall back to the largest connected component, so the
  // realized node count can be below the requested n; all indexing (and the
  // reported row size) must use the realized count. Two requested sizes that
  // realize identically would collide on the (name, n) row key - and the
  // graphs would still differ (the topology rng is seeded by the requested
  // size) - so duplicates are skipped rather than reported as mismatches.
  n = g.num_nodes();
  for (std::size_t prior : already_benched) {
    if (prior == n) {
      std::cout << "n=" << n << " already benched, skipping duplicate\n";
      return 0;
    }
  }
  const Hops k = opt.k;
  const auto priorities = make_priorities(g, PriorityRule::kLowestId);

  std::cout << "n=" << n << " (m=" << g.num_edges() << ", r=" << net.radius
            << ")..." << std::flush;

  // Kernel 0: unit-disk topology generation from the fixed positions.
  // Sampled-degree digest: identical graphs => identical sums; cheap at any
  // n (at most ~1000 probed rows).
  const auto generation_checksum = [&](const Graph& built) {
    double sum = static_cast<double>(built.num_edges());
    const std::size_t stride = std::max<std::size_t>(1, n / 1000);
    for (NodeId u = 0; u < built.num_nodes(); u += stride) {
      sum += static_cast<double>(u) * static_cast<double>(built.degree(u));
    }
    return sum;
  };
  h.time_kernel("generation", "legacy", n, k, [&] {
    return generation_checksum(
        reference::build_unit_disk_graph(net.positions, net.radius));
  });
  h.time_kernel("generation", "workspace", n, k, [&] {
    return generation_checksum(
        build_unit_disk_graph_streamed(net.positions, net.radius, ws.grid));
  });
  h.time_kernel("generation", "parallel", n, k, [&] {
    return generation_checksum(build_unit_disk_graph_streamed(
        net.positions, net.radius, ws.grid, &pool));
  });

  // Kernel 1: bounded BFS from every source. The sfc variant runs the same
  // sweep on the Hilbert-relabeled graph; its probe targets are the mapped
  // images of the workspace variant's, and the sum is order-invariant, so
  // the checksums must agree — the wall delta is pure locality.
  if (!big) {
    h.time_kernel("bounded_bfs", "legacy", n, k, [&] {
      double sum = 0.0;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const BfsTree t = reference::bfs_bounded(g, v, k);
        sum += probe(t.dist[(v + n / 2) % n]);
      }
      return sum;
    });
  }
  // At n >= kBigN the (v + n/2) probe target is always outside the k-ball
  // (the field is huge), which would degenerate the digest to -n; folding in
  // the ball size — permutation-invariant, so identical across workspace and
  // sfc — keeps the cross-variant check meaningful at scale.
  h.time_kernel("bounded_bfs", "workspace", n, k, [&] {
    double sum = 0.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ws.bfs.run(g, v, k);
      sum += probe(ws.bfs.dist((v + n / 2) % n));
      if (big) sum += static_cast<double>(ws.bfs.reached().size());
    }
    return sum;
  });
  const Relabeling sfc = sfc_relabeling(net.positions);
  const Graph g_sfc = relabel(g, sfc);
  h.time_kernel("bounded_bfs", "sfc", n, k, [&] {
    double sum = 0.0;
    for (NodeId s = 0; s < g_sfc.num_nodes(); ++s) {
      ws.bfs.run(g_sfc, s, k);
      const NodeId old_s = sfc.old_of_new[s];
      sum += probe(ws.bfs.dist(sfc.new_of_old[(old_s + n / 2) % n]));
      if (big) sum += static_cast<double>(ws.bfs.reached().size());
    }
    return sum;
  });

  // Kernel 2: the paper's k-hop clustering election.
  const auto clustering_checksum = [](const Clustering& c) {
    double sum = static_cast<double>(c.election_rounds);
    for (NodeId hd : c.heads) sum += hd;
    for (NodeId v = 0; v < c.head_of.size(); ++v) sum += c.head_of[v];
    return sum;
  };
  if (!big) {
    h.time_kernel("clustering", "legacy", n, k, [&] {
      return clustering_checksum(reference::khop_clustering(
          g, k, priorities, AffiliationRule::kIdBased));
    });
  }
  h.time_kernel("clustering", "workspace", n, k, [&] {
    return clustering_checksum(
        khop_clustering(g, k, priorities, AffiliationRule::kIdBased, ws));
  });

  // Kernel 2b: the same election on the relabeled graph under explicitly
  // distinct carried keys (key = original id). The digest folds in rounds,
  // original-id heads and the dist_to_head sum — all equivariant — so the
  // direct and relabeled runs must produce the same checksum even though
  // they run in different id spaces.
  std::vector<PriorityKey> distinct(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    distinct[u] = {static_cast<double>(u), u};
  }
  const auto carried = relabel(distinct, sfc);
  h.time_kernel("clustering_sfc", "direct", n, k, [&] {
    const Clustering c = khop_clustering(g, k, distinct,
                                         AffiliationRule::kDistanceBased, ws);
    double sum = static_cast<double>(c.election_rounds);
    for (NodeId hd : c.heads) sum += hd;
    for (NodeId v = 0; v < c.head_of.size(); ++v) sum += c.dist_to_head[v];
    return sum;
  });
  h.time_kernel("clustering_sfc", "relabeled", n, k, [&] {
    const Clustering c = khop_clustering(g_sfc, k, carried,
                                         AffiliationRule::kDistanceBased, ws);
    double sum = static_cast<double>(c.election_rounds);
    for (NodeId hd : c.heads) sum += sfc.old_of_new[hd];
    for (NodeId v = 0; v < c.head_of.size(); ++v) sum += c.dist_to_head[v];
    return sum;
  });

  // Kernel 3: phase-2 backbone build over a fixed clustering, one kernel
  // per paper pipeline, legacy (reference two-pass) vs workspace (fused
  // bounded sweeps) vs parallel (AC-LMST at bench scales; every retained
  // pipeline at n >= kBigN, where legacy is skipped).
  const Clustering c =
      khop_clustering(g, k, priorities, AffiliationRule::kIdBased, ws);
  const auto backbone_checksum = [](const Backbone& b) {
    double sum = static_cast<double>(b.cds_size());
    for (NodeId gw : b.gateways) sum += gw;
    return sum;
  };
  for (const PipelineKernel& pk : kPipelineKernels) {
    if (big && !benched_at_big_n(pk.pipeline)) continue;
    if (!big) {
      h.time_kernel(pk.name, "legacy", n, k, [&] {
        return backbone_checksum(reference::build_backbone(g, c, pk.pipeline));
      });
    }
    h.time_kernel(pk.name, "workspace", n, k, [&] {
      return backbone_checksum(build_backbone(g, c, pk.pipeline, ws));
    });
    if (pk.pipeline == Pipeline::kAcLmst || big) {
      h.time_kernel(pk.name, "parallel", n, k, [&] {
        return backbone_checksum(build_backbone(g, c, pk.pipeline, pool));
      });
    }
  }

  // Kernel 4: engine flood - k-hop neighborhood discovery by bounded
  // flooding, legacy (preserved flat-sort engine + std::map agent) vs
  // workspace (one id range + flat KnownTable agent) vs the pooled engine on
  // shuffled and on Hilbert ids (one id range per pool thread; see the file
  // comment for the Hilbert digest). The digest folds in every node's
  // discovered (origin, dist, parent) records, all integer-valued and well
  // inside double precision, so the sums are exact and iteration-order
  // independent. At n >= kBigN the flood runs at k=1: per-node discovery
  // state is Theta(ball size), and the 1-ball keeps the engine's resident
  // footprint linear in edges rather than in the k-ball mass.
  const Hops k_flood = big ? Hops{1} : k;
  if (!big) {
    h.time_kernel("engine_flood", "legacy", n, k_flood, [&] {
      reference::SyncEngine engine(g, [&](NodeId) {
        return std::make_unique<reference::NeighborhoodDiscoveryAgent>(k_flood);
      });
      engine.run(2 * k_flood + 2);
      double sum = static_cast<double>(engine.stats().receptions +
                                       engine.stats().rounds);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const auto& agent =
            dynamic_cast<const reference::NeighborhoodDiscoveryAgent&>(
                engine.agent(v));
        for (const auto& [origin, rec] : agent.known()) {
          sum += origin + 31.0 * rec.dist + 7.0 * rec.parent;
        }
      }
      return sum;
    });
  }
  const auto flood_digest = [&](const SyncEngine& engine) {
    double sum = static_cast<double>(engine.stats().receptions +
                                     engine.stats().rounds);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto& agent =
          dynamic_cast<const NeighborhoodDiscoveryAgent&>(engine.agent(v));
      agent.known().for_each([&](NodeId origin, const KnownRecord& rec) {
        sum += origin + 31.0 * rec.dist + 7.0 * rec.parent;
      });
    }
    return sum;
  };
  const auto make_agent = [&](NodeId) {
    return std::make_unique<NeighborhoodDiscoveryAgent>(k_flood);
  };
  h.time_kernel("engine_flood", "workspace", n, k_flood, [&] {
    SyncEngine engine(g, make_agent);
    engine.run(2 * k_flood + 2);
    return flood_digest(engine);
  });
  h.time_kernel("engine_flood", "pool_shuffled", n, k_flood, [&] {
    SyncEngine engine(g, make_agent);
    engine.run(2 * k_flood + 2, pool);
    return flood_digest(engine);
  });
  // The Hilbert run's digest in the bench's ids (see the file comment).
  const auto original_id_digest = [&](const SyncEngine& engine) {
    const auto known = [&](NodeId v) -> const KnownTable& {
      return dynamic_cast<const NeighborhoodDiscoveryAgent&>(engine.agent(v))
          .known();
    };
    double sum = static_cast<double>(engine.stats().receptions +
                                     engine.stats().rounds);
    for (NodeId v = 0; v < g_sfc.num_nodes(); ++v) {
      known(v).for_each([&](NodeId origin, const KnownRecord& rec) {
        NodeId parent = kInvalidNode;
        for (NodeId u : g_sfc.neighbors(v)) {
          const KnownRecord* via = known(u).find(origin);
          if (u == origin || (via != nullptr && via->dist + 1 == rec.dist)) {
            parent = std::min(parent, sfc.old_of_new[u]);
          }
        }
        sum += sfc.old_of_new[origin] + 31.0 * rec.dist + 7.0 * parent;
      });
    }
    return sum;
  };
  bool warmed_up = false;
  double hilbert_digest = 0.0;
  double original_digest = 0.0;
  h.time_kernel("engine_flood", "pool_hilbert", n, k_flood, [&] {
    SyncEngine engine(g_sfc, make_agent);
    engine.run(2 * k_flood + 2, pool);
    const double digest = flood_digest(engine);
    if (!warmed_up) {
      warmed_up = true;
      hilbert_digest = digest;
      original_digest = original_id_digest(engine);
    }
    // A timed rep that strays from the warm-up breaks the checksum.
    return digest == hilbert_digest ? original_digest : -original_digest;
  });

  if (big) {
    std::cout << " generation speedup x" << fmt(h.speedup("generation", n), 2)
              << ", rss " << bench::peak_rss_bytes() / (1024 * 1024)
              << " MB\n";
  } else {
    std::cout << " clustering speedup x" << fmt(h.speedup("clustering", n), 2)
              << ", backbone speedup x" << fmt(h.speedup("backbone", n), 2)
              << ", engine_flood speedup x"
              << fmt(h.speedup("engine_flood", n), 2) << "\n";
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  bench::Harness harness("PR10", {opt.min_reps, opt.min_seconds});
  ThreadPool pool;  // hardware concurrency, for the parallel variants

  std::vector<std::size_t> benched;
  for (std::size_t n : opt.sizes) {
    const std::size_t realized = bench_point(harness, opt, n, pool, benched);
    if (realized != 0) benched.push_back(realized);
  }

  const auto mismatches = harness.checksum_mismatches();
  for (const std::string& m : mismatches) {
    std::cerr << "CHECKSUM MISMATCH: " << m << "\n";
  }
  if (!mismatches.empty()) return 1;

  if (opt.max_rss_mb != 0) {
    const std::uint64_t rss_mb = bench::peak_rss_bytes() / (1024 * 1024);
    if (rss_mb > opt.max_rss_mb) {
      std::cerr << "RSS CEILING EXCEEDED: peak " << rss_mb << " MB > limit "
                << opt.max_rss_mb << " MB\n";
      return 1;
    }
    std::cout << "peak rss " << rss_mb << " MB (limit " << opt.max_rss_mb
              << " MB)\n";
  }

  harness.write_json(opt.out);
  std::cout << "wrote " << opt.out << "\n";
  return 0;
}
