/// \file pipeline.cpp
/// Workloads pipeline_1m and pipeline_2k: the static pipeline on n = 10^6
/// and on n = 2000 nodes.
///
/// Set-up (untimed by the stages): a jittered-grid unit-disk network of
/// degree 8 with shuffled generator ids, the radius raised until connected.
/// Stages, each timed around one library call, on the pool from
/// n = kParallelFrom and serial below it:
///   graph            build_unit_disk_graph_streamed
///   order            Hilbert relabeling of the graph and of the priority
///                    keys (key = original id, carried through the relabel)
///   cluster          khop_clustering, k = 2, distance-based affiliation
///   backbone         build_backbone(AC-LMST)
///   discovery        k = 1 discovery flood, SyncEngine::run(4)
///   lossy_discovery  the same flood under UniformLossDelivery(0.1) with a
///                    retry budget of 2
/// The ideal engine is released before the lossy one is built, so at most
/// one engine is alive. Each stage's output is checked in linear time.
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "checks.hpp"
#include "inputs.hpp"
#include "khop/cluster/clustering.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/graph/relabel.hpp"
#include "khop/graph/spatial_grid.hpp"
#include "khop/obs/telemetry.hpp"
#include "khop/obs/trace.hpp"
#include "khop/radio/delivery.hpp"
#include "khop/sim/engine.hpp"
#include "khop/sim/protocols/neighborhood.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace khop;

namespace {

constexpr double kDegree = 8.0;
constexpr Hops kK = 2;
constexpr std::size_t kFloodRounds = 4;
constexpr double kLoss = 0.1;
constexpr std::size_t kRetryBudget = 2;
/// Pass 0 warms the heap: its flood stages pay the first-touch page faults
/// (0.9 s against 0.4 s for the ideal flood on a 4-vCPU host), so the
/// figures come from the later passes, at least three of them.
constexpr std::size_t kMinPasses = 4;

enum Stage { kGraph, kOrder, kCluster, kBackbone, kDiscovery, kLossy, kStages };
constexpr const char* kStageName[kStages] = {
    "graph", "order", "cluster", "backbone", "discovery", "lossy_discovery"};

struct Pass {
  bool traced = false;
  double setup_s = 0.0;
  double wall_s[kStages] = {};
  double cpu_util[kStages] = {};
  double allocs[kStages] = {};
  double rss_mb[kStages] = {};
  std::map<std::string, double> counts;  ///< must repeat exactly per network
};

const KnownTable& known_of(const SyncEngine& engine, NodeId v) {
  return static_cast<const NeighborhoodDiscoveryAgent&>(engine.agent(v))
      .known();
}

/// Runs one pass; returns false when an exception cut it short (the
/// remaining stages are then counted as failed operations).
bool run_pass(const Options& opt, std::size_t n, std::uint64_t seed,
              ThreadPool* pool, Workspace& ws, RunResult& r, Pass& p) {
  Meter setup;
  GridNetwork net = make_grid_network(n, kDegree, seed, ws, pool);
  std::vector<PriorityKey> keys(n);
  for (NodeId u = 0; u < n; ++u) keys[u] = {static_cast<double>(u), u};
  net.graph = Graph();  // the graph stage builds its own copy
  setup.stop();
  p.setup_s = setup.wall_s();

  const std::size_t threads = pool != nullptr ? pool->num_threads() : 1;
  int stage = kGraph;
  const auto timed = [&](Stage s, const char* span_name, const auto& call) {
    stage = s;
    // Only traced runs report the per-stage marks; an untraced run keeps
    // the heap as the program leaves it between stages.
    if (opt.trace) reset_rss_hwm();
    Meter m;
    {
      obs::Span span(span_name);
      call();
    }
    m.stop();
    p.wall_s[s] = m.wall_s();
    p.cpu_util[s] = m.cpu_util(threads);
    p.allocs[s] = static_cast<double>(m.allocs());
    if (opt.trace) p.rss_mb[s] = rss_hwm_mb();
  };
  const auto agent = [](NodeId) {
    return std::make_unique<NeighborhoodDiscoveryAgent>(1);
  };

  try {
    Graph g;
    timed(kGraph, "graph.build", [&] {
      g = build_unit_disk_graph_streamed(net.positions, net.radius, ws.grid,
                                         pool);
    });
    r.op(prefixed("graph", check_unit_disk_graph(g, net.positions, net.radius)));
    p.counts["graph.edges"] = static_cast<double>(g.num_edges());

    Relabeling sfc;
    Graph gh;
    std::vector<PriorityKey> carried;
    timed(kOrder, "graph.relabel", [&] {
      sfc = sfc_relabeling(net.positions);
      gh = relabel(g, sfc);
      carried = relabel(keys, sfc);
    });
    {
      std::string err;
      for (NodeId u = 0; u < n && err.empty(); ++u) {
        const NodeId v = sfc.new_of_old[u];
        if (v >= n || sfc.old_of_new[v] != u ||
            carried[v].key != static_cast<double>(u)) {
          err = "order: relabeling is not a key-carrying permutation";
        }
      }
      if (err.empty() && gh.num_edges() != g.num_edges()) {
        err = "order: relabeled graph lost edges";
      }
      r.op(err);
    }
    g = Graph();
    keys = {};

    Clustering c;
    timed(kCluster, "cluster.elect", [&] {
      c = khop_clustering(gh, kK, carried, AffiliationRule::kDistanceBased,
                          ws);
    });
    r.op(prefixed("cluster", check_clustering(gh, c, ws)));
    p.counts["cluster.rounds"] = static_cast<double>(c.election_rounds);
    p.counts["cluster.heads"] = static_cast<double>(c.heads.size());

    Backbone b;
    timed(kBackbone, "gateway.backbone",
          [&] {
            b = pool != nullptr ? build_backbone(gh, c, Pipeline::kAcLmst, *pool)
                                : build_backbone(gh, c, Pipeline::kAcLmst, ws);
          });
    r.op(prefixed("backbone", check_backbone(gh, c, b, ws)));
    p.counts["gateway.cds_size"] = static_cast<double>(b.cds_size());
    p.counts["gateway.links"] = static_cast<double>(b.virtual_links.size());

    {
      std::optional<SyncEngine> engine;
      bool quiesced = false;
      timed(kDiscovery, "sim.flood", [&] {
        engine.emplace(gh, agent);
        quiesced = pool != nullptr ? engine->run(kFloodRounds, *pool)
                                   : engine->run(kFloodRounds);
      });
      const SimStats& st = engine->stats();
      std::string err = quiesced ? "" : "flood did not quiesce";
      if (err.empty()) {
        err = check_discovery(
            gh,
            [&](NodeId v) -> const KnownTable& { return known_of(*engine, v); },
            st, /*lossy=*/false);
      }
      r.op(prefixed("discovery", err));
      p.counts["sim.rounds"] = static_cast<double>(st.rounds);
      p.counts["sim.transmissions"] = static_cast<double>(st.transmissions);
      p.counts["sim.receptions"] = static_cast<double>(st.receptions);
    }

    {
      UniformLossDelivery model(kLoss, seed ^ 0x5eedf100dULL);
      DeliveryOptions delivery;
      delivery.model = &model;
      delivery.retry_budget = kRetryBudget;
      std::optional<SyncEngine> engine;
      bool quiesced = false;
      timed(kLossy, "sim.lossy_flood", [&] {
        engine.emplace(gh, agent, delivery);
        quiesced = pool != nullptr ? engine->run(kFloodRounds, *pool)
                                   : engine->run(kFloodRounds);
      });
      const SimStats& st = engine->stats();
      std::string err = quiesced ? "" : "lossy flood did not quiesce";
      if (err.empty()) {
        err = check_discovery(
            gh,
            [&](NodeId v) -> const KnownTable& { return known_of(*engine, v); },
            st, /*lossy=*/true);
      }
      if (err.empty()) {
        err = check_lossy_counts(st, 2 * gh.num_edges(), kLoss, kRetryBudget);
      }
      r.op(prefixed("lossy_discovery", err));
      p.counts["radio.drops"] = static_cast<double>(st.drops);
      p.counts["radio.retransmissions"] =
          static_cast<double>(st.retransmissions);
      p.counts["radio.receptions"] = static_cast<double>(st.receptions);
    }
  } catch (const std::exception& e) {
    r.op(std::string(kStageName[stage]) + ": " + e.what());
    for (int s = stage + 1; s < kStages; ++s) {
      r.op(std::string(kStageName[s]) + ": not run");
    }
    return false;
  }
  return true;
}

}  // namespace

RunResult run_pipeline(const Options& opt, std::size_t n,
                       std::size_t networks) {
  std::cout << opt.workload << ": n = " << n << " (" << networks
            << " network(s), one per pass), degree " << kDegree
            << ", k = " << kK << ", AC-LMST, flood k = 1 (ideal, then loss "
            << kLoss << " with retry budget " << kRetryBudget << ")\n"
            << "input id order: generator ids (shuffled grid cells); the "
               "stages after `order` run on Hilbert ids with the original-id "
               "priority keys carried through the relabel\n";
  std::optional<ThreadPool> pool;
  if (n >= kParallelFrom) pool.emplace(pool_threads());
  ThreadPool* stage_pool = pool ? &*pool : nullptr;
  std::cout << "stages "
            << (stage_pool != nullptr
                    ? "on a pool of " + std::to_string(pool_threads()) +
                          " threads"
                    : "serial (n below " + std::to_string(kParallelFrom) + ")")
            << "\n";
  Workspace ws;
  RunResult r;
  std::vector<Pass> passes;
  const double t_start = wall_now();
  while (want_pass(opt, t_start, passes.size(), kMinPasses)) {
    Pass p;
    p.traced = begin_pass(opt, passes.size());
    const bool complete = run_pass(
        opt, n, input_seed(opt, passes.size(), networks), stage_pool, ws, r,
        p);
    if (stage_pool != nullptr) stage_pool->wait_idle();
    obs::set_enabled(false);
    if (!complete) break;
    if (passes.size() >= networks &&
        p.counts != passes[passes.size() - networks].counts) {
      r.op("counts differ between passes of one network");
    }
    passes.push_back(std::move(p));
  }
  if (opt.trace) write_trace(opt);
  if (passes.empty()) return r;

  std::vector<bool> traced;
  for (const Pass& p : passes) traced.push_back(p.traced);
  const std::vector<bool> measured = measured_passes(opt, traced);
  std::vector<double> setup_s, work_s, measured_work_s;
  std::vector<OpLatency> ops;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    setup_s.push_back(p.setup_s);
    double work = 0.0;
    std::vector<double> stage_ms;
    for (double w : p.wall_s) {
      work += w;
      stage_ms.push_back(1e3 * w);
    }
    work_s.push_back(work);
    if (measured[i]) {
      measured_work_s.push_back(work);
      ops.push_back(op_latency(stage_ms));
    }
  }
  set_end_to_end(r, setup_s, measured_work_s, ops);

  const auto stage_median = [&](auto field) {
    std::vector<double> v;
    for (std::size_t i = 0; i < passes.size(); ++i) {
      if (measured[i]) v.push_back(field(passes[i]));
    }
    return median(v);
  };
  const auto wall = [&](Stage s) {
    return stage_median([s](const Pass& p) { return p.wall_s[s]; });
  };
  std::cout << passes.size()
            << " passes (pass 0 warms up and is left out); stage medians:";
  for (int s = 0; s < kStages; ++s) {
    std::cout << ' ' << kStageName[s] << ' ' << wall(static_cast<Stage>(s))
              << " s";
  }
  std::cout << "\nworkload metrics:\n"
            << "  build_s             "
            << wall(kGraph) + wall(kOrder) + wall(kCluster) + wall(kBackbone)
            << " s\n"
            << "  discovery_s         " << wall(kDiscovery) << " s\n"
            << "  lossy_discovery_s   " << wall(kLossy) << " s\n";

  Metrics& m = r.per_layer;
  const auto util = [&](Stage s) {
    return stage_median([s](const Pass& p) { return p.cpu_util[s]; });
  };
  const auto allocs = [&](Stage s) {
    return stage_median([s](const Pass& p) { return p.allocs[s]; });
  };
  const std::map<std::string, double>& counts = passes.front().counts;
  set_layer(m, "graph.build_s", wall(kGraph));
  set_layer(m, "graph.build_cpu_util", util(kGraph));
  set_layer(m, "graph.build_allocs", allocs(kGraph));
  set_layer(m, "graph.relabel_s", wall(kOrder));
  set_layer(m, "cluster.elect_s", wall(kCluster));
  set_layer(m, "cluster.elect_allocs", allocs(kCluster));
  set_layer(m, "gateway.backbone_s", wall(kBackbone));
  set_layer(m, "gateway.backbone_cpu_util", util(kBackbone));
  set_layer(m, "gateway.backbone_allocs", allocs(kBackbone));
  set_layer(m, "sim.flood_s", wall(kDiscovery));
  set_layer(m, "sim.flood_cpu_util", util(kDiscovery));
  set_layer(m, "sim.flood_allocs", allocs(kDiscovery));
  set_layer(m, "sim.lossy_flood_s", wall(kLossy));
  set_layer(m, "sim.lossy_cpu_util", util(kLossy));
  for (const char* name :
       {"graph.edges", "cluster.rounds", "cluster.heads", "gateway.cds_size",
        "gateway.links", "sim.rounds", "sim.transmissions", "sim.receptions",
        "radio.drops", "radio.retransmissions"}) {
    set_layer(m, name, counts.at(name));
  }
  set_layer(m, "sim.receptions_per_s", stage_median([](const Pass& p) {
              return p.counts.at("sim.receptions") / p.wall_s[kDiscovery];
            }));
  const double rx = counts.at("radio.receptions");
  set_layer(m, "radio.delivery_ratio", rx / (rx + counts.at("radio.drops")));
  for (int s = 0; s < kStages; ++s) {
    set_layer(m, std::string(kStageName[s]) + ".rss_hwm_mb",
          stage_median([s](const Pass& p) { return p.rss_mb[s]; }));
  }
  set_layer(m, "obs.trace_overhead_pct", trace_overhead_pct(work_s, traced));
  return r;
}

}  // namespace perfbench
