/// \file check_tests.cpp
/// perfbench_checks: tests of the benchmark's own output checks at small n.
///
///  * On valid outputs the linear-time checks agree with the library's
///    validators (validate_clustering, validate_k_cds) and with the
///    sim/reference engine and unit-disk builder, ideal and lossy.
///  * A unit-disk graph with one edge removed, or with one edge longer
///    than the radius added, is rejected.
///  * On corrupted outputs (a flipped head_of, a wrong distance, a member
///    promoted to head next to its head, a removed gateway, a head listed as
///    gateway, a missing or foreign or misrouted discovery entry, impossible
///    lossy counters, a diverged churn engine)
///    they fail, and wherever a library validator judges the same output
///    they reach the same verdict.
///  * The counts the benchmark reports repeat for a seed and change with it.
///
/// Usage: perfbench_checks [WORK_DIR]   (exit code 0 iff every test passed)
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "checks.hpp"
#include "inputs.hpp"
#include "khop/cds/cds.hpp"
#include "khop/cluster/validate.hpp"
#include "khop/dynamic/churn_trace.hpp"
#include "khop/dynamic/persist/store.hpp"
#include "khop/graph/bfs.hpp"
#include "khop/graph/spatial_grid.hpp"
#include "khop/net/generator.hpp"
#include "khop/radio/delivery.hpp"
#include "khop/sim/engine.hpp"
#include "khop/sim/reference.hpp"

namespace {

using namespace khop;
using namespace perfbench;

int g_failures = 0;
int g_checks = 0;

void expect(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::cout << "FAIL: " << what << "\n";
  }
}

Graph small_network(std::size_t n, double degree, std::uint64_t seed) {
  GeneratorConfig gen;
  gen.num_nodes = n;
  gen.target_degree = degree;
  Rng rng(seed);
  return generate_network(gen, rng).graph;
}

void test_unit_disk_graph(std::uint64_t seed) {
  const std::string tag = "graph seed " + std::to_string(seed);
  Workspace ws;
  ThreadPool pool(2);
  const GridNetwork grid = make_grid_network(2000, 8, seed, ws, &pool);
  expect(check_unit_disk_graph(grid.graph, grid.positions, grid.radius).empty(),
         tag + ": grid network accepted");

  GeneratorConfig gen;
  gen.num_nodes = 400;
  gen.target_degree = seed % 2 == 0 ? 6 : 10;
  Rng rng(seed);
  const AdHocNetwork net = generate_network(gen, rng);
  const Graph streamed = build_unit_disk_graph_streamed(
      net.positions, net.radius, ws.grid, &pool);
  const Graph ref = reference::build_unit_disk_graph(net.positions, net.radius);
  std::vector<std::pair<NodeId, NodeId>> edges = ref.edge_list();
  expect(streamed.edge_list() == edges,
         tag + ": streamed build equals reference::build_unit_disk_graph");
  expect(check_unit_disk_graph(streamed, net.positions, net.radius).empty(),
         tag + ": streamed build accepted");

  const std::size_t n = net.positions.size();
  std::vector<std::pair<NodeId, NodeId>> fewer = edges;
  fewer.erase(fewer.begin() + static_cast<long>(seed % fewer.size()));
  expect(!check_unit_disk_graph(Graph::from_edges(n, fewer), net.positions,
                                net.radius)
              .empty(),
         tag + ": graph with one edge removed rejected");

  NodeId a = 0, b = 1;
  while (distance_sq(net.positions[a], net.positions[b]) <=
         net.radius * net.radius) {
    ++b;
  }
  edges.emplace_back(a, b);
  expect(!check_unit_disk_graph(Graph::from_edges(n, edges), net.positions,
                                net.radius)
              .empty(),
         tag + ": graph with an edge longer than the radius rejected");
}

void test_clustering_and_backbone(std::uint64_t seed) {
  Workspace ws;
  const Graph g = small_network(seed % 2 == 0 ? 80 : 160, seed % 3 == 0 ? 10 : 6,
                                seed);
  const std::string tag = "seed " + std::to_string(seed);
  for (Hops k = 1; k <= 3; ++k) {
    for (AffiliationRule rule :
         {AffiliationRule::kIdBased, AffiliationRule::kDistanceBased}) {
      const Clustering c = khop_clustering(g, k, rule);
      expect(check_clustering(g, c, ws).empty() &&
                 validate_clustering(g, c).empty(),
             tag + ": valid clustering accepted by both validators");

      // Flip one member to a head at another distance: both must reject.
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (c.is_head(v)) continue;
        const BfsTree t = bfs(g, v);
        for (std::uint32_t i = 0; i < c.heads.size(); ++i) {
          if (t.dist[c.heads[i]] == c.dist_to_head[v]) continue;
          Clustering bad = c;
          bad.head_of[v] = c.heads[i];
          bad.cluster_of[v] = i;
          expect(!check_clustering(g, bad, ws).empty(),
                 tag + ": flipped head_of rejected");
          expect(!validate_clustering(g, bad).empty(),
                 tag + ": flipped head_of rejected by validate_clustering");
          break;
        }
        Clustering far = c;
        far.dist_to_head[v] += 1;
        expect(!check_clustering(g, far, ws).empty() &&
                   !validate_clustering(g, far).empty(),
               tag + ": wrong dist_to_head rejected by both");

        // Promote the member to a head: it sits within k of its old head.
        Clustering twin = c;
        const auto at = std::lower_bound(twin.heads.begin(), twin.heads.end(), v);
        twin.heads.insert(at, v);
        twin.head_of[v] = v;
        twin.dist_to_head[v] = 0;
        for (NodeId w = 0; w < g.num_nodes(); ++w) {
          twin.cluster_of[w] = static_cast<std::uint32_t>(
              std::lower_bound(twin.heads.begin(), twin.heads.end(),
                               twin.head_of[w]) -
              twin.heads.begin());
        }
        expect(!check_clustering(g, twin, ws).empty() &&
                   !validate_clustering(g, twin).empty(),
               tag + ": heads within k hops rejected by both");
        break;
      }

      for (const Pipeline p : kAllPipelines) {
        const Backbone b = build_backbone(g, c, p);
        expect(check_backbone(g, c, b, ws).empty() &&
                   validate_k_cds(g, c, b).empty(),
               tag + ": valid backbone accepted by both validators");
        // Removing any single gateway: verdicts must agree.
        for (std::size_t i = 0; i < b.gateways.size(); ++i) {
          Backbone cut = b;
          cut.gateways.erase(cut.gateways.begin() + static_cast<long>(i));
          expect(check_backbone(g, c, cut, ws).empty() ==
                     validate_k_cds(g, c, cut).empty(),
                 tag + ": removed gateway judged alike");
        }
        if (!b.gateways.empty() || b.heads.size() > 1) {
          Backbone overlap = b;
          overlap.gateways.push_back(b.heads.back());
          std::sort(overlap.gateways.begin(), overlap.gateways.end());
          expect(!check_backbone(g, c, overlap, ws).empty() &&
                     !validate_k_cds(g, c, overlap).empty(),
                 tag + ": head listed as gateway rejected by both");
        }
      }
    }
  }
}

/// Copies every node's discovery table so tests can corrupt it.
std::vector<KnownTable> copy_tables(const SyncEngine& e, std::size_t n) {
  std::vector<KnownTable> out(n);
  for (NodeId v = 0; v < n; ++v) {
    const auto& agent =
        static_cast<const NeighborhoodDiscoveryAgent&>(e.agent(v));
    agent.known().for_each([&](NodeId origin, const KnownRecord& rec) {
      bool inserted = false;
      out[v].upsert(origin, inserted) = rec;
    });
  }
  return out;
}

/// True iff the production and the reference engine discovered the same
/// (origin, dist, parent) records at every node.
bool same_as_reference(const SyncEngine& e, const reference::SyncEngine& ref,
                       std::size_t n) {
  for (NodeId v = 0; v < n; ++v) {
    const auto& a = static_cast<const NeighborhoodDiscoveryAgent&>(e.agent(v));
    const auto& b =
        static_cast<const reference::NeighborhoodDiscoveryAgent&>(ref.agent(v));
    const auto items = a.known().sorted_items();
    if (items.size() != b.known().size()) return false;
    std::size_t i = 0;
    for (const auto& [origin, rec] : b.known()) {
      if (items[i].first != origin || items[i].second.dist != rec.dist ||
          items[i].second.parent != rec.parent) {
        return false;
      }
      ++i;
    }
  }
  return true;
}

void test_discovery(std::uint64_t seed) {
  const Graph g = small_network(300, 8, seed);
  const std::size_t n = g.num_nodes();
  const std::string tag = "flood seed " + std::to_string(seed);
  const auto agent = [](NodeId) {
    return std::make_unique<NeighborhoodDiscoveryAgent>(1);
  };
  const auto ref_agent = [](NodeId) {
    return std::make_unique<reference::NeighborhoodDiscoveryAgent>(1);
  };

  SyncEngine ideal(g, agent);
  ideal.run(4);
  reference::SyncEngine ideal_ref(g, ref_agent);
  ideal_ref.run(4);
  std::vector<KnownTable> tables = copy_tables(ideal, n);
  const KnownOf of = [&](NodeId v) -> const KnownTable& { return tables[v]; };
  expect(same_as_reference(ideal, ideal_ref, n),
         tag + ": ideal flood matches sim/reference");
  expect(check_discovery(g, of, ideal.stats(), false).empty(),
         tag + ": ideal flood accepted");

  // A missing, a foreign, and a misrouted entry must each be rejected.
  const NodeId v = 7;
  const NodeId u = g.neighbors(v).front();
  KnownTable saved = tables[v];
  tables[v] = KnownTable();
  for (NodeId w : g.neighbors(v)) {
    bool inserted = false;
    if (w != u) tables[v].upsert(w, inserted) = KnownRecord{1, w};
  }
  expect(!check_discovery(g, of, ideal.stats(), false).empty(),
         tag + ": missing neighbour rejected");
  tables[v] = saved;
  bool inserted = false;
  NodeId stranger = 0;
  while (stranger == v || g.has_edge(v, stranger)) ++stranger;
  tables[v].upsert(stranger, inserted) = KnownRecord{1, stranger};
  expect(!check_discovery(g, of, ideal.stats(), false).empty(),
         tag + ": foreign entry rejected");
  tables[v] = saved;
  tables[v].upsert(u, inserted) = KnownRecord{2, u};
  expect(!check_discovery(g, of, ideal.stats(), false).empty(),
         tag + ": wrong distance rejected");
  tables[v] = saved;

  const double loss = 0.3;
  const std::size_t retry = 1;
  UniformLossDelivery model(loss, seed);
  UniformLossDelivery ref_model(loss, seed);
  SyncEngine lossy(g, agent, DeliveryOptions{&model, retry});
  lossy.run(4);
  reference::SyncEngine lossy_ref(g, ref_agent,
                                  DeliveryOptions{&ref_model, retry});
  lossy_ref.run(4);
  tables = copy_tables(lossy, n);
  const SimStats& st = lossy.stats();
  expect(same_as_reference(lossy, lossy_ref, n) &&
             st.drops == lossy_ref.stats().drops,
         tag + ": lossy flood matches sim/reference");
  expect(st.drops > 0, tag + ": lossy flood drops something");
  expect(check_discovery(g, of, st, true).empty(),
         tag + ": lossy flood accepted");
  expect(check_lossy_counts(st, 2 * g.num_edges(), loss, retry).empty(),
         tag + ": lossy counters accepted");
  expect(!check_discovery(g, of, st, false).empty(),
         tag + ": lossy tables rejected as an ideal flood");

  SimStats off = st;
  off.drops += 1;
  expect(!check_discovery(g, of, off, true).empty(),
         tag + ": miscounted drops rejected");
  SimStats none = st;
  none.drops = 0;
  none.retransmissions = 0;
  expect(!check_lossy_counts(none, 2 * g.num_edges(), loss, retry).empty(),
         tag + ": lossless counters under loss rejected");
  SimStats few = st;
  few.retransmissions = few.drops * retry - 1;
  expect(!check_lossy_counts(few, 2 * g.num_edges(), loss, retry).empty(),
         tag + ": too few retransmissions rejected");
}

ChurnTrace small_trace(const Graph& g, std::uint64_t seed) {
  ChurnTraceConfig cfg;
  cfg.num_events = 120;
  cfg.burst_at = 30;
  cfg.partition_at = 60;
  cfg.rejoin_after = 10;
  return ChurnTrace::generate(g, cfg, seed);
}

void test_churn(const std::string& work_dir, std::uint64_t seed) {
  Workspace ws;
  ThreadPool pool(2);
  const GridNetwork net = make_grid_network(2000, 8, seed, ws, &pool);
  const ChurnTrace trace = small_trace(net.graph, seed);
  const std::string dir = work_dir + "/check-churn";
  std::filesystem::remove_all(dir);
  persist::DurabilityOptions dopts;
  dopts.snapshot_every = 50;
  auto live = persist::DurableChurnEngine::create(net.graph, 2,
                                                  Pipeline::kAcLmst, dir, dopts);
  for (const ChurnEvent& e : trace.events()) live.apply(e);
  live.flush_wal();
  persist::RecoveryReport report;
  auto recovered = persist::DurableChurnEngine::recover(dir, &report, dopts);
  expect(report.replayed_events == trace.size() % 50,
         "churn: recovery replays the tail after the last snapshot");
  expect(compare_engines(live.engine(), recovered.engine()).empty(),
         "churn: recovered engine equals the live one");
  ChurnEngine diverged = live.engine();
  NodeId a = 0;
  while (!diverged.graph().alive(a) || diverged.graph().degree(a) == 0) ++a;
  const NodeId b = diverged.graph().neighbors(a).front();
  diverged.apply(ChurnEvent{ChurnEventType::kLinkDown, std::min(a, b),
                            std::max(a, b), {}});
  expect(!compare_engines(live.engine(), diverged).empty(),
         "churn: an engine one event ahead differs");
  expect(live.engine().audit().empty() && recovered.engine().audit().empty(),
         "churn: both engines pass audit()");
  std::filesystem::remove_all(dir);
}

/// The counts the benchmark reports, for a small instance of each workload's
/// building blocks generated from \p seed.
std::map<std::string, double> counts_for(std::uint64_t seed) {
  Workspace ws;
  ThreadPool pool(2);
  const GridNetwork net = make_grid_network(3000, 8, seed, ws, &pool);
  const Graph& g = net.graph;
  std::map<std::string, double> out;
  out["graph.edges"] = static_cast<double>(g.num_edges());
  const Clustering c = khop_clustering(g, 2);
  out["cluster.rounds"] = static_cast<double>(c.election_rounds);
  out["cluster.heads"] = static_cast<double>(c.heads.size());
  out["gateway.cds_size"] =
      static_cast<double>(build_backbone(g, c, Pipeline::kAcLmst).cds_size());
  UniformLossDelivery model(0.1, seed);
  SyncEngine e(g, [](NodeId) {
    return std::make_unique<NeighborhoodDiscoveryAgent>(1);
  }, DeliveryOptions{&model, 2});
  e.run(4, pool);
  out["sim.receptions"] = static_cast<double>(e.stats().receptions);
  out["radio.drops"] = static_cast<double>(e.stats().drops);
  ChurnEngine churn(g, 2, Pipeline::kAcLmst);
  const ChurnTrace trace = small_trace(g, seed + 1);
  for (const ChurnEvent& ev : trace.events()) churn.apply(ev);
  out["dynamic.touched"] = static_cast<double>(churn.stats().touched_nodes);
  out["dynamic.orphans"] = static_cast<double>(churn.stats().orphans);
  return out;
}

void test_determinism() {
  const auto a = counts_for(11);
  expect(a == counts_for(11), "counts repeat for the same seed");
  expect(a != counts_for(12), "counts change with the seed");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string work_dir = argc > 1 ? argv[1] : ".";
  for (std::uint64_t seed = 1; seed <= 3; ++seed) test_unit_disk_graph(seed);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    test_clustering_and_backbone(seed);
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) test_discovery(seed);
  test_churn(work_dir, 5);
  test_determinism();
  std::cout << "perfbench_checks: " << g_checks - g_failures << "/" << g_checks
            << " checks passed\n";
  return g_failures == 0 ? 0 : 1;
}
