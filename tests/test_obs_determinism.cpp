// Telemetry determinism guard: every pipeline output — clustering,
// backbone, engine delivery totals, churn repair state — must be
// bit-identical whether telemetry is disabled or enabled, serial or under
// any thread count. Telemetry is observational only; this suite is the
// enforcement of that invariant (the core acceptance criterion of the obs
// subsystem).
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/dynamic/churn_engine.hpp"
#include "khop/dynamic/churn_trace.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/net/generator.hpp"
#include "khop/obs/telemetry.hpp"
#include "khop/obs/trace.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"
#include "khop/sim/engine.hpp"
#include "khop/sim/protocols/neighborhood.hpp"

namespace khop {
namespace {

constexpr std::uint64_t kSeed = 20260808;

Graph random_topology(std::size_t n, double degree, std::uint64_t seed) {
  GeneratorConfig gen;
  gen.num_nodes = n;
  gen.target_degree = degree;
  Rng rng(seed);
  return generate_network(gen, rng).graph;
}

/// Thread counts to exercise: serial (no pool), 2 workers, and the
/// hardware count (deduplicated; on a 1-core machine hardware == 1).
std::vector<std::size_t> thread_counts() {
  std::vector<std::size_t> counts = {0, 2};  // 0 = serial, no pool
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (hw != 2) counts.push_back(hw);
  return counts;
}

/// Digest of one full pipeline + engine execution; the engine runs on a
/// pool of \p threads (0 = the serial run). Clustering and backbone have
/// one serial body. Integer-valued terms, exact in double: equal digests
/// mean bit-identical outputs.
double pipeline_digest(const Graph& g, Hops k, std::size_t threads) {
  double sum = 0.0;

  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);

  Workspace ws;
  const auto priorities = make_priorities(g, PriorityRule::kLowestId);
  const Clustering c =
      khop_clustering(g, k, priorities, AffiliationRule::kIdBased, ws);
  sum += static_cast<double>(c.election_rounds);
  for (NodeId h : c.heads) sum += 11.0 * h;
  for (NodeId v = 0; v < c.head_of.size(); ++v) {
    sum += c.head_of[v] + 7.0 * c.dist_to_head[v];
  }

  const Backbone b = build_backbone(g, c, Pipeline::kNcLmst, ws);
  for (NodeId gw : b.gateways) sum += 13.0 * gw;
  for (const auto& [u, v] : b.virtual_links) sum += 17.0 * u + 19.0 * v;

  SyncEngine engine(g, [&](NodeId) {
    return std::make_unique<NeighborhoodDiscoveryAgent>(k);
  });
  const bool done = pool != nullptr ? engine.run(4 * k + 4, *pool)
                                    : engine.run(4 * k + 4);
  sum += done ? 1.0 : 0.0;
  sum += static_cast<double>(engine.stats().rounds) +
         3.0 * static_cast<double>(engine.stats().transmissions) +
         5.0 * static_cast<double>(engine.stats().receptions) +
         23.0 * static_cast<double>(engine.stats().payload_words);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& agent =
        dynamic_cast<const NeighborhoodDiscoveryAgent&>(engine.agent(v));
    agent.known().for_each([&](NodeId origin, const KnownRecord& rec) {
      sum += origin + 31.0 * rec.dist + 7.0 * rec.parent;
    });
  }
  return sum;
}

double churn_digest(const Graph& g0, Hops k, std::size_t events) {
  ChurnTraceConfig cfg;
  cfg.num_events = events;
  const ChurnTrace trace = ChurnTrace::generate(g0, cfg, kSeed + 9);
  ChurnEngine engine(g0, k, Pipeline::kAcLmst);
  for (const ChurnEvent& e : trace.events()) engine.apply(e);
  EXPECT_EQ(engine.audit(), "");

  double sum = 0.0;
  const Clustering& c = engine.clustering();
  for (NodeId v = 0; v < engine.graph().capacity(); ++v) {
    if (!engine.graph().alive(v)) continue;
    sum += v + 31.0 * c.head_of[v] + 7.0 * c.dist_to_head[v];
  }
  const ChurnStats& s = engine.stats();
  sum += 3.0 * static_cast<double>(s.orphans) +
         5.0 * static_cast<double>(s.reaffiliations) +
         11.0 * static_cast<double>(s.heads_resweeped) +
         13.0 * static_cast<double>(s.touched_nodes);
  return sum;
}

class ObsDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::reset_all(); }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset_all();
  }
};

TEST_F(ObsDeterminismTest, PipelineIdenticalTelemetryOnOff) {
  const Graph g = random_topology(400, 7.0, kSeed);
  const Hops k = 2;
  for (std::size_t threads : thread_counts()) {
    obs::set_enabled(false);
    const double off = pipeline_digest(g, k, threads);
    double on = 0.0;
    {
      obs::ScopedEnable enable;
      on = pipeline_digest(g, k, threads);
    }
    EXPECT_EQ(off, on) << "threads=" << threads;
    obs::reset_all();
  }
}

TEST_F(ObsDeterminismTest, SerialAndParallelIdenticalWithTelemetry) {
  const Graph g = random_topology(400, 7.0, kSeed + 1);
  const Hops k = 2;
  obs::ScopedEnable enable;
  const double serial = pipeline_digest(g, k, 0);
  for (std::size_t threads : thread_counts()) {
    if (threads == 0) continue;
    EXPECT_EQ(serial, pipeline_digest(g, k, threads))
        << "threads=" << threads;
  }
}

TEST_F(ObsDeterminismTest, ChurnIdenticalTelemetryOnOff) {
  const Graph g0 = random_topology(300, 7.0, kSeed + 2);
  obs::set_enabled(false);
  const double off = churn_digest(g0, 2, 120);
  double on = 0.0;
  {
    obs::ScopedEnable enable;
    on = churn_digest(g0, 2, 120);
  }
  EXPECT_EQ(off, on);
}

TEST_F(ObsDeterminismTest, EnabledRunActuallyRecords) {
#if !KHOP_TELEMETRY
  GTEST_SKIP() << "telemetry compiled out";
#endif
  // Guards against the vacuous pass where the instrumentation was compiled
  // out or never reached: the telemetry-on runs above must produce spans.
  const Graph g = random_topology(120, 6.0, kSeed + 3);
  obs::ScopedEnable enable;
  (void)pipeline_digest(g, 2, 0);
  EXPECT_GT(obs::Tracer::global().num_events(), 0u);
}

}  // namespace
}  // namespace khop
