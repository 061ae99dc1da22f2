/// \file churn.cpp
/// Workloads churn_100k and churn_2k: sustained, crash-safe maintenance on
/// n = 10^5 and on n = 2000 nodes.
///
/// Set-up: the jittered-grid generator at n nodes on its generator ids
/// (ChurnEngine elects by lowest id, and Hilbert ids turn that election into
/// a sqrt(n)-round march), a ChurnTrace with the equal fail / join /
/// link-down / link-up mix, one radius-1 burst at 1/4 and one radius-2
/// partition at 1/2 with rejoin (the recipe of bench/ext_dynamics.cpp), and
/// DurableChurnEngine::create(g, 2, AC-LMST, dir) with default durability.
/// Timed: every event through DurableChurnEngine::apply, then flush_wal(),
/// then DurableChurnEngine::recover() on the directory the run left.
/// Checked: audit() is "" on the live and on the recovered engine, and the
/// two agree field by field.
#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>

#include "checks.hpp"
#include "inputs.hpp"
#include "khop/dynamic/churn_trace.hpp"
#include "khop/dynamic/persist/store.hpp"
#include "khop/obs/telemetry.hpp"
#include "khop/obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace khop;
namespace fs = std::filesystem;

namespace {

constexpr double kDegree = 8.0;
constexpr Hops kK = 2;
/// One snapshot boundary (every 256 events by default) plus a replayed tail
/// of 16 events; more than 200 events, so 10+ samples lie beyond the p95.
constexpr std::size_t kEvents = 272;

struct Pass {
  bool traced = false;
  double setup_s = 0.0;
  double create_s = 0.0;
  std::vector<double> event_ms;      ///< apply latency of every event
  std::vector<double> plain_ms;      ///< events where no snapshot fired
  std::vector<double> snapshot_ms;   ///< events that crossed a boundary
  double apply_s = 0.0;
  double recover_s = 0.0;
  double work_s = 0.0;
  double audit_s = 0.0;
  double apply_span_s = 0.0;  ///< churn/event span time (traced passes)
  std::map<std::string, double> counts;  ///< must repeat exactly per network
};

ChurnTrace make_trace(const Graph& g, std::uint64_t seed) {
  ChurnTraceConfig cfg;
  cfg.num_events = kEvents;
  cfg.burst_at = kEvents / 4;
  cfg.burst_radius = 1;
  cfg.partition_at = kEvents / 2;
  cfg.partition_radius = 2;
  cfg.rejoin_after = std::max<std::size_t>(10, kEvents / 20);
  return ChurnTrace::generate(g, cfg, seed);
}

std::uint64_t dir_bytes(const std::string& dir, const std::string& suffix) {
  std::uint64_t total = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (e.is_regular_file() && name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += e.file_size();
    }
  }
  return total;
}

/// The snapshot DurableChurnEngine writes at \p cursor (store.hpp layout).
std::string snapshot_file(const std::string& dir, std::uint64_t cursor) {
  std::ostringstream os;
  os << dir << "/snap-" << std::setw(12) << std::setfill('0') << cursor
     << ".khsnp";
  return os.str();
}

/// Sum of the durations of every recorded span named \p name, in seconds.
double span_seconds(const char* name) {
  double total = 0.0;
  for (const obs::TraceEvent& ev : obs::Tracer::global().snapshot()) {
    if (std::string_view(ev.name) == name) total += 1e-9 * (ev.t1_ns - ev.t0_ns);
  }
  return total;
}

/// Runs one pass in \p root; returns false when an exception cut it short.
bool run_pass(std::size_t n, std::uint64_t seed, const std::string& root,
              ThreadPool* pool, Workspace& ws, RunResult& r, Pass& p) {
  const std::string dir = root + "/store";
  fs::remove_all(dir);
  std::optional<persist::DurableChurnEngine> live;
  Meter setup;
  GridNetwork net = make_grid_network(n, kDegree, seed, ws, pool);
  const ChurnTrace trace = make_trace(net.graph, seed + 1);
  Meter create;
  {
    obs::Span span("persist.create");
    live.emplace(persist::DurableChurnEngine::create(net.graph, kK,
                                                     Pipeline::kAcLmst, dir));
  }
  create.stop();
  setup.stop();
  p.setup_s = setup.wall_s();
  p.create_s = create.wall_s();
  std::uint64_t snapshot_bytes = dir_bytes(dir, ".khsnp");

  const std::size_t events = trace.size();
  std::size_t snapshots = 1;  // create() writes the cursor-0 snapshot
  std::size_t done = 0;
  try {
    const double t0 = wall_now();
    for (const ChurnEvent& e : trace.events()) {
      const double te = wall_now();
      {
        obs::Span span("dynamic.apply");
        live->apply(e);
      }
      const double ms = 1e3 * (wall_now() - te);
      p.event_ms.push_back(ms);
      if (live->cursor() % persist::DurabilityOptions{}.snapshot_every == 0) {
        p.snapshot_ms.push_back(ms);
        ++snapshots;
        snapshot_bytes += fs::file_size(snapshot_file(dir, live->cursor()));
      } else {
        p.plain_ms.push_back(ms);
      }
      ++done;
      r.op("");
    }
    p.apply_s = wall_now() - t0;

    {
      obs::Span span("persist.flush_wal");
      live->flush_wal();
    }

    persist::RecoveryReport report;
    std::optional<persist::DurableChurnEngine> recovered;
    const double tr = wall_now();
    {
      obs::Span span("persist.recover");
      recovered.emplace(persist::DurableChurnEngine::recover(dir, &report));
    }
    p.recover_s = wall_now() - tr;
    p.work_s = wall_now() - t0;
    if (p.traced) p.apply_span_s = span_seconds("churn/event");

    std::string err;
    const std::size_t expect_replay =
        events % persist::DurabilityOptions{}.snapshot_every;
    if (report.replayed_events != expect_replay || !report.fallbacks.empty() ||
        !report.wal_tail.empty() || recovered->cursor() != live->cursor()) {
      err = "recovery replayed " + std::to_string(report.replayed_events) +
            " events (expected " + std::to_string(expect_replay) + ")";
    }
    if (err.empty()) {
      err = compare_engines(live->engine(), recovered->engine());
    }
    if (err.empty()) {
      const double ta = wall_now();
      {
        obs::Span span("dynamic.audit");
        err = prefixed("live audit", live->engine().audit());
      }
      p.audit_s = wall_now() - ta;
    }
    if (err.empty()) {
      err = prefixed("recovered audit", recovered->engine().audit());
    }
    r.op(prefixed("recovery", err));

    const ChurnEngine& engine = live->engine();
    const ChurnStats& st = engine.stats();
    const auto per_event = [&](std::size_t v) {
      return static_cast<double>(v) / static_cast<double>(st.events);
    };
    p.counts = {
        {"dynamic.touched_per_event", per_event(st.touched_nodes)},
        {"dynamic.resweeps_per_event", per_event(st.heads_resweeped)},
        {"dynamic.orphans", static_cast<double>(st.orphans)},
        {"dynamic.new_heads", static_cast<double>(st.new_heads)},
        {"dynamic.partitions", static_cast<double>(st.partitions)},
        {"dynamic.merges", static_cast<double>(st.merges)},
        {"dynamic.noop_events", static_cast<double>(st.noop_events)},
        {"cluster.heads", static_cast<double>(engine.clustering().heads.size())},
        {"gateway.cds_size", static_cast<double>(engine.backbone().cds_size())},
        {"gateway.links",
         static_cast<double>(engine.virtual_links().all().size())},
        {"graph.edges", static_cast<double>(engine.graph().num_edges())},
        {"persist.snapshots", static_cast<double>(snapshots)},
        {"persist.snapshot_bytes", static_cast<double>(snapshot_bytes)},
        {"persist.wal_bytes", static_cast<double>(dir_bytes(dir, ".khwal"))},
        {"persist.replayed_events",
         static_cast<double>(report.replayed_events)},
    };
  } catch (const std::exception& e) {
    r.op(std::string("event ") + std::to_string(done) + ": " + e.what());
    for (std::size_t i = done + 1; i < events + 1; ++i) r.op("not run");
    live.reset();
    fs::remove_all(dir);
    return false;
  }
  live.reset();
  fs::remove_all(dir);
  return true;
}

}  // namespace

RunResult run_churn(const Options& opt, std::size_t n, std::size_t networks) {
  std::cout << opt.workload << ": n = " << n << " (" << networks
            << " network(s), one per pass), degree " << kDegree
            << ", k = " << kK << ", AC-LMST, " << kEvents
            << " events (burst r1 at 1/4, partition r2 at 1/2 with rejoin), "
               "default durability (snapshot every "
            << persist::DurabilityOptions{}.snapshot_every << ")\n"
            << "input id order: generator ids (shuffled grid cells); "
               "ChurnEngine elects by lowest id, so Hilbert ids are not used\n";
  std::optional<ThreadPool> pool;
  if (n >= kParallelFrom) pool.emplace(pool_threads());
  Workspace ws;
  RunResult r;
  const std::string root = opt.work_dir + "/" + opt.workload;
  fs::create_directories(root);
  std::vector<Pass> passes;
  const double t_start = wall_now();
  while (want_pass(opt, t_start, passes.size(), 2)) {
    Pass p;
    p.traced = begin_pass(opt, passes.size());
    const bool complete = run_pass(
        n, input_seed(opt, passes.size(), networks), root,
        pool ? &*pool : nullptr, ws, r, p);
    obs::set_enabled(false);
    if (!complete) break;
    if (passes.size() >= networks &&
        p.counts != passes[passes.size() - networks].counts) {
      r.op("counts differ between passes of one network");
    }
    passes.push_back(std::move(p));
  }
  if (opt.trace) write_trace(opt);
  fs::remove_all(root);
  if (passes.empty()) return r;

  std::vector<bool> traced;
  for (const Pass& p : passes) traced.push_back(p.traced);
  const std::vector<bool> measured = measured_passes(opt, traced);
  std::vector<double> setup_s, work_s, measured_work_s;
  std::vector<OpLatency> ops;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    setup_s.push_back(p.setup_s);
    work_s.push_back(p.work_s);
    if (!measured[i]) continue;
    measured_work_s.push_back(p.work_s);
    std::vector<double> op_ms = p.event_ms;
    op_ms.push_back(1e3 * p.recover_s);
    ops.push_back(op_latency(op_ms));
  }
  set_end_to_end(r, setup_s, measured_work_s, ops);

  const auto pass_median = [&](auto field) {
    std::vector<double> v;
    for (std::size_t i = 0; i < passes.size(); ++i) {
      if (measured[i]) v.push_back(field(passes[i]));
    }
    return median(v);
  };
  std::vector<double> events_ms, plain_ms, snapshot_ms;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (!measured[i]) continue;
    const Pass& p = passes[i];
    events_ms.insert(events_ms.end(), p.event_ms.begin(), p.event_ms.end());
    plain_ms.insert(plain_ms.end(), p.plain_ms.begin(), p.plain_ms.end());
    snapshot_ms.insert(snapshot_ms.end(), p.snapshot_ms.begin(),
                       p.snapshot_ms.end());
  }
  std::cout << passes.size() << " passes (pass 0 warms up and is left out)\n"
            << "workload metrics:\n"
            << "  event_p50_ms        " << quantile(events_ms, 0.50) << " ms\n"
            << "  event_p95_ms        " << quantile(events_ms, 0.95) << " ms\n"
            << "  events_per_s        "
            << pass_median([](const Pass& p) {
                 return static_cast<double>(p.event_ms.size()) / p.apply_s;
               })
            << " 1/s\n"
            << "  recover_s           "
            << pass_median([](const Pass& p) { return p.recover_s; }) << " s\n";

  Metrics& m = r.per_layer;
  set_layer(m, "dynamic.apply_ms_p50", median(plain_ms));
  set_layer(m, "dynamic.audit_s",
            pass_median([](const Pass& p) { return p.audit_s; }));
  set_layer(m, "dynamic.apply_share", pass_median([](const Pass& p) {
              return p.apply_span_s / p.work_s;
            }));
  set_layer(m, "persist.snapshot_event_ms", median(snapshot_ms));
  set_layer(m, "persist.create_s",
            pass_median([](const Pass& p) { return p.create_s; }));
  for (const auto& [name, value] : passes.front().counts) {
    set_layer(m, name, value);
  }
  set_layer(m, "obs.trace_overhead_pct", trace_overhead_pct(work_s, traced));
  return r;
}

}  // namespace perfbench
