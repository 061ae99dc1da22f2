#include "workloads.hpp"

#include <algorithm>
#include <iostream>
#include <set>
#include <stdexcept>

#include "khop/obs/telemetry.hpp"
#include "khop/obs/trace.hpp"

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},    {"work_s", "s"},        {"op_p50_ms", "ms"},
    {"op_p95_ms", "ms"}, {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"graph.build_s", "s"},
    {"graph.build_cpu_util", "ratio"},
    {"graph.build_allocs", "count"},
    {"graph.relabel_s", "s"},
    {"graph.edges", "count"},
    {"net.generate_ms", "ms"},
    {"net.calibrate_s", "s"},
    {"cluster.elect_s", "s"},
    {"cluster.elect_allocs", "count"},
    {"cluster.rounds", "count"},
    {"cluster.heads", "count"},
    {"cluster.elect_ms", "ms"},
    {"gateway.backbone_s", "s"},
    {"gateway.backbone_cpu_util", "ratio"},
    {"gateway.backbone_allocs", "count"},
    {"gateway.cds_size", "count"},
    {"gateway.links", "count"},
    {"gateway.backbone_ms", "ms"},
    {"cds.validate_ms", "ms"},
    {"sim.flood_s", "s"},
    {"sim.flood_cpu_util", "ratio"},
    {"sim.flood_allocs", "count"},
    {"sim.rounds", "count"},
    {"sim.transmissions", "count"},
    {"sim.receptions", "count"},
    {"sim.receptions_per_s", "1/s"},
    {"sim.lossy_flood_s", "s"},
    {"sim.lossy_cpu_util", "ratio"},
    {"radio.drops", "count"},
    {"radio.retransmissions", "count"},
    {"radio.delivery_ratio", "ratio"},
    {"dynamic.apply_ms_p50", "ms"},
    {"dynamic.apply_share", "ratio"},
    {"dynamic.touched_per_event", "count"},
    {"dynamic.resweeps_per_event", "count"},
    {"dynamic.orphans", "count"},
    {"dynamic.new_heads", "count"},
    {"dynamic.partitions", "count"},
    {"dynamic.merges", "count"},
    {"dynamic.noop_events", "count"},
    {"dynamic.audit_s", "s"},
    {"persist.snapshot_event_ms", "ms"},
    {"persist.snapshots", "count"},
    {"persist.snapshot_bytes", "bytes"},
    {"persist.wal_bytes", "bytes"},
    {"persist.replayed_events", "count"},
    {"persist.create_s", "s"},
    {"exp.trials", "count"},
    {"exp.trial_ms_p50", "ms"},
    {"exp.allocs_per_trial", "count"},
    {"runtime.pool_util", "ratio"},
    {"graph.rss_hwm_mb", "MB"},
    {"order.rss_hwm_mb", "MB"},
    {"cluster.rss_hwm_mb", "MB"},
    {"backbone.rss_hwm_mb", "MB"},
    {"discovery.rss_hwm_mb", "MB"},
    {"lossy_discovery.rss_hwm_mb", "MB"},
    {"obs.trace_overhead_pct", "%"},
};

void set_layer(Metrics& m, const std::string& name, double value) {
  for (const MetricDef& d : kPerLayer) {
    if (name == d.name) {
      m.set(name, value, d.unit);
      return;
    }
  }
  throw std::out_of_range("undeclared per-layer metric " + name);
}

std::string complete_metrics(Metrics& m, const std::vector<MetricDef>& defs) {
  std::set<std::string> declared;
  for (const MetricDef& d : defs) {
    declared.insert(d.name);
    if (!m.has(d.name)) m.set(d.name, 0.0, d.unit);
  }
  for (const std::string& name : m.names()) {
    if (declared.count(name) == 0) return name;
  }
  return {};
}

OpLatency op_latency(const std::vector<double>& op_ms) {
  return {quantile(op_ms, 0.50), quantile(op_ms, 0.95)};
}

void set_end_to_end(RunResult& r, const std::vector<double>& setup_s,
                    const std::vector<double>& work_s,
                    const std::vector<OpLatency>& ops) {
  std::vector<double> p50, p95;
  for (const OpLatency& op : ops) {
    p50.push_back(op.p50_ms);
    p95.push_back(op.p95_ms);
  }
  r.end_to_end.set("setup_s", median(setup_s), "s");
  r.end_to_end.set("work_s", median(work_s), "s");
  r.end_to_end.set("op_p50_ms", median(p50), "ms");
  r.end_to_end.set("op_p95_ms", median(p95), "ms");
  r.end_to_end.set("peak_rss_mb", process_peak_rss_mb(), "MB");
}

std::uint64_t input_seed(const Options& opt, std::size_t pass,
                         std::size_t inputs) {
  return opt.seed + (pass % inputs) * 0x9e3779b97f4a7c15ULL;
}

std::string prefixed(const std::string& what, const std::string& error) {
  return error.empty() ? error : what + ": " + error;
}

bool want_pass(const Options& opt, double t_start, std::size_t passes_done,
               std::size_t min_passes) {
  if (opt.trace) min_passes = std::max<std::size_t>(min_passes, 3);
  return passes_done < min_passes || wall_now() - t_start < opt.seconds;
}

bool begin_pass(const Options& opt, std::size_t pass) {
  const bool traced = opt.trace && pass % 2 == 1;
  if (traced) khop::obs::Tracer::global().clear();
  khop::obs::set_enabled(traced);
  return traced;
}

std::vector<bool> measured_passes(const Options& opt,
                                  const std::vector<bool>& traced) {
  std::vector<bool> measured(traced.size());
  for (std::size_t i = 0; i < traced.size(); ++i) {
    measured[i] = (i > 0 || traced.size() == 1) && traced[i] == opt.trace;
  }
  return measured;
}

double trace_overhead_pct(const std::vector<double>& work_s,
                          const std::vector<bool>& traced) {
  // Pass 0 warms caches and the heap, so it is left out: a traced run has
  // at least the passes untraced, traced, untraced.
  std::vector<double> on, off;
  for (std::size_t i = 1; i < work_s.size(); ++i) {
    (traced[i] ? on : off).push_back(work_s[i]);
  }
  if (on.empty() || off.empty() || median(off) <= 0.0) return 0.0;
  return 100.0 * (median(on) / median(off) - 1.0);
}

void write_trace(const Options& opt) {
  khop::obs::set_enabled(false);
  const std::string path = opt.work_dir + "/" + opt.workload + ".trace.json";
  khop::obs::Tracer::global().write_chrome_json(path);
  std::cout << "trace: " << khop::obs::Tracer::global().num_events()
            << " spans written to " << path << "\n";
}

}  // namespace perfbench
