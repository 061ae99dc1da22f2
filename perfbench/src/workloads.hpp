/// \file workloads.hpp
/// The benchmark workloads and the metric names they report.
///
/// Every workload repeats a fixed unit of work (a "pass", generated from the
/// seed) until --seconds have elapsed, with at least two passes (pass 0 warms
/// caches and the heap and is left out of the figures); a traced run
/// alternates untraced and traced passes (at least three), so the tracing
/// overhead is measured inside the run. Counts must repeat exactly from pass
/// to pass, and each pass checks its own outputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";  ///< temporary files (the churn store, traces)
};

/// Node count from which the pipeline and churn workloads hand their graph
/// builds, backbone and floods to the pool; below it they call the serial
/// forms. The engine's parallel break-even is n ~ 8000, and at n = 2000 a
/// 1 ms stage kept three pool threads 45-64% busy, on hand-offs that a busy
/// host stretched most (pipeline_2k stage p50 1.44 to 2.31 ms from one run to
/// the next, against 1.20 to 1.36 ms for the serial churn_2k events).
constexpr std::size_t kParallelFrom = 8000;

/// The static pipeline on n-node jittered grids (pipeline_1m, pipeline_2k);
/// pass i runs the network of seed input_seed(opt, i, networks).
RunResult run_pipeline(const Options& opt, std::size_t n, std::size_t networks);
/// Crash-safe maintenance on n-node jittered grids (churn_100k, churn_2k);
/// pass i runs the network of seed input_seed(opt, i, networks).
RunResult run_churn(const Options& opt, std::size_t n, std::size_t networks);
RunResult run_paper_sweep(const Options& opt);

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports all of them (--trace 0).
extern const std::vector<MetricDef> kEndToEnd;

/// Per-layer metrics: every workload reports all of them (--trace 1); a
/// layer a workload does not exercise reports 0.
extern const std::vector<MetricDef> kPerLayer;

/// Sets per-layer metric \p name with its declared unit (throws
/// std::out_of_range for an undeclared name).
void set_layer(Metrics& m, const std::string& name, double value);

/// Sets every metric of \p defs not yet in \p m to 0 and fails if \p m holds
/// a name outside \p defs (returns the offending name, "" when consistent).
std::string complete_metrics(Metrics& m, const std::vector<MetricDef>& defs);

/// Quantiles of one pass's operation latencies.
struct OpLatency {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};
OpLatency op_latency(const std::vector<double>& op_ms);

/// Sets the end-to-end metrics, each the median over the run's passes:
/// setup_s over every set-up, work_s over each pass's timed work, and
/// op_p50_ms / op_p95_ms over each pass's latency quantiles.
void set_end_to_end(RunResult& r, const std::vector<double>& setup_s,
                    const std::vector<double>& work_s,
                    const std::vector<OpLatency>& ops);

/// The seed of the input pass \p pass runs: a run cycles through \p inputs
/// seeded inputs, input 0 on opt.seed itself. On one input, a run's medians
/// would rest on that input's shape: at n = 2000, churn work_s moved by up to
/// 16% from seed to seed. An odd count lets a traced run's alternate passes
/// still visit every input.
std::uint64_t input_seed(const Options& opt, std::size_t pass,
                         std::size_t inputs);

/// "" when \p error is empty, else "<what>: <error>".
std::string prefixed(const std::string& what, const std::string& error);

/// True while another pass should start: fewer than \p min_passes done (at
/// least three in a traced run: untraced, traced, untraced), or the measuring
/// time has not run out yet.
bool want_pass(const Options& opt, double t_start, std::size_t passes_done,
               std::size_t min_passes);

/// In a traced run, switches tracing on for the odd passes (pass 0 and the
/// other even passes stay untraced, for the overhead comparison) and drops
/// the spans of earlier passes, so the trace holds the last traced pass.
/// Returns whether pass \p pass is traced.
bool begin_pass(const Options& opt, std::size_t pass);

/// Which passes the metrics come from: the traced ones in a traced run, the
/// untraced ones otherwise, and never pass 0, which warms caches and the
/// heap, unless it is the only pass. \p traced has one entry per pass.
std::vector<bool> measured_passes(const Options& opt,
                                  const std::vector<bool>& traced);

/// The tracing overhead in percent: traced over untraced work time, pass 0
/// left out.
double trace_overhead_pct(const std::vector<double>& work_s,
                          const std::vector<bool>& traced);

/// Writes the spans recorded so far as Chrome JSON to
/// <work_dir>/<workload>.trace.json and reports the path.
void write_trace(const Options& opt);

}  // namespace perfbench
