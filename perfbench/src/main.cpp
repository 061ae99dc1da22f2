/// \file main.cpp
/// khop_perfbench: runs one workload and prints its report, ending with one
/// JSON line {"correct", "attempted", "failed", "metrics"}.
///
/// Usage:
///   khop_perfbench --workload {pipeline_2k|churn_2k|paper_sweep|
///                              pipeline_1m|churn_100k}
///                  --seed N --seconds S --trace {0|1} [--work-dir DIR]
///
/// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
/// Exit code 0 iff every operation and every output check succeeded.
#include <exception>
#include <functional>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const std::string& why) {
  std::cerr << "khop_perfbench: " << why
            << "\nusage: khop_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(arg + " requires a value");
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (arg == "--work-dir") {
        opt.work_dir = value;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg);
    }
  }

  std::function<RunResult(const Options&)> run;
  // The n = 2000 workloads cycle through 15 networks (see input_seed);
  // a large-n pass takes seconds, so its run keeps to one network.
  const auto pipeline = [](std::size_t n, std::size_t networks) {
    return [=](const Options& o) { return run_pipeline(o, n, networks); };
  };
  const auto churn = [](std::size_t n, std::size_t networks) {
    return [=](const Options& o) { return run_churn(o, n, networks); };
  };
  if (opt.workload == "pipeline_2k") run = pipeline(2000, 15);
  if (opt.workload == "pipeline_1m") run = pipeline(1000000, 1);
  if (opt.workload == "churn_2k") run = churn(2000, 15);
  if (opt.workload == "churn_100k") run = churn(100000, 1);
  if (opt.workload == "paper_sweep") run = run_paper_sweep;
  if (!run) return usage("unknown workload '" + opt.workload + "'");

  std::cout << "workload " << opt.workload << ", seed " << opt.seed << ", "
            << opt.seconds << " s, " << (opt.trace ? "traced" : "untraced")
            << "\n";
  print_host_block(std::cout, pool_threads());

  RunResult r;
  try {
    r = run(opt);
  } catch (const std::exception& e) {
    r.op(std::string("workload aborted: ") + e.what());
  }
  if (r.attempted == 0) r.op("workload attempted no operation");

  Metrics& metrics = opt.trace ? r.per_layer : r.end_to_end;
  const std::string stray =
      complete_metrics(metrics, opt.trace ? kPerLayer : kEndToEnd);
  if (!stray.empty()) r.op("undeclared metric " + stray);

  std::cout << "result: ops = " << r.attempted
            << ", failed_ops = " << r.failed << "\n";
  for (const std::string& f : r.failures) std::cout << "  FAILED: " << f << "\n";
  std::cout << (opt.trace ? "per-layer" : "end-to-end") << " metrics:\n";
  metrics.print(std::cout, "  ");
  std::cout << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {"
            << metrics.json() << "}}" << std::endl;
  return r.failed == 0 ? 0 : 1;
}
