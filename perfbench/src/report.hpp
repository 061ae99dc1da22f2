/// \file report.hpp
/// Measurement plumbing shared by the workloads: wall and CPU clocks, heap
/// allocation counts, per-stage peak RSS, percentiles, the metric set a run
/// reports, and the host block that describes the run.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary epoch.
double wall_now();

/// CPU seconds consumed by the whole process (all threads).
double cpu_now();

/// Heap allocations (global operator new calls) made by this process.
std::uint64_t alloc_count() noexcept;

/// Resets the kernel's resident-set high-water mark (writes 5 to
/// /proc/self/clear_refs), after folding the current mark into
/// process_peak_rss_mb(). Free heap pages go back to the kernel first
/// (malloc_trim), so the new mark starts from live data rather than from
/// what earlier stages freed. Returns false where the reset is unsupported.
bool reset_rss_hwm();

/// VmHWM of /proc/self/status in MiB: the peak since the last reset.
double rss_hwm_mb();

/// Peak resident set of the process in MiB, across every reset.
double process_peak_rss_mb();

/// Linear-interpolated quantile q in [0, 1] of \p v (copied and sorted).
double quantile(std::vector<double> v, double q);

/// Median of \p v; 0 for an empty vector.
double median(const std::vector<double>& v);

/// Wall time, CPU time and allocations spent between construction and
/// stop(), for one call into the library.
class Meter {
 public:
  Meter();
  /// Stops the meter; the accessors below report the span measured.
  void stop();
  double wall_s() const { return wall_s_; }
  std::uint64_t allocs() const { return allocs_; }
  /// CPU time over (wall time x threads): the share of the threads' cores
  /// the call kept busy.
  double cpu_util(std::size_t threads) const;

 private:
  double wall0_, cpu0_;
  std::uint64_t allocs0_;
  double wall_s_ = 0.0, cpu_s_ = 0.0;
  std::uint64_t allocs_ = 0;
};

/// Ordered name -> (value, unit) set printed by the run.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  std::vector<std::string> names() const;
  /// `"name": {"value": v, "unit": "u"}, ...` with full precision.
  std::string json() const;
  /// One "name = value unit" line per metric.
  void print(std::ostream& os, const std::string& indent) const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> entries_;
};

/// Result of one workload run: the operation counts, the end-to-end and the
/// per-layer metrics, and the first failed check (if any).
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed operation
  Metrics end_to_end;
  Metrics per_layer;

  /// Counts one operation; \p error non-empty marks it failed.
  void op(const std::string& error);
};

/// Prints the host block: nproc, pool threads, compiler and version, build
/// type, KHOP_TELEMETRY, git revision (from the PERFBENCH_GIT_REV environment
/// variable, "unknown" when unset).
void print_host_block(std::ostream& os, std::size_t pool_threads);

/// Pool threads the workloads use: min(nproc - 1, 4), at least 1.
std::size_t pool_threads();

}  // namespace perfbench
