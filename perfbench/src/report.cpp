#include "report.hpp"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

double g_peak_rss_mb = 0.0;

}  // namespace

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double rss_hwm_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const double kb = std::strtod(line.c_str() + 6, nullptr);
      const double mb = kb / 1024.0;
      g_peak_rss_mb = std::max(g_peak_rss_mb, mb);
      return mb;
    }
  }
  return 0.0;
}

bool reset_rss_hwm() {
  rss_hwm_mb();  // fold the mark about to be cleared into the process peak
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double process_peak_rss_mb() {
  rss_hwm_mb();
  return g_peak_rss_mb;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

Meter::Meter()
    : wall0_(wall_now()), cpu0_(cpu_now()), allocs0_(alloc_count()) {}

void Meter::stop() {
  wall_s_ = wall_now() - wall0_;
  cpu_s_ = cpu_now() - cpu0_;
  allocs_ = alloc_count() - allocs0_;
}

double Meter::cpu_util(std::size_t threads) const {
  if (wall_s_ <= 0.0 || threads == 0) return 0.0;
  return cpu_s_ / (wall_s_ * static_cast<double>(threads));
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  entries_[name] = Entry{value, unit};
}

bool Metrics::has(const std::string& name) const {
  return entries_.count(name) != 0;
}

std::vector<std::string> Metrics::names() const {
  std::vector<std::string> out;
  for (const auto& entry : entries_) out.push_back(entry.first);
  return out;
}

std::string Metrics::json() const {
  std::ostringstream os;
  os << std::setprecision(17);
  bool first = true;
  for (const auto& [name, e] : entries_) {
    if (!first) os << ", ";
    first = false;
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    os << '"' << name << "\": {\"value\": " << v << ", \"unit\": \"" << e.unit
       << "\"}";
  }
  return os.str();
}

void Metrics::print(std::ostream& os, const std::string& indent) const {
  for (const auto& [name, e] : entries_) {
    os << indent << std::left << std::setw(30) << name << std::right
       << std::setprecision(6) << e.value << ' ' << e.unit << '\n';
  }
}

void RunResult::op(const std::string& error) {
  ++attempted;
  if (!error.empty()) {
    ++failed;
    if (failures.size() < 20) failures.push_back(error);
  }
}

std::size_t pool_threads() {
  // One vCPU stays free: with every vCPU of a shared 4-vCPU host busy, a
  // fixed chunk of work read 2x slower in about one 200 ms window in five,
  // on every vCPU; with three busy, in none.
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(hw - 1, 4);
}

void print_host_block(std::ostream& os, std::size_t threads) {
  const char* rev = std::getenv("PERFBENCH_GIT_REV");
  os << "host:\n"
     << "  nproc          " << std::thread::hardware_concurrency() << '\n'
     << "  pool_threads   " << threads << '\n'
     << "  compiler       " << PERFBENCH_COMPILER << '\n'
     << "  build_type     " << PERFBENCH_BUILD_TYPE << '\n'
     << "  KHOP_TELEMETRY " << KHOP_TELEMETRY << '\n'
     << "  git_revision   " << (rev != nullptr && *rev != '\0' ? rev : "unknown")
     << '\n';
}

}  // namespace perfbench
