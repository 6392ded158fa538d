// Clocks, process counters and order statistics for bench_e2e.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process user + system CPU time (getrusage), in seconds.
[[nodiscard]] double cpu_seconds();

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS by writing
/// 5 to /proc/self/clear_refs. False where the kernel refuses.
bool reset_peak_rss();

/// VmHWM from /proc/self/status, in MB (10^6 bytes); 0 when unreadable.
[[nodiscard]] double peak_rss_mb();

/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] std::size_t online_cpus();

/// Nearest-rank quantile (q in (0, 1]) of `values`; +inf entries sort last.
/// NaN when `values` is empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Renders a number for the result line: finite values with full
/// precision, +inf as a large finite stand-in (JSON has no infinity).
[[nodiscard]] std::string json_number(double value);

}  // namespace e2e
