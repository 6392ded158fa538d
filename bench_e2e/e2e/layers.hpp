// The traced run's per-layer split: the op's time broken down by timing
// calls into each module's public functions from the benchmark's side.
//
// Each event-sink layer is timed by replaying the item with only that sink
// attached and subtracting a replay with no sinks; the finishing calls
// (take, form, detect, render) are timed directly. The full op,
// svc::analyze_trace_bytes, is timed alongside, so the parts can be checked
// against the whole (pass.unattributed_pct).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "e2e/corpus.hpp"
#include "svc/report_cache.hpp"

namespace e2e {

/// Per-layer times and counts, for one item or summed over a pass.
struct Split {
  std::map<std::string, double> ms;
  std::map<std::string, std::uint64_t> counts;
  double cpu_s = 0.0;   ///< process CPU over the full-op calls
  double wall_s = 0.0;  ///< wall time over the full-op calls
  std::vector<std::string> errors;
};

/// The timed layers whose sum should account for `pass.total_ms`.
inline const std::vector<std::string> kAttributedLayers = {
    "ingest.read_ms",      "trace.validate_ms",   "prof.dispatch_ms", "prof.take_ms",
    "pet.dispatch_ms",     "pet.take_ms",         "cu.dispatch_ms",   "cu.form_ms",
    "cu.graph_ms",         "detect.reduction_ms", "detect.pipeline_ms",
    "detect.geometric_ms", "detect.tasks_ms",     "core.teardown_ms", "report.render_ms"};

/// Times every analysis layer of one item at `jobs` (a shared pool for
/// decode and sharded profiling when jobs > 1, as the op itself does). The
/// replay timings stay raw until finish_split(), so that the minimum over
/// passes is taken of measured times, not of their differences.
[[nodiscard]] Split split_analysis(const Item& item, std::size_t jobs);

/// Turns the raw replay timings into the read time and the per-sink
/// dispatch times.
void finish_split(Split& split);

/// Times the service layer's direct calls for one request body: frame
/// encode and decode, the content key, and put/get of its report on
/// `cache`.
[[nodiscard]] Split split_service(const Item& item, ppd::svc::ReportCache& cache);

/// Folds one pass's split of an item into the item's best so far: the
/// minimum of every time, and the counts, which must repeat exactly (a
/// mismatch is recorded as an error).
void keep_min(Split& best, const Split& pass);

/// Adds `part` into `sum`: times and counts summed, errors appended.
void accumulate(Split& sum, const Split& part);

}  // namespace e2e
