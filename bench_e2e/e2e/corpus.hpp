// Trace corpora for bench_e2e: recorded benchmark kernels, amplified and
// re-encoded, and seeded synthetic programs with planted loop kinds.
//
// Every item carries what its report must look like, so each measured
// operation can be checked: the reference report computed at set-up, and
// where known by construction the Table III primary pattern or the set of
// loops that must be reported as reductions.
#pragma once

#include <cstdint>
#include <random>
#include <set>
#include <string>

#include "bs/benchmark.hpp"

namespace e2e {

using Rng = std::mt19937_64;

struct Item {
  std::string name;
  std::string bytes;      ///< trace bytes as the program receives them
  std::string reference;  ///< expected report, byte for byte
  /// Expected `Primary pattern:` line value; empty skips the check.
  std::string expect_primary;
  /// Loops that must be exactly the reported reduction candidates.
  bool check_reductions = false;
  std::set<std::string> expect_reductions;
};

/// Runs the instrumented kernel and returns its text trace.
[[nodiscard]] std::string record_kernel(const ppd::bs::Benchmark& benchmark);

/// Repeats the record body of a text trace `times` times. Definitions are
/// idempotent on replay and every repetition is scope-balanced, so the
/// result is itself a valid trace.
[[nodiscard]] std::string amplify(const std::string& text, int times);

/// Re-encodes a text trace as a .ppdt container with the given chunk size.
/// Throws std::runtime_error when the text does not replay.
[[nodiscard]] std::string to_ppdt(const std::string& text, std::uint32_t chunk_bytes);

/// Shape of one synthetic program: `functions` functions called from main,
/// each running `loops` loops of `iterations` iterations.
struct SynthShape {
  int functions = 40;
  int loops = 50;
  int iterations = 16;
};

/// Builds a synthetic program with the public TraceContext scope API and
/// returns its text trace. Each loop is, by a seeded draw, a do-all loop, a
/// sum reduction, a loop with a carried read-after-write, or a consumer of
/// the previous loop's output. The names of the planted reduction loops are
/// added to `reductions`.
[[nodiscard]] std::string synth_program(std::uint64_t seed, const SynthShape& shape,
                                        std::set<std::string>& reductions);

/// Checks a freshly computed report against what the item's construction
/// predicts (primary pattern, planted reductions) before it becomes the
/// item's reference. Returns an empty string when it holds, otherwise what
/// differs. Measured operations are then checked for byte identity.
[[nodiscard]] std::string vet_reference(const Item& item, const std::string& report);

}  // namespace e2e
