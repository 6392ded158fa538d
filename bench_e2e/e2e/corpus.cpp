#include "e2e/corpus.hpp"

#include <sstream>
#include <stdexcept>
#include <vector>

#include "store/writer.hpp"
#include "trace/context.hpp"
#include "trace/serialize.hpp"

namespace e2e {

namespace trace = ppd::trace;

std::string record_kernel(const ppd::bs::Benchmark& benchmark) {
  std::ostringstream out;
  trace::TraceContext ctx;
  trace::TraceWriter writer(ctx, out);
  ctx.add_sink(&writer);
  benchmark.run_traced(ctx);
  ctx.finish();
  return out.str();
}

std::string amplify(const std::string& text, int times) {
  const std::size_t eol = text.find('\n');
  const std::string_view header(text.data(), eol + 1);
  const std::string_view body(text.data() + eol + 1, text.size() - eol - 1);
  std::string out(header);
  out.reserve(header.size() + body.size() * static_cast<std::size_t>(times));
  for (int i = 0; i < times; ++i) out += body;
  return out;
}

std::string to_ppdt(const std::string& text, std::uint32_t chunk_bytes) {
  std::ostringstream out;
  trace::TraceContext ctx;
  ppd::store::BinaryTraceWriter::Options options;
  options.target_chunk_bytes = chunk_bytes;
  ppd::store::BinaryTraceWriter writer(ctx, out, options);
  ctx.add_sink(&writer);
  std::istringstream in(text);
  const trace::ReplayResult replay = trace::replay_trace(in, ctx, trace::ReplayOptions{});
  if (!replay.status.is_ok()) {
    throw std::runtime_error("trace does not replay: " + replay.status.to_string());
  }
  return out.str();
}

std::string synth_program(std::uint64_t seed, const SynthShape& shape,
                          std::set<std::string>& reductions) {
  enum Kind { DoAll, Reduction, CarriedRaw, Consumer };
  Rng rng(seed);
  std::ostringstream out;
  trace::TraceContext ctx;
  trace::TraceWriter writer(ctx, out);
  ctx.add_sink(&writer);
  const auto iterations = static_cast<std::uint64_t>(shape.iterations);
  {
    trace::FunctionScope main_scope(ctx, "main", 1);
    for (int f = 0; f < shape.functions; ++f) {
      std::string fn = "f";
      fn += std::to_string(f);
      const auto fn_line = static_cast<ppd::SourceLine>(100000 * (f + 1));
      trace::FunctionScope fn_scope(ctx, fn, fn_line);
      const ppd::VarId input = ctx.var(fn + "_in");
      ppd::VarId previous = input;  // output array of the previous loop
      for (int l = 0; l < shape.loops; ++l) {
        const std::string loop = fn + "_l" + std::to_string(l);
        const auto line = static_cast<ppd::SourceLine>(100000 * (f + 1) + 10 * (l + 1));
        const auto kind = static_cast<Kind>(rng() % 4);
        const ppd::VarId output = ctx.var(loop + "_a");
        trace::LoopScope scope(ctx, loop, line);
        for (std::uint64_t i = 0; i < iterations; ++i) {
          scope.begin_iteration();
          switch (kind) {
            case DoAll:
              ctx.read(input, i, line + 1);
              ctx.compute(line + 1, 2);
              ctx.write(output, i, line + 1);
              break;
            case Reduction:
              ctx.read(input, i, line + 1);
              ctx.update(ctx.var(loop + "_sum"), 0, line + 2, trace::UpdateOp::Sum);
              break;
            case CarriedRaw:
              if (i > 0) ctx.read(output, i - 1, line + 1);
              ctx.read(input, i, line + 1);
              ctx.write(output, i, line + 1);
              break;
            case Consumer:
              ctx.read(previous, i, line + 1);
              ctx.compute(line + 1, 1);
              ctx.write(output, i, line + 1);
              break;
          }
        }
        if (kind == Reduction) {
          reductions.insert(loop);
        } else {
          previous = output;
        }
      }
    }
  }
  ctx.finish();
  return out.str();
}

namespace {

/// Value of the report's `Primary pattern:` line.
std::string primary_pattern(const std::string& report) {
  constexpr std::string_view key = "\nPrimary pattern: ";
  const std::size_t at = report.find(key);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + key.size();
  return report.substr(begin, report.find('\n', begin) - begin);
}

/// Loop names of the report's reduction-candidate lines.
std::set<std::string> reported_reduction_loops(const std::string& report) {
  std::set<std::string> loops;
  std::istringstream in(report);
  std::string line;
  bool in_section = false;
  while (std::getline(in, line)) {
    if (line.rfind("== ", 0) == 0) {
      in_section = line.find("Reduction candidates") != std::string::npos;
      continue;
    }
    constexpr std::string_view prefix = "  loop '";
    if (!in_section || line.rfind(prefix, 0) != 0) continue;
    const std::size_t end = line.find('\'', prefix.size());
    if (end != std::string::npos) {
      loops.insert(line.substr(prefix.size(), end - prefix.size()));
    }
  }
  return loops;
}

}  // namespace

std::string vet_reference(const Item& item, const std::string& report) {
  if (!item.expect_primary.empty()) {
    const std::string primary = primary_pattern(report);
    if (primary != item.expect_primary) {
      return item.name + ": primary pattern '" + primary + "', expected '" +
             item.expect_primary + "'";
    }
  }
  if (item.check_reductions && reported_reduction_loops(report) != item.expect_reductions) {
    return item.name + ": reported reduction loops differ from the planted ones";
  }
  return {};
}

}  // namespace e2e
