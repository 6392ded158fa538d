#include "e2e/layers.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "core/analyzer.hpp"
#include "core/geometric.hpp"
#include "core/loop_class.hpp"
#include "core/multiloop_pipeline.hpp"
#include "core/task_parallelism.hpp"
#include "cu/builder.hpp"
#include "cu/facts.hpp"
#include "e2e/measure.hpp"
#include "pet/pet.hpp"
#include "prof/profiler.hpp"
#include "prof/sharded_profiler.hpp"
#include "rt/thread_pool.hpp"
#include "store/batch.hpp"
#include "store/format.hpp"
#include "store/reader.hpp"
#include "svc/analysis.hpp"
#include "svc/frame.hpp"
#include "trace/validator.hpp"

namespace e2e {

namespace core = ppd::core;
namespace trace = ppd::trace;

namespace {

/// What svc::analyze_trace_bytes does before any analysis: a pool when
/// jobs > 1, then the replay of either container into `ctx`.
class Reader {
 public:
  explicit Reader(std::size_t jobs)
      : jobs_(jobs), pool_(jobs > 1 ? std::make_unique<ppd::rt::ThreadPool>(jobs) : nullptr) {}

  [[nodiscard]] ppd::rt::ThreadPool* pool() const { return pool_.get(); }

  struct Result {
    bool ok = false;
    std::uint64_t records = 0;
    std::uint64_t chunks = 0;
  };

  Result read(std::string_view bytes, trace::TraceContext& ctx) {
    if (ppd::store::is_binary_trace(bytes)) {
      ppd::store::ReadOptions options;
      options.diags = &diags_;
      options.jobs = jobs_;
      options.pool = pool_.get();
      const ppd::store::ReadResult read = ppd::store::read_trace(bytes, ctx, options);
      return {read.status.is_ok(), read.records, read.chunks};
    }
    trace::ReplayOptions options;
    options.diags = &diags_;
    std::istringstream in{std::string(bytes)};
    const trace::ReplayResult replay = trace::replay_trace(in, ctx, options);
    return {replay.status.is_ok(), replay.records, 0};
  }

 private:
  std::size_t jobs_;
  ppd::support::DiagSink diags_;
  std::unique_ptr<ppd::rt::ThreadPool> pool_;
};

/// The op's event sinks in the order it subscribes them: dependence
/// profiler (serial at jobs 1, sharded on the reader's pool otherwise),
/// PET builder, CU facts, validator. `Replay(item, jobs, n)` replays the
/// item with the first n of them attached.
struct Replay {
  static constexpr int kSinks = 4;

  Replay(const Item& item, std::size_t jobs, int attached) : reader(jobs) {
    if (attached >= 1) {
      if (reader.pool() == nullptr) {
        serial = std::make_unique<ppd::prof::DependenceProfiler>();
        ctx.add_sink(serial.get());
      } else {
        ppd::prof::ShardedProfiler::Options options;
        options.shards = core::AnalyzerConfig{}.profile_shards;
        options.pool = reader.pool();
        sharded = std::make_unique<ppd::prof::ShardedProfiler>(options);
        ctx.add_sink(sharded.get());
      }
    }
    if (attached >= 2) ctx.add_sink(&pet);
    if (attached >= 3) ctx.add_sink(&facts);
    if (attached >= 4) ctx.add_sink(&validator);
    result = reader.read(item.bytes, ctx);
  }

  [[nodiscard]] ppd::prof::Profile take_profile() {
    return serial ? serial->take() : sharded->take();
  }

  // Destroyed bottom-up: the sharded profiler drains onto the reader's pool.
  Reader reader;
  trace::TraceContext ctx;
  std::unique_ptr<ppd::prof::DependenceProfiler> serial;
  std::unique_ptr<ppd::prof::ShardedProfiler> sharded;
  ppd::pet::PetBuilder pet;
  ppd::cu::CuFacts facts{ctx};
  ppd::support::DiagSink diags;
  trace::Validator validator{&diags};
  Reader::Result result;
};

/// Replay times with the first 0..4 sinks attached (keys internal to the
/// split), and the layer each additional sink is charged to.
const char* const kCumulative[Replay::kSinks + 1] = {
    "replay.0_ms", "replay.1_ms", "replay.2_ms", "replay.3_ms", "replay.4_ms"};
const char* const kLayer[Replay::kSinks + 1] = {
    "ingest.read_ms", "prof.dispatch_ms", "pet.dispatch_ms", "cu.dispatch_ms",
    "trace.validate_ms"};

template <typename Fn>
double time_ms(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return ms_since(start);
}

}  // namespace

Split split_analysis(const Item& item, std::size_t jobs) {
  Split split;
  auto& ms = split.ms;
  auto& counts = split.counts;

  // What one op builds and frees: the replay with its sinks, and everything
  // PatternAnalyzer::analyze() derives from them.
  struct State {
    std::unique_ptr<Replay> replay;
    ppd::prof::Profile profile;
    ppd::pet::Pet pet{std::vector<ppd::pet::PetNode>{}};
    std::vector<ppd::cu::Cu> cus;
    std::vector<core::ReductionCandidate> reductions;
    std::vector<core::MultiLoopPipeline> pipelines;
    std::vector<core::GeometricDecomposition> geometric;
    std::vector<ppd::cu::CuGraph> graphs;
  };
  auto state = std::make_unique<State>();
  std::unique_ptr<Replay>& replay = state->replay;

  // Replays with 0..4 of the op's sinks attached; finish_split() turns them
  // into the read time and each sink's dispatch cost.
  for (int attached = 0; attached <= Replay::kSinks; ++attached) {
    replay.reset();
    ms[kCumulative[attached]] =
        time_ms([&] { replay = std::make_unique<Replay>(item, jobs, attached); });
    if (!replay->result.ok) split.errors.push_back(item.name + ": replay failed");
  }
  counts["ingest.records"] = replay->result.records;
  counts["ingest.chunks"] = replay->result.chunks;

  // What PatternAnalyzer::analyze() does with them, call by call.
  ms["prof.take_ms"] = time_ms([&] { state->profile = replay->take_profile(); });
  counts["prof.dependences"] = state->profile.dependences.size();
  counts["prof.loop_pairs"] = state->profile.loop_pairs.size();
  ms["pet.take_ms"] = time_ms([&] { state->pet = replay->pet.take(); });
  counts["pet.nodes"] = state->pet.nodes().size();
  ms["cu.form_ms"] =
      time_ms([&] { state->cus = ppd::cu::form_cus(replay->facts, replay->ctx); });
  counts["cu.cus"] = state->cus.size();

  const core::AnalyzerConfig config;
  const ppd::prof::Profile& profile = state->profile;
  const ppd::pet::Pet& pet = state->pet;
  ms["detect.reduction_ms"] =
      time_ms([&] { state->reductions = core::detect_reductions(profile); });
  counts["detect.reductions"] = state->reductions.size();
  ms["detect.pipeline_ms"] = time_ms(
      [&] { state->pipelines = core::detect_pipelines(profile, pet, config.pipeline); });
  counts["detect.pipelines"] = state->pipelines.size();
  ms["detect.geometric_ms"] = time_ms([&] {
    state->geometric =
        core::detect_geometric_decomposition(profile, pet, config.hotspot_fraction);
  });
  double graph_ms = 0.0;
  double tasks_ms = 0.0;
  std::uint64_t graph_nodes = 0;
  std::uint64_t graph_edges = 0;
  for (const ppd::pet::NodeIndex node : pet.hotspots(config.hotspot_fraction)) {
    ppd::cu::CuGraph graph;
    graph_ms += time_ms(
        [&] { graph = ppd::cu::build_cu_graph(state->cus, profile, pet, node, replay->ctx); });
    graph_nodes += graph.size();
    graph_edges += graph.graph.edge_count();
    if (graph.size() < 2) continue;
    tasks_ms += time_ms([&] { (void)core::detect_task_parallelism(graph); });
    state->graphs.push_back(std::move(graph));
  }
  ms["cu.graph_ms"] = graph_ms;
  ms["detect.tasks_ms"] = tasks_ms;
  counts["cu.graph_nodes"] = graph_nodes;
  counts["cu.graph_edges"] = graph_edges;
  counts["detect.task_scopes"] = state->graphs.size();
  ms["core.teardown_ms"] = time_ms([&] { state.reset(); });

  // The analyzer as the op wires it, for its own time and for render (the
  // primary-pattern choice render needs is private to analyze()).
  {
    Reader reader(jobs);
    core::AnalyzerConfig analyzer_config;
    if (reader.pool() != nullptr) {
      analyzer_config.profiler_mode = core::ProfilerMode::Sharded;
      analyzer_config.profile_jobs = jobs;
      analyzer_config.pool = reader.pool();
    }
    trace::TraceContext ctx;
    core::PatternAnalyzer analyzer(ctx, analyzer_config);
    ppd::support::DiagSink diags;
    trace::Validator validator(&diags);
    ctx.add_sink(&validator);
    (void)reader.read(item.bytes, ctx);
    std::unique_ptr<core::AnalysisResult> result;
    ms["core.analyze_ms"] = time_ms(
        [&] { result = std::make_unique<core::AnalysisResult>(analyzer.analyze()); });
    std::string report;
    ms["report.render_ms"] = time_ms([&] { report = ppd::svc::render_report(*result, ctx); });
    counts["report.bytes"] = report.size();
    if (report != item.reference) {
      split.errors.push_back(item.name + ": rendered report differs from the reference");
    }
  }

  // The whole op.
  {
    ppd::svc::AnalysisOptions options;
    options.jobs = jobs;
    const double cpu = cpu_seconds();
    const Clock::time_point start = Clock::now();
    const ppd::svc::AnalysisOutput out =
        ppd::svc::analyze_trace_bytes(item.name, item.bytes, options);
    split.wall_s = seconds_since(start);
    split.cpu_s = cpu_seconds() - cpu;
    ms["pass.total_ms"] = split.wall_s * 1e3;
    if (!out.status.is_ok() || out.report != item.reference) {
      split.errors.push_back(item.name + ": analyze_trace_bytes report differs");
    }
  }
  return split;
}

Split split_service(const Item& item, ppd::svc::ReportCache& cache) {
  namespace svc = ppd::svc;
  Split split;
  std::string payload;
  svc::RequestPayload request;
  request.trace = item.bytes;
  std::string frame_bytes;
  split.ms["svc.frame_encode_ms"] = time_ms([&] {
    svc::encode_request(payload, request);
    frame_bytes = svc::encode_frame(svc::FrameType::AnalyzeRequest, payload);
  });
  svc::Frame frame;
  std::size_t consumed = 0;
  ppd::support::Status status;
  svc::DecodeResult decoded = svc::DecodeResult::Error;
  svc::RequestPayload decoded_request;
  split.ms["svc.frame_decode_ms"] = time_ms([&] {
    decoded = svc::decode_frame(frame_bytes, svc::kMaxFramePayload, frame, consumed, status);
    if (decoded == svc::DecodeResult::Ok) {
      (void)svc::decode_request(frame.payload, decoded_request);
    }
  });
  if (decoded != svc::DecodeResult::Ok || decoded_request.trace != item.bytes) {
    split.errors.push_back(item.name + ": request frame does not round-trip");
  }
  std::uint64_t key = 0;
  split.ms["svc.content_key_ms"] =
      time_ms([&] { key = ppd::store::content_key(item.bytes, 0); });
  split.ms["svc.cache_put_ms"] = time_ms([&] { cache.put(key, item.reference); });
  std::string cached;
  bool hit = false;
  split.ms["svc.cache_get_ms"] = time_ms([&] { hit = cache.get(key, cached); });
  if (!hit || cached != item.reference) {
    split.errors.push_back(item.name + ": scratch cache lost the report");
  }
  return split;
}

void keep_min(Split& best, const Split& pass) {
  for (const auto& [name, value] : pass.ms) {
    const auto it = best.ms.find(name);
    if (it == best.ms.end()) {
      best.ms[name] = value;
    } else {
      it->second = std::min(it->second, value);
    }
  }
  if (!best.counts.empty() && best.counts != pass.counts) {
    best.errors.push_back("counts differ between consecutive traced passes");
  }
  best.counts = pass.counts;
  best.cpu_s += pass.cpu_s;
  best.wall_s += pass.wall_s;
  best.errors.insert(best.errors.end(), pass.errors.begin(), pass.errors.end());
}

void finish_split(Split& split) {
  // Each sink is charged what attaching it adds to the replay with the
  // sinks before it, so the charges and the sinkless read add up to the
  // op's replay with every sink attached.
  double previous_ms = 0.0;
  for (int attached = 0; attached <= Replay::kSinks; ++attached) {
    const auto it = split.ms.find(kCumulative[attached]);
    if (it == split.ms.end()) return;
    split.ms[kLayer[attached]] = it->second - previous_ms;
    previous_ms = it->second;
    split.ms.erase(it);
  }
}

void accumulate(Split& sum, const Split& part) {
  for (const auto& [name, value] : part.ms) sum.ms[name] += value;
  for (const auto& [name, value] : part.counts) sum.counts[name] += value;
  sum.cpu_s += part.cpu_s;
  sum.wall_s += part.wall_s;
  sum.errors.insert(sum.errors.end(), part.errors.begin(), part.errors.end());
}

}  // namespace e2e
