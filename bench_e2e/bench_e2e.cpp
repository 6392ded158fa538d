// bench_e2e: the user-facing operation — trace bytes in, report out —
// measured end to end on four workloads, with a separate traced run that
// splits the time across the pipeline's layers.
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--traced]
//
// The offline workloads time one svc::analyze_trace_bytes call per op (the
// function the CLI, --batch and the daemon all call) on bytes already in
// memory; daemon-mix times one svc::Client::analyze round trip against an
// in-process svc::Server. Every report is checked against a reference made
// at set-up. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// bench_e2e/README.md lists the workloads and metrics; run.py builds this
// program and drives it.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bs/benchmark.hpp"
#include "e2e/corpus.hpp"
#include "e2e/daemon.hpp"
#include "e2e/layers.hpp"
#include "e2e/measure.hpp"
#include "svc/analysis.hpp"
#include "svc/report_cache.hpp"

namespace {

using namespace e2e;

enum class Corpus { Kernels, Synthetic };

struct Workload {
  const char* name;
  Corpus corpus;
  std::size_t jobs;     ///< analysis jobs per op; server workers for daemon-mix
  std::size_t clients;  ///< load connections (0: offline, ops run inline)
};

// Server workers of every in-process daemon.
constexpr std::size_t kDaemonJobs = 2;

// offline-parallel is not one of BENCHMARK.json's workloads: on a shared
// 4-vCPU host its run-to-run spread (13-33% at jobs 2 and 4) reaches the
// widest bound the benchmark may set. It stays runnable by hand and in the smoke run, which checks its
// jobs-4 reports against the jobs-1 references.
constexpr Workload kWorkloads[] = {
    {"offline-deep", Corpus::Kernels, 1, 0},
    {"offline-wide", Corpus::Synthetic, 1, 0},
    {"offline-parallel", Corpus::Kernels, 4, 0},
    {"daemon-mix", Corpus::Kernels, kDaemonJobs, 2},
};

// Corpus sizes; the seed changes contents and order, never these.
constexpr int kKernelAmplify = 8;
constexpr std::uint32_t kKernelChunkBytes = std::uint32_t{1} << 16;
constexpr int kSynthPrograms = 8;
constexpr SynthShape kSynthShape{24, 50, 16};
// daemon-mix: cache hits sent per cache miss.
constexpr std::size_t kHotPerCold = 3;
// The traced daemon slice: whole rounds, at least this many requests.
constexpr std::size_t kTracedSlice = 1000;
// A traced offline run fails when the timed parts miss the whole by more.
constexpr double kMaxUnattributedPct = 10.0;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool traced = false;
  int setups = 5;
  std::string workdir = ".bench_build/run";
};

/// One request of a round: an item of the hot corpus or of the cold set.
struct Op {
  std::size_t item = 0;
  bool cold = false;
};

/// Everything set-up produces; the measured phase only reads it.
struct Setup {
  std::vector<Item> items;  ///< the distinct corpus (daemon-mix: the hot set)
  std::vector<Item> cold;   ///< daemon-mix: cache misses by construction
  std::vector<Op> round;    ///< one round of ops, before the per-round shuffle
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<ppd::svc::Client>> clients;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload NAME [--seed N] [--seconds S] "
               "[--traced] [--setups K] [--workdir DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = value();
      for (const Workload& w : kWorkloads) {
        if (name == w.name) options.workload = &w;
      }
      if (options.workload == nullptr) usage(("unknown workload " + name).c_str());
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--traced") {
      options.traced = true;
    } else if (arg == "--setups") {
      options.setups = std::max(1, std::atoi(value().c_str()));
    } else if (arg == "--workdir") {
      options.workdir = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload == nullptr) usage("--workload is required");
  if (!(options.seconds > 0)) usage("--seconds must be positive");
  return options;
}

std::string run_dir(const Options& options, int index) {
  return options.workdir + "/" + options.workload->name + "-" +
         std::to_string(::getpid()) + "-" + std::to_string(index);
}

/// Analyzes the item at jobs 1 and makes that its reference, after checking
/// it against what the item's construction predicts.
void set_reference(Item& item) {
  const ppd::svc::AnalysisOutput out =
      ppd::svc::analyze_trace_bytes(item.name, item.bytes, ppd::svc::AnalysisOptions{});
  if (!out.status.is_ok()) {
    throw std::runtime_error(item.name + ": reference analysis failed: " +
                             out.status.to_string());
  }
  const std::string problem = vet_reference(item, out.report);
  if (!problem.empty()) throw std::runtime_error(problem);
  item.reference = out.report;
}

/// The 19 kernels, each trace body repeated kKernelAmplify times, as .ppdt.
/// `texts` receives each kernel's single-run text trace.
std::vector<Item> kernel_corpus(std::vector<std::string>& texts) {
  std::vector<Item> items;
  for (const ppd::bs::Benchmark* benchmark : ppd::bs::all_benchmarks()) {
    texts.push_back(record_kernel(*benchmark));
    Item item;
    item.name = std::string(benchmark->paper().name) + " x" + std::to_string(kKernelAmplify);
    item.bytes = to_ppdt(amplify(texts.back(), kKernelAmplify), kKernelChunkBytes);
    item.expect_primary = benchmark->paper().pattern;
    set_reference(item);
    items.push_back(std::move(item));
  }
  return items;
}

std::vector<Item> synthetic_corpus(std::uint64_t seed) {
  std::vector<Item> items;
  for (int p = 0; p < kSynthPrograms; ++p) {
    Item item;
    item.name = "synth-" + std::to_string(p);
    item.check_reductions = true;
    item.bytes = synth_program(seed * 1000003u + static_cast<std::uint64_t>(p), kSynthShape,
                               item.expect_reductions);
    set_reference(item);
    items.push_back(std::move(item));
  }
  return items;
}

/// daemon-mix's cold set: each kernel re-encoded twice, at x(1 + k mod 4)
/// and x(8 - k mod 4) for the k-th kernel, each with a seeded .ppdt chunk
/// size. The amplifications do not depend on the seed, so every seed sends
/// the same mix of miss sizes. Only byte strings that differ from every hot
/// item and from each other are kept.
std::vector<Item> cold_corpus(const std::vector<std::string>& texts,
                              const std::vector<Item>& hot, Rng& rng) {
  std::vector<Item> cold;
  auto seen = [&](const std::string& bytes) {
    auto same = [&](const Item& item) { return item.bytes == bytes; };
    return std::any_of(hot.begin(), hot.end(), same) ||
           std::any_of(cold.begin(), cold.end(), same);
  };
  for (std::size_t k = 0; k < texts.size(); ++k) {
    const int low = 1 + static_cast<int>(k % 4);
    for (const int times : {low, kKernelAmplify + 1 - low}) {
      const std::string text = amplify(texts[k], times);
      for (unsigned shift = 10 + static_cast<unsigned>(rng() % 8); shift >= 8; --shift) {
        Item item;
        item.bytes = to_ppdt(text, std::uint32_t{1} << shift);
        if (seen(item.bytes)) continue;
        item.name = hot[k].name.substr(0, hot[k].name.find(' ')) + " x" +
                    std::to_string(times) + " c" + std::to_string(shift);
        set_reference(item);
        cold.push_back(std::move(item));
        break;
      }
    }
  }
  return cold;
}

Setup set_up(const Options& options, int index) {
  const Workload& w = *options.workload;
  Setup setup;
  std::vector<std::string> texts;
  setup.items = w.corpus == Corpus::Kernels ? kernel_corpus(texts)
                                            : synthetic_corpus(options.seed);
  if (w.clients == 0) {
    for (std::size_t i = 0; i < setup.items.size(); ++i) setup.round.push_back({i, false});
    return setup;
  }
  // A round sends each cold item once and kHotPerCold hot requests per cold
  // one, spread evenly over the hot set: a 3/4 hit ratio, and the same mix
  // for every seed.
  Rng rng(options.seed);
  setup.cold = cold_corpus(texts, setup.items, rng);
  const std::size_t hot_ops = kHotPerCold * setup.cold.size();
  for (std::size_t i = 0; i < hot_ops; ++i) {
    setup.round.push_back({i % setup.items.size(), false});
  }
  for (std::size_t i = 0; i < setup.cold.size(); ++i) setup.round.push_back({i, true});
  setup.daemon = std::make_unique<Daemon>(run_dir(options, index), w.jobs);
  for (std::size_t c = 0; c < w.clients; ++c) setup.clients.push_back(setup.daemon->connect());
  // Warm the cache with the hot set: each must be analyzed, then served.
  for (const Item& item : setup.items) {
    for (const bool expect_cached : {false, true}) {
      const Exchange ex = exchange(*setup.clients.front(), item.bytes, false, item.reference);
      if (!ex.ok || ex.cached != expect_cached) {
        throw std::runtime_error(item.name + ": cache prewarm failed: " + ex.error);
      }
    }
  }
  return setup;
}

const Item& item_of(const Setup& setup, const Op& op) {
  return op.cold ? setup.cold[op.item] : setup.items[op.item];
}

std::uint64_t corpus_bytes(const std::vector<Item>& items) {
  std::uint64_t total = 0;
  for (const Item& item : items) total += item.bytes.size();
  return total;
}

/// Per-op outcomes: of one round, or of one client's share of it.
struct Tally {
  std::vector<double> latencies_ms;  ///< one per op; +inf for a failed op
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void record(double ms, bool ok, const std::string& error) {
    if (ok) {
      latencies_ms.push_back(ms);
      return;
    }
    ++failed;
    latencies_ms.push_back(std::numeric_limits<double>::infinity());
    if (errors.size() < 5) errors.push_back(error);
  }

  void merge(const Tally& other) {
    latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                        other.latencies_ms.end());
    failed += other.failed;
    errors.insert(errors.end(), other.errors.begin(), other.errors.end());
  }
};

/// One pass over the op list.
struct Round {
  Tally tally;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;  ///< VmHWM reached during the round
};

/// Sends `ops` in a closed loop over the set-up's clients: each client
/// sends its next request once the previous one is answered, pulling from
/// the shared list. `on_reply(c, op, exchange)` runs on client c's thread.
/// An exception on a client thread is rethrown once all have been joined.
template <typename Fn>
void drive(Setup& setup, const std::vector<Op>& ops, Fn&& on_reply) {
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> failures(setup.clients.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < setup.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      try {
        for (std::size_t i = next++; i < ops.size(); i = next++) {
          const Item& item = item_of(setup, ops[i]);
          on_reply(c, ops[i],
                   exchange(*setup.clients[c], item.bytes, ops[i].cold, item.reference));
        }
      } catch (...) {
        failures[c] = std::current_exception();
        next = ops.size();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }
}

/// Runs whole rounds of the op list, each in a fresh seeded order, until
/// `seconds` have passed.
std::vector<Round> measure(const Options& options, Setup& setup) {
  const Workload& w = *options.workload;
  Rng rng(options.seed ^ 0x9e3779b97f4a7c15u);
  std::vector<Op> ops = setup.round;
  std::vector<Round> rounds;
  const Clock::time_point start = Clock::now();
  do {
    std::shuffle(ops.begin(), ops.end(), rng);
    Round round;
    reset_peak_rss();
    const double cpu_start = cpu_seconds();
    const Clock::time_point round_start = Clock::now();
    if (w.clients == 0) {
      ppd::svc::AnalysisOptions analysis;
      analysis.jobs = w.jobs;
      for (const Op& op : ops) {
        const Item& item = item_of(setup, op);
        const Clock::time_point t0 = Clock::now();
        const ppd::svc::AnalysisOutput out =
            ppd::svc::analyze_trace_bytes(item.name, item.bytes, analysis);
        const double ms = ms_since(t0);
        const bool ok = out.status.is_ok() && out.report == item.reference;
        round.tally.record(ms, ok, item.name + ": report differs from the reference");
      }
    } else {
      std::vector<Tally> per_client(setup.clients.size());
      drive(setup, ops, [&](std::size_t c, const Op& op, const Exchange& ex) {
        const bool ok = ex.ok && ex.cached != op.cold;
        per_client[c].record(ex.total_ms, ok,
                             item_of(setup, op).name + ": " +
                                 (ex.ok ? "unexpected cache outcome" : ex.error));
      });
      for (const Tally& t : per_client) round.tally.merge(t);
    }
    round.wall_s = seconds_since(round_start);
    round.cpu_s = cpu_seconds() - cpu_start;
    round.peak_rss_mb = peak_rss_mb();
    rounds.push_back(std::move(round));
  } while (seconds_since(start) < options.seconds);
  return rounds;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-24s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_header(const Options& options, const Setup& setup, const char* mode) {
  const Workload& w = *options.workload;
  const std::size_t threads = w.clients == 0 ? w.jobs : w.jobs + w.clients;
  const std::size_t cpus = online_cpus();
  std::printf("# bench_e2e %s workload=%s seed=%llu seconds=%g\n", mode, w.name,
              static_cast<unsigned long long>(options.seed), options.seconds);
  std::printf("# corpus: %zu items, %llu bytes; cold set: %zu items, %llu bytes\n",
              setup.items.size(), static_cast<unsigned long long>(corpus_bytes(setup.items)),
              setup.cold.size(), static_cast<unsigned long long>(corpus_bytes(setup.cold)));
  std::printf("# ops per round: %zu; jobs=%zu clients=%zu thread budget=%zu nproc=%zu\n",
              setup.round.size(), w.jobs, w.clients, threads, cpus);
  std::printf("# build: %s, %s\n", BENCH_E2E_BUILD_TYPE, BENCH_E2E_COMPILER);
  if (threads > cpus) {
    std::fprintf(stderr, "bench_e2e: warning: %s wants %zu threads but nproc is %zu\n",
                 w.name, threads, cpus);
  }
}

int run_measured(const Options& options) {
  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < options.setups; ++i) {
    setup = Setup{};  // the previous set-up (and its daemon) goes first
    const Clock::time_point start = Clock::now();
    setup = set_up(options, i);
    setup_s.push_back(seconds_since(start));
  }
  print_header(options, setup, "measured");
  if (!reset_peak_rss()) {
    std::fprintf(stderr, "bench_e2e: warning: cannot reset VmHWM; peak_rss_mb "
                         "includes set-up\n");
  }
  std::vector<Round> rounds = measure(options, setup);

  std::uint64_t round_bytes = 0;
  for (const Op& op : setup.round) round_bytes += item_of(setup, op).bytes.size();
  const double round_mb = static_cast<double>(round_bytes) / 1e6;
  Tally all;
  std::vector<double> peaks;
  for (const Round& r : rounds) {
    all.merge(r.tally);
    peaks.push_back(r.peak_rss_mb);
  }
  // Other tenants of a shared machine slow it down in phases lasting
  // seconds (by up to 1.7x, CPU time included, where this was calibrated),
  // so statistics pooled over every round follow how much of the run such
  // a phase happened to cover. Only the fastest third of the rounds is
  // kept: a change to the program moves every round, outside load only some.
  std::sort(rounds.begin(), rounds.end(),
            [](const Round& a, const Round& b) { return a.wall_s < b.wall_s; });
  rounds.resize((rounds.size() + 2) / 3);
  Tally kept;
  std::vector<double> mb_s;
  double cpu_s = 0.0;
  for (const Round& r : rounds) {
    kept.merge(r.tally);
    mb_s.push_back(round_mb / r.wall_s);
    cpu_s += r.cpu_s;
  }

  const std::uint64_t attempted = all.latencies_ms.size();
  std::printf("# rounds: %zu of %zu ops each, %zu kept; latency samples: %zu of %llu ops\n",
              peaks.size(), setup.round.size(), rounds.size(), kept.latencies_ms.size(),
              static_cast<unsigned long long>(attempted));
  std::printf("# kept round MB/s:");
  for (const double r : mb_s) std::printf(" %.2f", r);
  std::printf("\n# setup s:");
  for (const double s : setup_s) std::printf(" %.3f", s);
  std::printf("\n# peak RSS per round, median %.3f MB, max %.3f MB, against %.3f MB of "
              "corpus bytes; fail_ratio %.6f\n",
              median(peaks), *std::max_element(peaks.begin(), peaks.end()),
              static_cast<double>(corpus_bytes(setup.items) + corpus_bytes(setup.cold)) / 1e6,
              static_cast<double>(all.failed) / static_cast<double>(attempted));
  for (const std::string& e : all.errors) std::fprintf(stderr, "bench_e2e: %s\n", e.c_str());
  print_result(all.failed == 0, attempted, all.failed,
               {{"throughput_mb_s", median(mb_s), "MB/s"},
                {"latency_p50_ms", quantile(kept.latencies_ms, 0.5), "ms"},
                {"latency_p90_ms", quantile(kept.latencies_ms, 0.9), "ms"},
                {"cpu_ms_per_mb",
                 cpu_s * 1e3 / (round_mb * static_cast<double>(rounds.size())), "ms/MB"},
                {"peak_rss_mb", median(peaks), "MB"},
                {"setup_s", median(setup_s), "s"}});
  return all.failed == 0 ? 0 : 1;
}

/// The traced daemon slice: client-side stage timings and cache outcomes.
struct Slice {
  std::vector<double> accept, queue, analysis, reply;
  std::uint64_t hits = 0, misses = 0, rejected = 0, failed = 0, attempted = 0;
  std::vector<std::string> errors;

  void add(const Exchange& ex, bool expect_cached, const std::string& name) {
    ++attempted;
    auto keep = [](std::vector<double>& v, double x) {
      if (!std::isnan(x)) v.push_back(x);
    };
    keep(accept, ex.accept_ms);
    keep(queue, ex.queue_ms);
    keep(analysis, ex.analysis_ms);
    keep(reply, ex.reply_ms);
    if (ex.rejected) ++rejected;
    if (ex.ok) (ex.cached ? hits : misses) += 1;
    if (!ex.ok || ex.cached != expect_cached) {
      ++failed;
      if (errors.size() < 5) errors.push_back(name + ": " + ex.error);
    }
  }
};

/// Offline workloads send each distinct item twice to a fresh daemon (a
/// miss, then a hit); daemon-mix replays whole rounds of its mix, at least
/// kTracedSlice requests.
Slice run_slice(const Options& options, Setup& setup) {
  Slice slice;
  if (setup.daemon == nullptr) {
    Daemon daemon(run_dir(options, options.setups), kDaemonJobs);
    const auto client = daemon.connect();
    for (const Item& item : setup.items) {
      for (const bool expect_cached : {false, true}) {
        slice.add(exchange(*client, item.bytes, false, item.reference), expect_cached,
                  item.name);
      }
    }
    return slice;
  }
  Rng rng(options.seed ^ 0x5bd1e995u);
  std::vector<Op> ops;
  while (ops.size() < kTracedSlice) {
    std::vector<Op> round = setup.round;
    std::shuffle(round.begin(), round.end(), rng);
    ops.insert(ops.end(), round.begin(), round.end());
  }
  std::vector<Slice> per_client(setup.clients.size());
  drive(setup, ops, [&](std::size_t c, const Op& op, const Exchange& ex) {
    per_client[c].add(ex, !op.cold, item_of(setup, op).name);
  });
  for (const Slice& s : per_client) {
    for (auto [to, from] : {std::pair{&slice.accept, &s.accept}, {&slice.queue, &s.queue},
                            {&slice.analysis, &s.analysis}, {&slice.reply, &s.reply}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    slice.hits += s.hits;
    slice.misses += s.misses;
    slice.rejected += s.rejected;
    slice.failed += s.failed;
    slice.attempted += s.attempted;
    slice.errors.insert(slice.errors.end(), s.errors.begin(), s.errors.end());
  }
  return slice;
}

int run_traced(const Options& options) {
  const Workload& w = *options.workload;
  Setup setup = set_up(options, 0);
  print_header(options, setup, "traced");
  // daemon-mix analyzes each request serially on a server worker.
  const std::size_t jobs = w.clients == 0 ? w.jobs : 1;

  ppd::svc::ReportCache::Options cache_options;
  cache_options.dir = run_dir(options, options.setups + 1);
  std::filesystem::remove_all(cache_options.dir);
  std::filesystem::create_directories(cache_options.dir);
  std::vector<Split> best(setup.items.size());
  int passes = 0;
  const Clock::time_point start = Clock::now();
  {
    ppd::svc::ReportCache scratch(cache_options);
    do {
      for (std::size_t i = 0; i < setup.items.size(); ++i) {
        Split pass = split_analysis(setup.items[i], jobs);
        accumulate(pass, split_service(setup.items[i], scratch));
        keep_min(best[i], pass);
      }
      ++passes;
    } while (passes < 2 || seconds_since(start) < options.seconds);
  }
  std::filesystem::remove_all(cache_options.dir);

  Split total;
  for (Split& s : best) {
    finish_split(s);
    accumulate(total, s);
  }
  double attributed = 0.0;
  for (const std::string& layer : kAttributedLayers) attributed += total.ms[layer];
  const double total_ms = total.ms["pass.total_ms"];
  const double unattributed_pct = (total_ms - attributed) / total_ms * 100.0;

  const Slice slice = run_slice(options, setup);

  std::vector<Metric> metrics;
  for (const auto& [name, value] : total.ms) metrics.push_back({name, value, "ms"});
  metrics.push_back({"pass.unattributed_pct", unattributed_pct, "%"});
  metrics.push_back({"rt.cpu_util",
                     total.cpu_s / (total.wall_s * static_cast<double>(jobs)), "ratio"});
  for (const auto& [name, value] : total.counts) {
    metrics.push_back({name, static_cast<double>(value),
                       name.ends_with(".bytes") ? "bytes" : "count"});
  }
  metrics.push_back({"svc.accept_ms", median(slice.accept), "ms"});
  metrics.push_back({"svc.queue_ms", median(slice.queue), "ms"});
  metrics.push_back({"svc.analysis_ms", median(slice.analysis), "ms"});
  metrics.push_back({"svc.reply_ms", median(slice.reply), "ms"});
  metrics.push_back({"svc.hits", static_cast<double>(slice.hits), "count"});
  metrics.push_back({"svc.misses", static_cast<double>(slice.misses), "count"});
  metrics.push_back({"svc.rejected", static_cast<double>(slice.rejected), "count"});
  metrics.push_back({"svc.hit_ratio",
                     static_cast<double>(slice.hits) /
                         static_cast<double>(std::max<std::uint64_t>(1, slice.hits + slice.misses)),
                     "ratio"});

  std::vector<std::string> errors = total.errors;
  errors.insert(errors.end(), slice.errors.begin(), slice.errors.end());
  if (w.clients == 0 && std::fabs(unattributed_pct) > kMaxUnattributedPct) {
    errors.push_back("pass.unattributed_pct " + std::to_string(unattributed_pct) +
                     " is beyond +-" + std::to_string(kMaxUnattributedPct));
  }
  std::printf("# traced passes: %d (min per call), daemon slice: %llu requests\n", passes,
              static_cast<unsigned long long>(slice.attempted));
  for (const std::string& e : errors) std::fprintf(stderr, "bench_e2e: %s\n", e.c_str());
  const std::uint64_t checked =
      static_cast<std::uint64_t>(passes) * setup.items.size() + slice.attempted;
  print_result(errors.empty(), checked, errors.size(), metrics);
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    std::filesystem::create_directories(options.workdir);
    return options.traced ? run_traced(options) : run_measured(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s: %s\n", options.workload->name, e.what());
    return 1;
  }
}
