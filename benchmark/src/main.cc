// blitzbench: the repository benchmark (see benchmark/README.md).
//
//   blitzbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --blitzd <path> --out <dir> [--smoke] [--slo]
//   blitzbench summarize <dir>
//   blitzbench compare <parent-dir> <change-dir>
//   blitzbench manifest            # prints BENCHMARK.json
//
// `run` measures one workload once. Untraced (--trace 0) it reports the
// end-to-end metrics: a single-process open-loop generator drives a
// spawned blitzd over unix sockets (or, for embed-parallel, one caller
// drives OptimizeQuery), every reply is checked, and nothing inside the
// program is instrumented; its timings are scaled to a reference host speed
// measured by a probe that runs between windows (probe.h). Traced
// (--trace 1) it reports the per-layer
// metrics: the same seeded inputs replayed in process with a span around
// each layer's public functions, an in-process BlitzServer at the fixed
// rate, and a sequential-against-parallel comparison. Either way the last
// line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/prctl.h>

#include "api/optimize_query.h"
#include "benchlib/bench_json.h"
#include "card/no_estimate.h"
#include "card/paper_fanout.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/table_arena.h"
#include "daemon.h"
#include "inputs.h"
#include "loadgen.h"
#include "manifest.h"
#include "obs/profiler/phase_profile.h"
#include "probe.h"
#include "replay.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "stats.h"
#include "verify.h"

namespace blitz::bench {
namespace {

constexpr int kConnections = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Windows a serving phase is cut into (see BestWindowsPercentile), fewer
/// where a window must span a whole block of the workload's mix.
constexpr std::size_t kWindows = 100;
/// Between two windows the schedule leaves this gap; the sender waits
/// kProbePause for the replies in flight, then runs the host probe.
constexpr double kProbeGapSeconds = 0.005;
constexpr auto kProbePause = std::chrono::milliseconds(1);
/// Steps of the SLO search (run --slo), each this long.
constexpr int kLadderSteps = 4;
constexpr double kLadderStepSeconds = 2;
/// Share of --seconds each serve phase of a traced run takes.
constexpr double kTracedServeShare = 0.2;
/// How long a phase waits for replies after its last send.
constexpr double kGraceSeconds = 10;
/// Bodies of the sequential-against-parallel comparison.
constexpr std::size_t kParallelBodies = 16;
/// Generator lateness beyond which a fixed-rate phase is invalid.
constexpr double kMaxLagMs = 1.0;

constexpr std::uint64_t kFixedScheduleStream = 100;
constexpr std::uint64_t kLadderScheduleStream = 200;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kRunSeconds;
  bool trace = false;
  bool smoke = false;
  bool slo = false;
  std::string blitzd;
  std::string out;
};

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int Threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw == 0 ? 1 : hw), 1, 4);
}

double Median(const std::vector<double>& values) {
  return ExclusiveQuartiles(values).median;
}

/// The metrics of one run plus what the contract line needs.
struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> meta;

  void Add(const std::string& name, double value) {
    metrics.emplace_back(name, std::isfinite(value) ? value : 0.0);
  }
};

/// Prints `workload metric value unit` lines, writes the run's bench-v1
/// report, and prints the contract JSON line last.
void Emit(const RunArgs& args, const RunReport& report) {
  BenchReport bench;
  bench.bench = "blitzbench";
  bench.AddMeta("workload", args.workload);
  bench.AddMeta("seed", StrFormat("%llu",
                                  static_cast<unsigned long long>(args.seed)));
  bench.AddMeta("seconds", StrFormat("%g", args.seconds));
  bench.AddMeta("trace", args.trace ? "1" : "0");
  for (const auto& [key, value] : report.meta) bench.AddMeta(key, value);
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    const MetricDef* def = FindMetric(name);
    BLITZ_CHECK(def != nullptr);
    const char* unit = def->unit;
    std::printf("%s %s %.6g %s\n", args.workload.c_str(), name.c_str(), value,
                unit);
    bench.AddPoint(args.workload + "/" + name, value, unit);
    json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", name.c_str(), value, unit);
    first = false;
  }
  json += "}}";
  const std::string path =
      (std::filesystem::path(args.out) /
       StrFormat("%s%s-s%llu.json", args.workload.c_str(),
                 args.trace ? "-trace" : "",
                 static_cast<unsigned long long>(args.seed)))
          .string();
  const Status written = WriteBenchJsonFile(bench, path);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::vector<Request> WarmupRequests(const Inputs& inputs) {
  std::vector<Request> out;
  for (std::uint32_t body : inputs.warmup()) out.push_back(Request{body, 0});
  return out;
}

/// A blitzd with warmed cache and open connections.
struct ServingSetup {
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<SocketTransport> transport;
  double seconds = 0;  ///< Spawn to last warm-up reply.
  int warmup_failures = 0;
};

Result<ServingSetup> SetUpServer(const RunArgs& args, const Inputs& inputs,
                                 std::uint64_t* next_id, ReplyLog* log) {
  const std::string socket =
      (std::filesystem::path(args.out) / "blitzd.sock").string();
  const std::string daemon_log =
      (std::filesystem::path(args.out) / (args.workload + ".blitzd.log"))
          .string();
  ServingSetup setup;
  const Clock::time_point start = Clock::now();
  Result<std::unique_ptr<Daemon>> daemon =
      Daemon::Spawn(args.blitzd, socket, daemon_log);
  if (!daemon.ok()) return daemon.status();
  setup.daemon = std::move(*daemon);
  Result<std::unique_ptr<SocketTransport>> transport =
      SocketTransport::Connect(socket, kConnections, 10);
  if (!transport.ok()) return transport.status();
  setup.transport = std::move(*transport);
  Result<int> failures = RunClosedLoop(setup.transport.get(), inputs,
                                       WarmupRequests(inputs), next_id, log);
  if (!failures.ok()) return failures.status();
  setup.warmup_failures = *failures;
  setup.seconds = SecondsSince(start);
  return setup;
}

/// OK latencies of requests [first, last) of a phase.
std::vector<double> OkLatencies(const PhaseStats& stats, std::size_t first = 0,
                                std::size_t last = SIZE_MAX) {
  std::vector<double> out;
  for (std::size_t j = first; j < std::min(last, stats.latency_ms.size());
       ++j) {
    if (!std::isnan(stats.latency_ms[j])) out.push_back(stats.latency_ms[j]);
  }
  return out;
}

/// The `pct` percentile of the latencies in the best quarter of the
/// windows by that percentile, pooled, widened until ten latencies lie
/// beyond the percentile. Besides the spells longer than a run that the
/// host probe scales away, the host has short stalls — a descheduled vCPU
/// holds every request in flight — and a window that caught one reads as
/// slow at every percentile; min-of-k over short windows keeps them out.
/// Latencies still run from the scheduled send time, so a stall inside a
/// kept window shows.
double BestWindowsPercentile(const std::vector<std::vector<double>>& windows,
                             double pct) {
  const auto min_samples = static_cast<std::size_t>(10 / (1 - pct / 100));
  std::vector<std::pair<double, const std::vector<double>*>> ranked;
  for (const std::vector<double>& w : windows) {
    ranked.emplace_back(Percentile(w, pct), &w);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<double> pooled;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (i >= (ranked.size() + 3) / 4 && pooled.size() >= min_samples) break;
    pooled.insert(pooled.end(), ranked[i].second->begin(),
                  ranked[i].second->end());
  }
  return Percentile(pooled, pct);
}

/// Timings measured while the host probe's median was `probe_ms`, scaled
/// to the reference host (see probe.h). The median over the whole run is
/// used: single probes are a millisecond long and catch short stalls.
struct HostScale {
  double probe_ms = kReferenceProbeMs;

  static HostScale Of(const std::vector<double>& probes) {
    return HostScale{probes.empty() ? kReferenceProbeMs : Median(probes)};
  }
  double operator()(double timing) const {
    return timing * kReferenceProbeMs / probe_ms;
  }
};

/// The latency metrics every workload reports, scaled.
void AddLatencies(const std::vector<std::vector<double>>& windows,
                  const HostScale& scale, RunReport* report) {
  report->Add("latency_p50_ms", scale(BestWindowsPercentile(windows, 50)));
  report->Add("latency_p99_ms", scale(BestWindowsPercentile(windows, 99)));
}

/// Prints what the scaling used, so the unscaled timings can be recovered.
void PrintHostScale(const RunArgs& args, const HostScale& scale,
                    std::size_t probes, RunReport* report) {
  std::printf("%s host_probe_ms %.4f ms (median of %zu; reference %.2f)\n",
              args.workload.c_str(), scale.probe_ms, probes,
              kReferenceProbeMs);
  report->meta.emplace_back("host_probe_ms",
                            StrFormat("%.4f", scale.probe_ms));
}

/// One rung of the SLO search.
struct LadderStep {
  double rate = 0;
  double p99_ms = 0;
  bool pass = false;
};

LadderStep Judge(const PhaseStats& stats, double rate, double slo_ms) {
  // A failed or missing reply counts as missing the limit.
  std::vector<double> all = stats.latency_ms;
  for (double& ms : all) {
    if (std::isnan(ms)) ms = HUGE_VAL;
  }
  LadderStep step{rate, Percentile(all, 99), false};
  // A growing backlog shows as later requests waiting longer than earlier
  // ones (latencies are in send order).
  const std::size_t n = all.size();
  const bool backlog =
      n >= 4 && Mean(OkLatencies(stats, n - n / 4, n)) -
                        Mean(OkLatencies(stats, 0, n / 4)) >
                    slo_ms / 4;
  step.pass = step.p99_ms <= slo_ms && !backlog;
  return step;
}

/// The highest offered rate whose p99 stays within the SLO with no growing
/// backlog: kLadderSteps steps on the geometric rate grid from the
/// workload's start rung (up while passing, down while failing, bisecting
/// once bracketed), then interpolation of log p99 between the highest pass
/// and the lowest failure. `fixed` is the fixed-rate phase, a known point.
double SearchSlo(const RunArgs& args, const WorkloadConfig& config,
                 Inputs* inputs, SocketTransport* transport,
                 const LadderStep& fixed, std::uint64_t* next_request,
                 std::uint64_t* next_id, ReplyLog* log) {
  std::optional<LadderStep> pass, fail;
  const auto record = [&](const LadderStep& s) {
    if (s.pass && (!pass || s.rate > pass->rate)) pass = s;
    if (!s.pass && (!fail || s.rate < fail->rate)) fail = s;
  };
  record(fixed);
  int rung = config.ladder_start_rung;
  for (int step = 0; step < kLadderSteps; ++step) {
    double rate = config.rate_rps * std::pow(kLadderStep, rung);
    if (pass && fail) {
      rate = std::sqrt(pass->rate * fail->rate);
    } else if (pass && rate <= pass->rate) {
      rate = pass->rate * kLadderStep;
    } else if (fail && rate >= fail->rate) {
      rate = fail->rate / kLadderStep;
    }
    const std::vector<double> offsets =
        PoissonSchedule(rate, kLadderStepSeconds,
                        DeriveSeed(args.seed, kLadderScheduleStream + step));
    const std::vector<Request> requests =
        inputs->Requests(*next_request, offsets.size());
    *next_request += offsets.size();
    const PhaseStats stats = RunOpenLoop(transport, *inputs, requests, offsets,
                                         kGraceSeconds, next_id, log);
    const LadderStep s = Judge(stats, rate, config.slo_p99_ms);
    std::fprintf(stderr, "  slo step %d: %.1f rps p99 %.3f ms %s\n", step,
                 rate, s.p99_ms, s.pass ? "pass" : "fail");
    record(s);
    rung += s.pass ? 1 : -1;
  }
  if (pass && fail) {
    const double cap = 100 * config.slo_p99_ms;
    const double lo = std::log(pass->p99_ms);
    const double hi = std::log(std::min(fail->p99_ms, cap));
    const double t =
        hi > lo ? std::clamp((std::log(config.slo_p99_ms) - lo) / (hi - lo),
                             0.0, 1.0)
                : 0.0;
    return pass->rate + t * (fail->rate - pass->rate);
  }
  if (pass) return pass->rate;
  return fail->rate * config.slo_p99_ms / std::max(fail->p99_ms, 1e-9);
}

/// Verification shared by every run: prints the counts, returns the number
/// of wrong answers.
std::uint64_t Verify(const Inputs& inputs, const ReplyLog& log,
                     bool sample_all) {
  const VerifyResult verified = VerifyReplies(inputs, log, sample_all);
  std::fprintf(stderr,
               "verify: %llu distinct replies re-costed, %llu against a fresh "
               "optimum, %llu wrong\n",
               static_cast<unsigned long long>(verified.replies_checked),
               static_cast<unsigned long long>(verified.optimum_checked),
               static_cast<unsigned long long>(verified.wrong));
  return verified.wrong;
}

int RunServing(const RunArgs& args, const WorkloadConfig& config) {
  Inputs inputs(config, args.seed);
  ReplyLog log;
  std::uint64_t next_id = 1;
  RunReport report;
  int failures = 0;

  std::vector<double> setup_seconds;
  std::optional<ServingSetup> setup;
  for (int k = 0; k < (args.smoke ? 1 : kSetups); ++k) {
    if (setup) {
      setup->transport.reset();
      (void)setup->daemon->Stop();
    }
    Result<ServingSetup> made = SetUpServer(args, inputs, &next_id, &log);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    setup = std::move(*made);
    setup_seconds.push_back(setup->seconds);
    failures += setup->warmup_failures;
  }

  // The fixed-rate phase: windows of equally many requests (the last one
  // takes the remainder) with a host probe in the gap between two windows,
  // and the generator's thread count read mid-phase.
  std::vector<double> offsets = PoissonSchedule(
      config.rate_rps, args.seconds,
      DeriveSeed(args.seed, kFixedScheduleStream));
  const std::size_t n = offsets.size();
  const std::size_t block = inputs.mix_block();
  const std::size_t window_len =
      std::max<std::size_t>(1, n / kWindows / block) * block;
  const std::size_t num_windows = std::max<std::size_t>(1, n / window_len);
  const auto window_of = [&](std::size_t j) {
    return std::min(j / window_len, num_windows - 1);
  };
  for (std::size_t j = 0; j < n; ++j) {
    offsets[j] += kProbeGapSeconds * static_cast<double>(window_of(j));
  }
  const std::vector<Request> requests = inputs.Requests(0, n);
  Result<std::map<std::string, double>> statz_before =
      FetchStatz(setup->transport.get(), &next_id);
  const double cpu_before = setup->daemon->CpuMs();
  std::vector<double> probes;
  int generator_threads = 0;
  const PhaseStats fixed = RunOpenLoop(
      setup->transport.get(), inputs, requests, offsets, kGraceSeconds,
      &next_id, &log, [&](std::size_t sent) {
        if (sent == n / 2) generator_threads = SelfThreads();
        if (sent < n && window_of(sent) != window_of(sent - 1)) {
          std::this_thread::sleep_for(kProbePause);
          probes.push_back(ProbeHostMs());
        }
      });
  const double cpu_ms = setup->daemon->CpuMs() - cpu_before;
  const double peak_rss_mb = setup->daemon->PeakRssMb();
  Result<std::map<std::string, double>> statz_after =
      FetchStatz(setup->transport.get(), &next_id);

  std::optional<double> slo_rps;
  if (args.slo) {
    std::uint64_t next_request = n;
    const LadderStep fixed_step =
        Judge(fixed, config.rate_rps, config.slo_p99_ms);
    slo_rps = SearchSlo(args, config, &inputs, setup->transport.get(),
                        fixed_step, &next_request, &next_id, &log);
  }
  setup->transport.reset();
  const Status stopped = setup->daemon->Stop();
  if (!stopped.ok()) {
    std::fprintf(stderr, "%s\n", stopped.ToString().c_str());
    report.correct = false;
  }

  const std::uint64_t wrong = Verify(inputs, log, /*sample_all=*/false);

  // Cross-check: the daemon's own hit ratio over the phase against a
  // single-threaded replay of the same requests keyed as the server keys
  // them. A gap means kServingFingerprintBudget drifted.
  const CacheReplay replay = ReplayCache(inputs, inputs.warmup(), requests);
  double statz_ratio = -1;
  if (statz_before.ok() && statz_after.ok()) {
    statz_ratio = ((*statz_after)["cache_hits"] -
                   (*statz_before)["cache_hits"]) /
                  static_cast<double>(std::max<std::size_t>(1, n));
  }
  const bool cache_agrees =
      std::fabs(statz_ratio - replay.hit_ratio()) <= 0.01;
  std::fprintf(stderr, "cross-check: statz hit ratio %.4f, replay %.4f%s\n",
               statz_ratio, replay.hit_ratio(),
               cache_agrees ? "" : "  MISMATCH");
  const bool generator_ok =
      generator_threads <= std::min(Threads(), 2) && kConnections <= 4;
  std::fprintf(stderr, "generator: %d threads, %d connections\n",
               generator_threads, kConnections);

  std::vector<std::vector<double>> windows(num_windows);
  for (std::size_t w = 0; w < num_windows; ++w) {
    windows[w] = OkLatencies(fixed, w * window_len,
                             w + 1 == num_windows ? n : (w + 1) * window_len);
  }
  const HostScale scale = HostScale::Of(probes);

  const double lag_p99 = Percentile(fixed.lag_ms, 99);
  const std::uint64_t failed = fixed.errors + fixed.unanswered + wrong;
  const double error_frac =
      static_cast<double>(failed) / static_cast<double>(std::max<std::size_t>(1, n));
  const bool valid = lag_p99 <= kMaxLagMs;
  std::printf("%s gen_lag_ms_p99 %.4f ms%s\n", args.workload.c_str(), lag_p99,
              valid ? "" : "  INVALID (generator ran late)");
  std::printf("%s error_frac %.6f frac\n%s wrong_answers %llu count\n",
              args.workload.c_str(), error_frac, args.workload.c_str(),
              static_cast<unsigned long long>(wrong));
  std::printf("%s latency_samples %zu count\n", args.workload.c_str(),
              static_cast<std::size_t>(fixed.ok));
  PrintHostScale(args, scale, probes.size(), &report);

  report.correct = report.correct && wrong == 0 && failures == 0 &&
                   cache_agrees && generator_ok;
  report.attempted = n;
  report.failed = failed;
  report.meta.emplace_back("valid", valid ? "1" : "0");
  report.meta.emplace_back("gen_lag_ms_p99", StrFormat("%.4f", lag_p99));
  report.meta.emplace_back("error_frac", StrFormat("%.6f", error_frac));
  report.Add("setup_s", scale(Median(setup_seconds)));
  // The delivered rate at a fixed offered rate: not a timing of the
  // program's work, so not scaled.
  report.Add("throughput_rps", static_cast<double>(fixed.ok) / fixed.wall_s);
  AddLatencies(windows, scale, &report);
  report.Add("cpu_ms_per_req",
             scale(cpu_ms / static_cast<double>(std::max<std::size_t>(1, n))));
  report.Add("peak_rss_mb", peak_rss_mb);
  if (slo_rps) report.Add("slo_rps", *slo_rps);
  Emit(args, report);
  if (args.smoke && (wrong > 0 || error_frac > 0.001)) return 1;
  return report.correct ? 0 : 1;
}

int RunEmbed(const RunArgs& args, const WorkloadConfig& config) {
  Inputs inputs(config, args.seed);
  const int threads = Threads();
  // The call sequence cycles through the query pool; one cycle is one
  // window, so every window holds the same work.
  const std::vector<Request> cycle = inputs.Requests(0, inputs.mix_block());
  std::map<std::uint32_t, std::unique_ptr<ServedProblem>> problems;
  for (const Request& r : cycle) {
    Result<std::unique_ptr<ServedProblem>> problem =
        PrepareProblem(inputs.body(r.body));
    if (!problem.ok()) {
      std::fprintf(stderr, "%s\n", problem.status().ToString().c_str());
      return 1;
    }
    problems[r.body] = std::move(*problem);
  }

  // Set-up: the arena, one estimator per query, and the warm-up calls.
  struct Embedding {
    DpTableArena arena{DpTableArena::Options{}};
    std::map<std::uint32_t, std::unique_ptr<CardinalityEstimator>> estimators;
  };
  std::unique_ptr<Embedding> embedding;
  const auto call = [&](std::uint32_t body) {
    const ServedProblem& problem = *problems.at(body);
    QueryOptimizerOptions options = problem.Options();
    options.estimator = embedding->estimators.at(body).get();
    options.table_arena = &embedding->arena;
    options.parallel.num_threads = threads;
    return OptimizeQuery(problem.spec.catalog, problem.spec.graph, options);
  };
  std::vector<double> setup_seconds;
  for (int k = 0; k < (args.smoke ? 1 : kSetups); ++k) {
    const Clock::time_point start = Clock::now();
    embedding = std::make_unique<Embedding>();
    for (const auto& [body, problem] : problems) {
      if (problem->estimator == EstimatorKind::kNoEstimate) {
        embedding->estimators[body] =
            std::make_unique<NoEstimateEstimator>(problem->spec.graph);
      } else {
        embedding->estimators[body] = std::make_unique<PaperFanoutEstimator>(
            problem->spec.catalog, problem->spec.graph);
      }
    }
    for (std::uint32_t body : inputs.warmup()) {
      if (!call(body).ok()) return 1;
    }
    setup_seconds.push_back(SecondsSince(start));
  }

  // The host probe runs after every call, outside its timing.
  ReplyLog log;
  std::vector<std::vector<double>> windows;
  std::vector<double> probes;
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  double busy_s = 0;
  double cpu_ms = 0;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < args.seconds) {
    std::vector<double>& window = windows.emplace_back();
    for (const Request& r : cycle) {
      const double cpu_before = SelfCpuMs();
      const Clock::time_point t = Clock::now();
      Result<OptimizedQuery> result = call(r.body);
      const double seconds = SecondsSince(t);
      cpu_ms += SelfCpuMs() - cpu_before;
      busy_s += seconds;
      window.push_back(seconds * 1e3);
      ++calls;
      if (!result.ok()) {
        ++failed;
        continue;
      }
      ServeReply reply;
      reply.plan = result->plan.ToString(&problems.at(r.body)->spec.catalog);
      reply.cost = result->cost;
      reply.tier = OptimizerTierName(result->tier);
      reply.passes = result->passes;
      log.Add(r.body, EncodeReplyBody(reply));
      probes.push_back(ProbeHostMs());
    }
  }
  const double peak_rss_mb = SelfPeakRssMb();

  const std::uint64_t wrong = Verify(inputs, log, /*sample_all=*/true);
  RunReport report;
  report.correct = wrong == 0;
  report.attempted = calls;
  report.failed = failed + wrong;
  std::printf("%s wrong_answers %llu count\n%s latency_samples %llu count\n",
              args.workload.c_str(), static_cast<unsigned long long>(wrong),
              args.workload.c_str(), static_cast<unsigned long long>(calls));
  const HostScale scale = HostScale::Of(probes);
  PrintHostScale(args, scale, probes.size(), &report);
  report.Add("setup_s", scale(Median(setup_seconds)));
  // Calls per second of calling time; a rate, so scaled inversely.
  const double num_calls =
      static_cast<double>(std::max<std::uint64_t>(1, calls));
  report.Add("throughput_rps", num_calls / scale(busy_s));
  AddLatencies(windows, scale, &report);
  report.Add("cpu_ms_per_req", scale(cpu_ms / num_calls));
  report.Add("peak_rss_mb", peak_rss_mb);
  Emit(args, report);
  if (args.smoke && (wrong > 0 || failed > 0)) return 1;
  return report.correct ? 0 : 1;
}

std::vector<double> SpanMicros(const std::vector<Span>& spans,
                               const char* layer) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.layer, layer) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

int RunTraced(const RunArgs& args, const WorkloadConfig& config) {
  Inputs inputs(config, args.seed);
  ReplyLog log;
  RunReport report;
  const double serve_s = args.seconds * kTracedServeShare;
  const std::vector<double> offsets = PoissonSchedule(
      config.rate_rps, serve_s, DeriveSeed(args.seed, kFixedScheduleStream));
  const std::vector<Request> serve_requests =
      inputs.Requests(0, offsets.size());

  // 1. The real blitzd at the fixed rate, for the transport share.
  double e2e_p50 = 0;
  {
    std::uint64_t next_id = 1;
    Result<ServingSetup> setup = SetUpServer(args, inputs, &next_id, &log);
    if (!setup.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   setup.status().ToString().c_str());
      return 1;
    }
    const PhaseStats stats =
        RunOpenLoop(setup->transport.get(), inputs, serve_requests, offsets,
                    kGraceSeconds, &next_id, &log);
    e2e_p50 = Percentile(OkLatencies(stats), 50);
    setup->transport.reset();
    (void)setup->daemon->Stop();
  }

  // 2. An in-process BlitzServer (blitzd's defaults, two workers) at the
  // same rate, its statz sampled at 10 Hz from the sender thread.
  PhaseStats inproc;
  std::vector<double> queue_depth;
  {
    ServerOptions options;
    options.num_workers = 2;
    Result<std::unique_ptr<BlitzServer>> server = BlitzServer::Create(options);
    if (!server.ok()) return 1;
    InProcessTransport transport(server->get(), kConnections);
    std::uint64_t next_id = 1;
    if (!RunClosedLoop(&transport, inputs, WarmupRequests(inputs), &next_id,
                       &log)
             .ok()) {
      return 1;
    }
    Clock::time_point next_sample = Clock::now();
    inproc = RunOpenLoop(
        &transport, inputs, serve_requests, offsets, kGraceSeconds, &next_id,
        &log, [&](std::size_t) {
          if (Clock::now() < next_sample) return;
          next_sample += std::chrono::milliseconds(100);
          queue_depth.push_back(
              ParseStatz((*server)->StatzBody())["queue_depth"]);
        });
    (*server)->Shutdown();
  }

  // 3. The cache over the untraced run's fixed-phase requests.
  const std::vector<Request> fixed_requests = inputs.Requests(
      0, PoissonSchedule(config.rate_rps, args.seconds,
                         DeriveSeed(args.seed, kFixedScheduleStream))
             .size());
  const CacheReplay cache = ReplayCache(inputs, inputs.warmup(), fixed_requests);

  // 4. Layer by layer: warm-up, then the first replay_requests requests,
  // through a traced and an untraced replay in alternating order, so drift
  // in machine speed does not land on one side of the tracing overhead.
  std::vector<Request> sequence = WarmupRequests(inputs);
  for (const Request& r : inputs.Requests(0, config.replay_requests)) {
    sequence.push_back(r);
  }
  LayerReplay untraced_replay(inputs, false);
  LayerReplay traced_replay(inputs, true);
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    LayerReplay* first = i % 2 == 0 ? &untraced_replay : &traced_replay;
    LayerReplay* second = i % 2 == 0 ? &traced_replay : &untraced_replay;
    first->Step(i, sequence[i]);
    second->Step(i, sequence[i]);
  }
  const ReplayResult& untraced = untraced_replay.result();
  const ReplayResult& traced = traced_replay.result();

  // 5. Sequential against rank-parallel on the bodies the replay optimized.
  std::vector<std::uint32_t> parallel_bodies = traced.optimized_bodies;
  if (parallel_bodies.size() > kParallelBodies) {
    parallel_bodies.resize(kParallelBodies);
  }
  const ParallelResult parallel =
      MeasureParallel(inputs, parallel_bodies, Threads());

  const std::uint64_t wrong = Verify(inputs, log, /*sample_all=*/false);

  const std::string trace_path =
      (std::filesystem::path(args.out) /
       StrFormat("%s-s%llu.trace.json", args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed)))
          .string();
  const Status written = WriteSpans(traced.spans, trace_path);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
  }

  // Self time per layer, as a share of the request spans.
  const std::map<std::string, double> self = SelfTimesUs(traced.spans);
  double request_us = 0;
  for (double us : SpanMicros(traced.spans, "request")) request_us += us;
  std::printf("%-32s %14s %8s\n", "layer", "self_us", "share");
  for (const auto& [layer, us] : self) {
    std::printf("%-32s %14.1f %7.2f%%\n", layer.c_str(), us,
                100 * us / std::max(request_us, 1e-9));
  }
  const double coverage =
      1 - self.at("request") / std::max(request_us, 1e-9);
  std::printf("%s layer_coverage %.4f frac\n", args.workload.c_str(),
              coverage);

  const auto p = [&](const char* layer, double pct) {
    return Percentile(SpanMicros(traced.spans, layer), pct);
  };
  const auto dp_p50 = [&](const char* model) {
    const auto it = traced.dp_ms_by_model.find(model);
    return it == traced.dp_ms_by_model.end() ? 0.0
                                             : Percentile(it->second, 50);
  };
  const auto phase_frac = [&](DpPhase phase) {
    const double total = static_cast<double>(traced.profile.TotalTicks());
    return total > 0 ? static_cast<double>(traced.profile.PhaseTicks(phase)) /
                           total
                     : 0.0;
  };
  const std::vector<double> inproc_latency_ms = OkLatencies(inproc);
  const double inproc_p50 = Percentile(inproc_latency_ms, 50);
  report.correct = wrong == 0;
  report.attempted = inproc.sent;
  report.failed = inproc.errors + inproc.unanswered + wrong;
  report.Add("serve.wire.encode_us_p50", p("serve.wire.encode", 50));
  report.Add("serve.wire.assemble_us_p50", p("serve.wire.assemble", 50));
  report.Add("serve.wire.reply_parse_us_p50", p("serve.wire.reply_parse", 50));
  report.Add("textio.parse_us_p50", p("textio.parse", 50));
  report.Add("textio.parse_us_p99", p("textio.parse", 99));
  report.Add("serve.plancache.fingerprint_us_p50",
             p("serve.plancache.fingerprint", 50));
  report.Add("serve.plancache.fingerprint_us_p99",
             p("serve.plancache.fingerprint", 99));
  report.Add("serve.plancache.exact_canonical_frac",
             static_cast<double>(cache.exact_canonical) /
                 std::max<std::uint64_t>(1, cache.requests));
  report.Add("serve.plancache.lookup_us_p50", p("serve.plancache.lookup", 50));
  report.Add("serve.plancache.hit_ratio", cache.hit_ratio());
  report.Add("serve.plancache.insert_us_p50", p("serve.plancache.insert", 50));
  report.Add("serve.plancache.evictions_per_req",
             static_cast<double>(cache.evictions) /
                 std::max<std::uint64_t>(1, cache.requests));
  report.Add("serve.server.inproc_latency_ms_p50", inproc_p50);
  report.Add("serve.server.inproc_latency_ms_p99",
             Percentile(inproc_latency_ms, 99));
  report.Add("serve.server.queue_depth_mean", Mean(queue_depth));
  report.Add("serve.server.shed_frac",
             static_cast<double>(inproc.errors) /
                 std::max<std::uint64_t>(1, inproc.sent));
  report.Add("serve.transport_ms_p50", e2e_p50 - inproc_p50);
  report.Add("api.optimize_ms_p50", p("api.optimize", 50) / 1e3);
  report.Add("api.optimize_ms_p99", p("api.optimize", 99) / 1e3);
  report.Add("api.passes_mean", Mean(traced.passes));
  report.Add("core.dp_ms_p50.naive", dp_p50("naive"));
  report.Add("core.dp_ms_p50.sm", dp_p50("sm"));
  report.Add("core.dp_ms_p50.dnl", dp_p50("dnl"));
  report.Add("core.loop_iterations_mean", Mean(traced.loop_iterations));
  report.Add("core.kappa2_evaluations_mean", Mean(traced.kappa2_evaluations));
  report.Add("core.phase_frac.gate_filter", phase_frac(DpPhase::kGateFilter));
  report.Add("core.phase_frac.survivor_replay",
             phase_frac(DpPhase::kSurvivorReplay));
  report.Add("core.phase_frac.kappa2", phase_frac(DpPhase::kKappa2));
  report.Add("core.phase_frac.table_write", phase_frac(DpPhase::kTableWrite));
  report.Add("core.phase_frac.driver", phase_frac(DpPhase::kDriver));
  const auto estimate_p50 = [&](const char* kind) {
    const auto it = traced.estimate_all_us.find(kind);
    return it == traced.estimate_all_us.end() ? 0.0
                                              : Percentile(it->second, 50);
  };
  report.Add("card.estimate_all_us_p50.paper", estimate_p50("paper"));
  report.Add("card.estimate_all_us_p50.noest", estimate_p50("noest"));
  report.Add("plan.extract_us_p50", Percentile(traced.extract_us, 50));
  report.Add("plan.evaluate_us_p50", Percentile(traced.evaluate_us, 50));
  report.Add("plan.attach_us_p50", Percentile(traced.attach_us, 50));
  report.Add("parallel.dp_ms_p50", parallel.parallel_ms_p50);
  report.Add("parallel.efficiency", parallel.efficiency);
  report.Add("bench.trace_overhead", traced.wall_s / untraced.wall_s);
  report.meta = {{"layer_coverage", StrFormat("%.4f", coverage)}};
  Emit(args, report);
  return report.correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: blitzbench run --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --blitzd <path> --out <dir> "
               "[--smoke] [--slo]\n"
               "       blitzbench summarize <dir>\n"
               "       blitzbench compare <parent-dir> <change-dir>\n"
               "       blitzbench manifest\n");
  return 2;
}

int Run(int argc, char** argv) {
  RunArgs args;
  for (int i = 2; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto take = [&]() -> const char* {
      ++i;
      return value;
    };
    int number = 0;
    double real = 0;
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--slo") {
      args.slo = true;
    } else if (value == nullptr) {
      return Usage();
    } else if (flag == "--workload") {
      args.workload = take();
    } else if (flag == "--seed") {
      const char* v = take();
      char* end = nullptr;
      args.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return Usage();
    } else if (flag == "--seconds" && ParseDouble(take(), &real) && real > 0) {
      args.seconds = real;
    } else if (flag == "--trace" && ParseInt(take(), &number) &&
               (number == 0 || number == 1)) {
      args.trace = number == 1;
    } else if (flag == "--blitzd") {
      args.blitzd = take();
    } else if (flag == "--out") {
      args.out = take();
    } else {
      return Usage();
    }
  }
  const WorkloadConfig* config = FindWorkload(args.workload);
  if (config == nullptr || args.out.empty() ||
      ((config->serving || args.trace) && args.blitzd.empty())) {
    std::fprintf(stderr, "unknown workload or missing --out/--blitzd\n");
    return Usage();
  }
  std::error_code error;
  std::filesystem::create_directories(args.out, error);
  // The sender sleeps to absolute deadlines; default timer slack (50 us)
  // would show up as generator lag.
  ::prctl(PR_SET_TIMERSLACK, 1000UL);
  std::fprintf(stderr, "blitzbench: %s seed %llu, %g s, %s\n", config->name,
               static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? "traced" : "untraced");
  if (args.trace) return RunTraced(args, *config);
  return config->serving ? RunServing(args, *config) : RunEmbed(args, *config);
}

}  // namespace
}  // namespace blitz::bench

int main(int argc, char** argv) {
  if (argc < 2) return blitz::bench::Usage();
  const std::string_view command = argv[1];
  if (command == "run") return blitz::bench::Run(argc, argv);
  if (command == "summarize" && argc == 3) {
    return blitz::bench::Summarize(argv[2]);
  }
  if (command == "compare" && argc == 4) {
    return blitz::bench::Compare(argv[2], argv[3]);
  }
  if (command == "manifest" && argc == 2) {
    std::fputs(blitz::bench::ManifestJson().c_str(), stdout);
    return 0;
  }
  return blitz::bench::Usage();
}
