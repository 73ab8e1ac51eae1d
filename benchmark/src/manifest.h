#ifndef BLITZBENCH_MANIFEST_H_
#define BLITZBENCH_MANIFEST_H_

#include <string>
#include <string_view>
#include <vector>

namespace blitz::bench {

/// One named workload. Rates are absolute and never change at run time, so
/// a parent commit and a change always receive the same offered load.
struct WorkloadConfig {
  const char* name;
  /// One-line rationale (BENCHMARK.json `why`).
  const char* why;
  /// Open loop against a spawned blitzd; false = closed-loop OptimizeQuery.
  bool serving;
  /// Fixed offered rate. For the closed-loop workload this is only the rate
  /// of the serve-layer phases of its traced run.
  double rate_rps;
  /// p99 latency limit of the SLO search (serving workloads).
  double slo_p99_ms;
  /// The SLO search starts at rate_rps * kLadderStep^ladder_start_rung.
  int ladder_start_rung;
  /// Timed requests the traced run replays layer by layer (after the
  /// warm-up requests, which are always replayed).
  int replay_requests;
};

/// Ratio between neighbouring rungs of the SLO search.
inline constexpr double kLadderStep = 1.15;

/// Measured seconds of one run (BENCHMARK.json `run_seconds`).
inline constexpr int kRunSeconds = 25;

/// Where a metric is reported.
enum class MetricKind {
  /// Untraced runs; listed in BENCHMARK.json `end_to_end` with its bound.
  kEndToEnd,
  /// Traced runs; listed in BENCHMARK.json `per_layer`.
  kPerLayer,
  /// Only with `run --slo`; not part of the benchmark's contract.
  kSloSearch,
};

/// A metric the benchmark reports. `bound` (end-to-end metrics only) is the
/// share of the parent's median by which the metric may worsen before a
/// change counts as a regression.
struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
  MetricKind kind;
  double bound = 0;
};

const std::vector<WorkloadConfig>& Workloads();
const WorkloadConfig* FindWorkload(std::string_view name);

const std::vector<MetricDef>& Metrics();
/// nullptr when unknown.
const MetricDef* FindMetric(std::string_view name);

/// The repository's BENCHMARK.json, generated from the tables above so the
/// manifest and the program cannot disagree.
std::string ManifestJson();

}  // namespace blitz::bench

#endif  // BLITZBENCH_MANIFEST_H_
