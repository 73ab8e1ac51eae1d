#include "manifest.h"

#include "common/strings.h"

namespace blitz::bench {

const std::vector<WorkloadConfig>& Workloads() {
  static const std::vector<WorkloadConfig> kWorkloads = {
      {"cold-mixed",
       "distinct n=11-15 queries on three cost models, so the plan cache "
       "never hits and the blitzsplit DP dominates service time",
       /*serving=*/true, /*rate_rps=*/80, /*slo_p99_ms=*/250,
       /*ladder_start_rung=*/6, /*replay_requests=*/200},
      {"hot-isomorph",
       "fresh relabelings of 256 cached base queries, so every request hits "
       "the cache: wire, parse, fingerprint and relabel costs",
       true, 3000, 5, 9, 2000},
      {"churn-noest",
       "Zipf working set of 16k queries, 4x the cache, half with estimator "
       "noest and four tenants: inserts and evictions beside hits",
       true, 6000, 50, 7, 2000},
      {"embed-parallel",
       "one caller of OptimizeQuery on n=14-16 with rank-parallel threads "
       "and no server: the parallel DP and SIMD paths",
       false, 20, 0, 0, 36},
  };
  return kWorkloads;
}

const WorkloadConfig* FindWorkload(std::string_view name) {
  for (const WorkloadConfig& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const std::vector<MetricDef>& Metrics() {
  constexpr MetricKind kE2e = MetricKind::kEndToEnd;
  constexpr MetricKind kLayer = MetricKind::kPerLayer;
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s", false, kE2e, 0.25},
      {"latency_p50_ms", "ms", false, kE2e, 0.25},
      {"latency_p99_ms", "ms", false, kE2e, 0.25},
      {"throughput_rps", "1/s", true, kE2e, 0.25},
      {"cpu_ms_per_req", "ms", false, kE2e, 0.25},
      {"peak_rss_mb", "MB", false, kE2e, 0.10},
      {"slo_rps", "1/s", true, MetricKind::kSloSearch},
      {"serve.wire.encode_us_p50", "us", false, kLayer},
      {"serve.wire.assemble_us_p50", "us", false, kLayer},
      {"serve.wire.reply_parse_us_p50", "us", false, kLayer},
      {"textio.parse_us_p50", "us", false, kLayer},
      {"textio.parse_us_p99", "us", false, kLayer},
      {"serve.plancache.fingerprint_us_p50", "us", false, kLayer},
      {"serve.plancache.fingerprint_us_p99", "us", false, kLayer},
      {"serve.plancache.exact_canonical_frac", "frac", true, kLayer},
      {"serve.plancache.lookup_us_p50", "us", false, kLayer},
      {"serve.plancache.hit_ratio", "frac", true, kLayer},
      {"serve.plancache.insert_us_p50", "us", false, kLayer},
      {"serve.plancache.evictions_per_req", "1/req", false, kLayer},
      {"serve.server.inproc_latency_ms_p50", "ms", false, kLayer},
      {"serve.server.inproc_latency_ms_p99", "ms", false, kLayer},
      {"serve.server.queue_depth_mean", "count", false, kLayer},
      {"serve.server.shed_frac", "frac", false, kLayer},
      {"serve.transport_ms_p50", "ms", false, kLayer},
      {"api.optimize_ms_p50", "ms", false, kLayer},
      {"api.optimize_ms_p99", "ms", false, kLayer},
      {"api.passes_mean", "count", false, kLayer},
      {"core.dp_ms_p50.naive", "ms", false, kLayer},
      {"core.dp_ms_p50.sm", "ms", false, kLayer},
      {"core.dp_ms_p50.dnl", "ms", false, kLayer},
      {"core.loop_iterations_mean", "count", false, kLayer},
      {"core.kappa2_evaluations_mean", "count", false, kLayer},
      {"core.phase_frac.gate_filter", "frac", false, kLayer},
      {"core.phase_frac.survivor_replay", "frac", false, kLayer},
      {"core.phase_frac.kappa2", "frac", false, kLayer},
      {"core.phase_frac.table_write", "frac", false, kLayer},
      {"core.phase_frac.driver", "frac", false, kLayer},
      {"card.estimate_all_us_p50.paper", "us", false, kLayer},
      {"card.estimate_all_us_p50.noest", "us", false, kLayer},
      {"plan.extract_us_p50", "us", false, kLayer},
      {"plan.evaluate_us_p50", "us", false, kLayer},
      {"plan.attach_us_p50", "us", false, kLayer},
      {"parallel.dp_ms_p50", "ms", false, kLayer},
      {"parallel.efficiency", "frac", true, kLayer},
      {"bench.trace_overhead", "ratio", false, kLayer},
  };
  return kMetrics;
}

const MetricDef* FindMetric(std::string_view name) {
  for (const MetricDef& m : Metrics()) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

std::string ManifestJson() {
  std::string out = "{\n";
  out += "  \"command\": [\"bash\", \"benchmark/run.sh\"],\n";
  out += "  \"paths\": [\"benchmark\"],\n";
  out += StrFormat("  \"run_seconds\": %d,\n", kRunSeconds);
  out += "  \"workloads\": [\n";
  for (std::size_t i = 0; i < Workloads().size(); ++i) {
    const WorkloadConfig& w = Workloads()[i];
    out += StrFormat("    {\"name\": \"%s\", \"why\": \"%s\"}%s\n", w.name,
                     w.why, i + 1 < Workloads().size() ? "," : "");
  }
  out += "  ],\n";
  const auto metric_list = [&out](const char* key, MetricKind kind) {
    out += StrFormat("  \"%s\": [\n", key);
    std::string sep;
    for (const MetricDef& m : Metrics()) {
      if (m.kind != kind) continue;
      out += StrFormat("%s    {\"name\": \"%s\", \"unit\": \"%s\", "
                       "\"better\": \"%s\"",
                       sep.c_str(), m.name, m.unit,
                       m.higher_is_better ? "higher" : "lower");
      if (kind == MetricKind::kEndToEnd) {
        out += StrFormat(", \"bound\": %g", m.bound);
      }
      out += "}";
      sep = ",\n";
    }
    out += "\n  ]";
  };
  metric_list("end_to_end", MetricKind::kEndToEnd);
  out += ",\n";
  metric_list("per_layer", MetricKind::kPerLayer);
  out += "\n";
  out += "}\n";
  return out;
}

}  // namespace blitz::bench
