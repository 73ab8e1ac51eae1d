#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <numeric>

#include "benchlib/bench_json.h"
#include "common/strings.h"
#include "manifest.h"

namespace blitz::bench {
namespace {

constexpr char kResultsFile[] = "results.json";

/// (workload/metric) -> values in run order, with the unit.
struct Series {
  std::string unit;
  std::vector<double> values;
};

/// Reads dir/results.json, whose point keys are "<workload>/<metric>#<run>".
Result<std::map<std::string, Series>> ReadResults(const std::string& dir) {
  Result<BenchReport> report =
      ReadBenchJsonFile((std::filesystem::path(dir) / kResultsFile).string());
  if (!report.ok()) return report.status();
  std::map<std::string, Series> out;
  for (const BenchPoint& point : report->points) {
    const std::string key = point.key.substr(0, point.key.rfind('#'));
    out[key].unit = point.unit;
    out[key].values.push_back(point.value);
  }
  return out;
}

/// The metric part of "<workload>/<metric>".
std::string MetricOf(const std::string& key) {
  return key.substr(key.find('/') + 1);
}

}  // namespace

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Quartiles ExclusiveQuartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return {};
  if (n == 1) return {values[0], values[0], values[0]};
  double q[3];
  const std::size_t m = n + 1;
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * j;
    q[i - 1] = (values[j - 1] * (4 - delta) + values[j] * delta) / 4;
  }
  return {q[0], q[1], q[2]};
}

int Summarize(const std::string& dir) {
  // Run reports are named <workload>[-trace]-s<seed>.json; each series is
  // kept in seed order, so two directories run over the same seeds pair up
  // run by run.
  std::vector<std::pair<std::string, unsigned long long>> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    const std::size_t s = name.rfind("-s");
    if (s == std::string::npos || entry.path().extension() != ".json" ||
        name.find(".trace.") != std::string::npos) {
      continue;
    }
    files.emplace_back(entry.path().string(),
                       std::strtoull(name.c_str() + s + 2, nullptr, 10));
  }
  std::sort(files.begin(), files.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second < b.second : a.first < b.first;
  });
  BenchReport merged;
  merged.bench = "blitzbench";
  std::map<std::string, Series> series;
  std::map<std::string, int> runs;
  for (const auto& [file, seed] : files) {
    Result<BenchReport> report = ReadBenchJsonFile(file);
    if (!report.ok()) {
      std::fprintf(stderr, "%s: %s\n", file.c_str(),
                   report.status().ToString().c_str());
      return 1;
    }
    for (const BenchPoint& point : report->points) {
      const int run = runs[point.key]++;
      merged.AddPoint(StrFormat("%s#%d", point.key.c_str(), run), point.value,
                      point.unit);
      series[point.key].unit = point.unit;
      series[point.key].values.push_back(point.value);
    }
  }
  const Status written = WriteBenchJsonFile(
      merged, (std::filesystem::path(dir) / kResultsFile).string());
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("%-44s %5s %14s %14s %14s %8s\n", "workload/metric", "runs",
              "median", "q1", "q3", "iqr/med");
  for (const auto& [key, s] : series) {
    const Quartiles q = ExclusiveQuartiles(s.values);
    std::printf("%-44s %5zu %14.6g %14.6g %14.6g %8.4f  %s\n", key.c_str(),
                s.values.size(), q.median, q.q1, q.q3,
                q.median != 0 ? (q.q3 - q.q1) / std::fabs(q.median) : 0.0,
                s.unit.c_str());
  }
  std::printf("wrote %s\n",
              (std::filesystem::path(dir) / kResultsFile).c_str());
  return 0;
}

int Compare(const std::string& parent_dir, const std::string& change_dir) {
  Result<std::map<std::string, Series>> parent = ReadResults(parent_dir);
  Result<std::map<std::string, Series>> change = ReadResults(change_dir);
  if (!parent.ok() || !change.ok()) {
    std::fprintf(stderr, "compare: %s\n",
                 (!parent.ok() ? parent : change).status().ToString().c_str());
    return 2;
  }
  constexpr std::size_t kMinPairs = 10;
  bool regressed = false;
  std::printf("%-44s %12s %12s %12s %7s  %s\n", "workload/metric",
              "parent_med", "parent_iqr", "change_med", "wins", "verdict");
  for (const auto& [key, p] : *parent) {
    const auto c_it = change->find(key);
    const MetricDef* def = FindMetric(MetricOf(key));
    if (c_it == change->end() || def == nullptr) continue;
    const Series& c = c_it->second;
    const std::size_t pairs = std::min(p.values.size(), c.values.size());
    const auto better = [def](double a, double b) {
      return def->higher_is_better ? a > b : a < b;
    };
    std::size_t wins = 0, losses = 0;
    for (std::size_t k = 0; k < pairs; ++k) {
      if (better(c.values[k], p.values[k])) ++wins;
      if (better(p.values[k], c.values[k])) ++losses;
    }
    const Quartiles qp = ExclusiveQuartiles(p.values);
    const Quartiles qc = ExclusiveQuartiles(c.values);
    const double iqr = qp.q3 - qp.q1;
    const double diff = std::fabs(qc.median - qp.median);
    const bool change_better = better(qc.median, qp.median);
    // How much worse the change's median is, as a share of the parent's.
    const double worse =
        qp.median == 0 ? 0
                       : (def->higher_is_better ? qp.median - qc.median
                                                : qc.median - qp.median) /
                             std::fabs(qp.median);
    const bool separated =
        def->higher_is_better
            ? *std::min_element(c.values.begin(), c.values.end()) >
                  *std::max_element(p.values.begin(), p.values.end())
            : *std::max_element(c.values.begin(), c.values.end()) <
                  *std::min_element(p.values.begin(), p.values.end());
    const bool clear_win = diff > iqr && wins * 10 >= pairs * 9 &&
                           change_better;
    const bool clear_loss = diff > iqr && losses * 10 >= pairs * 9 &&
                            !change_better;
    const double spread = qp.median == 0 ? 0 : iqr / std::fabs(qp.median);
    std::string verdict;
    if (pairs < kMinPairs) {
      verdict = StrFormat("unresolved (%zu < %zu pairs)", pairs, kMinPairs);
    } else if (def->kind != MetricKind::kEndToEnd) {
      // No bound: report only what the pairs rule shows.
      verdict = clear_win ? "gain" : clear_loss ? "loss" : "no change";
    } else if (spread > def->bound && !separated) {
      verdict = StrFormat("unresolved (spread %.3f > bound %.3f)", spread,
                          def->bound);
    } else if (worse > def->bound) {
      verdict = StrFormat("REGRESSION (%.1f%% > %.1f%%)", 100 * worse,
                          100 * def->bound);
      regressed = true;
    } else {
      verdict = clear_win ? "gain" : "no change";
    }
    std::printf("%-44s %12.6g %12.6g %12.6g %3zu/%-3zu  %s\n", key.c_str(),
                qp.median, iqr, qc.median, wins, pairs, verdict.c_str());
  }
  return regressed ? 1 : 0;
}

}  // namespace blitz::bench
