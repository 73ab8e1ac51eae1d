#ifndef BLITZBENCH_STATS_H_
#define BLITZBENCH_STATS_H_

#include <string>
#include <vector>

namespace blitz::bench {

/// Nearest-rank percentile (pct in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double pct);
double Mean(const std::vector<double>& values);

/// Quartiles by the "exclusive" method of Python's statistics.quantiles,
/// the method the benchmark's spread rule is stated in.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};
Quartiles ExclusiveQuartiles(std::vector<double> values);

/// Merges the per-run reports in `dir` into dir/results.json and prints
/// each (workload, metric)'s median and quartiles. Returns an exit code.
int Summarize(const std::string& dir);

/// Compares two summarized directories run by run (pair k = the k-th seed
/// of each side) by the choosing-metrics rules: a gain needs >= 10 pairs, the
/// change winning >= 9/10 of them and a median difference beyond the
/// parent's interquartile range; an end-to-end metric regresses when the
/// change's median is worse than the parent's by more than its bound, and
/// is unresolved when the parent's own spread exceeds the bound. Returns 1
/// if any row regressed.
int Compare(const std::string& parent_dir, const std::string& change_dir);

}  // namespace blitz::bench

#endif  // BLITZBENCH_STATS_H_
