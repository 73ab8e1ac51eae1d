#ifndef BLITZBENCH_VERIFY_H_
#define BLITZBENCH_VERIFY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/optimize_query.h"
#include "card/no_estimate.h"
#include "inputs.h"
#include "loadgen.h"
#include "serve/plancache.h"
#include "textio/bjq.h"

namespace blitz::bench {

/// Mirrors kServingFingerprintBudget in serve/server.cc. The cache
/// cross-check (statz hit ratio against the replayed one) fails when the
/// two drift apart.
inline constexpr int kServingFingerprintBudget = 16;

/// A request body prepared the way BlitzServer prepares it: parsed, with
/// the estimator it asks for and the optimizer options the server would
/// run it under. Not movable: the estimator borrows `spec.graph`.
struct ServedProblem {
  QuerySpec spec;
  EstimatorKind estimator = EstimatorKind::kPaperFanout;
  std::optional<NoEstimateEstimator> noest;

  ServedProblem() = default;
  ServedProblem(const ServedProblem&) = delete;
  ServedProblem& operator=(const ServedProblem&) = delete;

  /// The server's per-request options (cost model, threshold, estimator).
  QueryOptimizerOptions Options() const;
};

Result<std::unique_ptr<ServedProblem>> PrepareProblem(std::string_view body);

/// Outcome of the correctness checks.
struct VerifyResult {
  std::uint64_t replies_checked = 0;
  std::uint64_t optimum_checked = 0;
  std::uint64_t wrong = 0;
};

/// Checks every logged reply: its plan must parse against the requester's
/// catalog and cover every relation exactly once, and EvaluateCost must
/// equal the reply's cost within 1e-9 relative. For sampled bodies (all of
/// them when `sample_all`), an exhaustive-tier reply's cost must also equal
/// a fresh in-process OptimizeQuery optimum within 1e-9 — within 1e-6 for
/// cache hits, whose plan was chosen under another relabeling of the same
/// problem by a single-precision DP. Each mismatch is printed with its body
/// to stderr.
VerifyResult VerifyReplies(const Inputs& inputs, const ReplyLog& log,
                           bool sample_all);

/// Hits, misses and evictions of a single-threaded replay of `warmup` then
/// `requests` through a PlanCache with blitzd's default bounds, keyed as
/// the server keys it. Stored plans are left-deep placeholders of the right
/// size: hits, misses and evictions do not depend on which plan is stored.
/// Counts cover `requests` only.
struct CacheReplay {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t evictions = 0;
  std::uint64_t exact_canonical = 0;
  double hit_ratio() const {
    return requests == 0 ? 0 : static_cast<double>(hits) / requests;
  }
};
CacheReplay ReplayCache(const Inputs& inputs,
                        const std::vector<std::uint32_t>& warmup,
                        const std::vector<Request>& requests);

}  // namespace blitz::bench

#endif  // BLITZBENCH_VERIFY_H_
