#include "verify.h"

#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/strings.h"
#include "plan/evaluate.h"
#include "plan/serialize.h"

namespace blitz::bench {
namespace {

bool RelativelyEqual(double a, double b, double tolerance = 1e-9) {
  return std::fabs(a - b) <= tolerance * std::max(std::fabs(a), std::fabs(b));
}

/// The DP ranks plans in single precision, and the rounding of its sums
/// depends on relation order. A cache hit answers with the plan chosen
/// under the *inserting* request's labels, which may be a different plan
/// whose cost ties the requester's optimum only to float precision.
constexpr double kRelabeledHitTolerance = 1e-6;

/// The reply's infix plan "((A x B) x C)" in ParsePlan's s-expression form.
std::string InfixToSexpr(std::string_view plan) {
  std::string out;
  for (std::size_t at = 0; at < plan.size();) {
    if (plan.substr(at, 3) == " x ") {
      out += ' ';
      at += 3;
    } else {
      out += plan[at++];
    }
  }
  return out;
}

/// Why `reply` is wrong for `problem`, or "" when it checks out.
std::string CheckReply(const ServedProblem& problem, const ServeReply& reply) {
  const QuerySpec& spec = problem.spec;
  Result<Plan> plan = ParsePlan(InfixToSexpr(reply.plan), &spec.catalog);
  if (!plan.ok()) return "unparsable plan: " + plan.status().ToString();
  if (plan->relations() != spec.catalog.AllRelations()) {
    return "plan does not cover every relation exactly once";
  }
  const double cost =
      EvaluateCost(*plan, spec.catalog, spec.graph, spec.cost_model);
  if (!RelativelyEqual(cost, reply.cost)) {
    return StrFormat("reply cost %.17g but the plan costs %.17g", reply.cost,
                     cost);
  }
  return "";
}

}  // namespace

QueryOptimizerOptions ServedProblem::Options() const {
  QueryOptimizerOptions options;
  options.cost_model = spec.cost_model;
  options.initial_cost_threshold = spec.threshold;
  options.estimator = noest.has_value() ? &*noest : nullptr;
  return options;
}

Result<std::unique_ptr<ServedProblem>> PrepareProblem(std::string_view body) {
  Result<QuerySpec> parsed = ParseBjq(body, BjqLimits{});
  if (!parsed.ok()) return parsed.status();
  auto problem = std::make_unique<ServedProblem>();
  problem->spec = std::move(*parsed);
  problem->estimator =
      problem->spec.estimator.value_or(EstimatorKind::kPaperFanout);
  if (problem->estimator == EstimatorKind::kNoEstimate) {
    problem->noest.emplace(problem->spec.graph);
  }
  return problem;
}

VerifyResult VerifyReplies(const Inputs& inputs, const ReplyLog& log,
                           bool sample_all) {
  VerifyResult result;
  std::unordered_map<std::uint32_t, std::unique_ptr<ServedProblem>> problems;
  std::unordered_map<std::uint32_t, double> optimum;
  const auto fail = [&](std::uint32_t body, const std::string& why) {
    ++result.wrong;
    std::fprintf(stderr, "wrong answer: %s\n--- request body ---\n%s---\n",
                 why.c_str(), inputs.body(body).c_str());
  };
  for (const auto& [body, text] : log.Entries()) {
    std::unique_ptr<ServedProblem>& problem = problems[body];
    if (problem == nullptr) {
      Result<std::unique_ptr<ServedProblem>> prepared =
          PrepareProblem(inputs.body(body));
      if (!prepared.ok()) {
        fail(body, "unparsable request: " + prepared.status().ToString());
        continue;
      }
      problem = std::move(*prepared);
    }
    Result<ServeReply> reply = ParseReplyBody(text);
    ++result.replies_checked;
    if (!reply.ok()) {
      fail(body, "unparsable reply: " + reply.status().ToString());
      continue;
    }
    if (const std::string why = CheckReply(*problem, *reply); !why.empty()) {
      fail(body, why);
      continue;
    }
    if (reply->tier != "exhaustive" || !(sample_all || inputs.Sampled(body))) {
      continue;
    }
    auto [it, fresh] = optimum.try_emplace(body, 0.0);
    if (fresh) {
      Result<OptimizedQuery> optimized = OptimizeQuery(
          problem->spec.catalog, problem->spec.graph, problem->Options());
      if (!optimized.ok()) {
        fail(body, "in-process OptimizeQuery failed: " +
                       optimized.status().ToString());
        continue;
      }
      it->second = optimized->cost;
    }
    ++result.optimum_checked;
    if (!RelativelyEqual(it->second, reply->cost,
                         reply->cached ? kRelabeledHitTolerance : 1e-9)) {
      fail(body, StrFormat("reply cost %.17g but the optimum is %.17g%s",
                           reply->cost, it->second,
                           reply->cached ? " (cache hit)" : ""));
    }
  }
  return result;
}

CacheReplay ReplayCache(const Inputs& inputs,
                        const std::vector<std::uint32_t>& warmup,
                        const std::vector<Request>& requests) {
  PlanCache cache{PlanCache::Options{}};
  std::unordered_map<std::uint32_t, PlanFingerprint> fingerprints;
  CacheReplay replay;
  const auto serve = [&](std::uint32_t body, bool counted) {
    auto [it, fresh] = fingerprints.try_emplace(body);
    if (fresh) {
      Result<std::unique_ptr<ServedProblem>> problem =
          PrepareProblem(inputs.body(body));
      BLITZ_CHECK(problem.ok());
      it->second = ComputePlanFingerprint(
          (*problem)->spec.catalog, (*problem)->spec.graph,
          (*problem)->Options(), kServingFingerprintBudget);
    }
    const PlanFingerprint& fp = it->second;
    if (counted) {
      ++replay.requests;
      if (fp.exact_canonical) ++replay.exact_canonical;
    }
    if (cache.Lookup(fp).has_value()) {
      if (counted) ++replay.hits;
      return;
    }
    OptimizedQuery placeholder;
    placeholder.plan = Plan::Leaf(0);
    for (int i = 1; i < static_cast<int>(fp.to_canonical.size()); ++i) {
      placeholder.plan =
          Plan::Join(std::move(placeholder.plan), Plan::Leaf(i));
    }
    cache.Insert(fp, placeholder);
  };
  for (std::uint32_t body : warmup) serve(body, false);
  const std::uint64_t evictions_before = cache.GetStats().evictions;
  for (const Request& request : requests) serve(request.body, true);
  replay.evictions = cache.GetStats().evictions - evictions_before;
  return replay;
}

}  // namespace blitz::bench
