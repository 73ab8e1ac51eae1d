#include "replay.h"

#include <chrono>
#include <optional>
#include <utility>

#include "api/optimize_query.h"
#include "card/no_estimate.h"
#include "card/paper_fanout.h"
#include "common/check.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serve/plancache.h"
#include "serve/wire.h"
#include "stats.h"
#include "verify.h"

namespace blitz::bench {
namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Records spans only when tracing.
class SpanRecorder {
 public:
  SpanRecorder(std::vector<Span>* spans, bool enabled)
      : spans_(enabled ? spans : nullptr) {}

  int Open(const char* layer, std::uint64_t request, int parent) {
    if (spans_ == nullptr) return -1;
    spans_->push_back(Span{layer, request, parent, NowNs(), 0});
    return static_cast<int>(spans_->size()) - 1;
  }
  void Close(int span) {
    if (span >= 0) (*spans_)[span].end_ns = NowNs();
  }
  /// A child span of known duration placed at `start_ns`; returns its end.
  std::int64_t Add(const char* layer, std::uint64_t request, int parent,
                   std::int64_t start_ns, double seconds) {
    const std::int64_t end =
        start_ns + static_cast<std::int64_t>(seconds * 1e9);
    if (spans_ != nullptr) {
      spans_->push_back(Span{layer, request, parent, start_ns, end});
    }
    return end;
  }

 private:
  std::vector<Span>* spans_;
};

double MicrosSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e3;
}

}  // namespace

LayerReplay::LayerReplay(const Inputs& inputs, bool traced)
    : inputs_(inputs),
      traced_(traced),
      cache_(PlanCache::Options{}),
      arena_(DpTableArena::Options{}),
      request_assembler_(WireLimits{}),
      reply_assembler_(WireLimits{}) {}

void LayerReplay::Step(std::uint64_t i, const Request& request) {
  ReplayResult& out = result_;
  SpanRecorder rec(&out.spans, traced_);
  const std::int64_t step_start = NowNs();
  const int root = rec.Open("request", i, -1);

  int span = rec.Open("serve.wire.encode", i, root);
  const std::string request_bytes = EncodeRequestFrame(RequestFrame{
      inputs_.tenant(request.tenant), i + 1, 0, inputs_.body(request.body)});
  rec.Close(span);

  span = rec.Open("serve.wire.assemble", i, root);
  std::vector<RequestFrame> frames;
  const Status fed = request_assembler_.Feed(request_bytes, &frames);
  rec.Close(span);
  BLITZ_CHECK(fed.ok() && frames.size() == 1);

  span = rec.Open("textio.parse", i, root);
  Result<std::unique_ptr<ServedProblem>> problem =
      PrepareProblem(frames[0].body);
  rec.Close(span);
  BLITZ_CHECK(problem.ok());
  const QuerySpec& spec = (*problem)->spec;
  QueryOptimizerOptions options = (*problem)->Options();

  span = rec.Open("serve.plancache.fingerprint", i, root);
  const PlanFingerprint fp = ComputePlanFingerprint(
      spec.catalog, spec.graph, options, kServingFingerprintBudget);
  rec.Close(span);

  span = rec.Open("serve.plancache.lookup", i, root);
  std::optional<OptimizedQuery> result = cache_.Lookup(fp);
  rec.Close(span);

  const bool miss = !result.has_value();
  if (miss) {
    options.table_arena = &arena_;
    options.collect_report = true;  // As the server's workers run it.
    options.count_operations = traced_;
    span = rec.Open("api.optimize", i, root);
    Result<OptimizedQuery> fresh =
        OptimizeQuery(spec.catalog, spec.graph, options);
    rec.Close(span);
    BLITZ_CHECK(fresh.ok());
    if (traced_) {
      // The report's phase times become child spans, in call order.
      const OptimizeReport& report = *fresh->report;
      std::int64_t at = out.spans[span].start_ns;
      at = rec.Add("core.dp", i, span, at, report.optimize_seconds);
      at = rec.Add("plan.extract", i, span, at, report.extract_seconds);
      at = rec.Add("plan.evaluate", i, span, at, report.evaluate_seconds);
      rec.Add("plan.attach", i, span, at, report.attach_seconds);
      out.passes.push_back(fresh->passes);
      if (fresh->exact()) {
        out.dp_ms_by_model[CostModelKindToString(spec.cost_model)].push_back(
            report.optimize_seconds * 1e3);
      }
      out.loop_iterations.push_back(
          static_cast<double>(report.counters.loop_iterations));
      out.kappa2_evaluations.push_back(
          static_cast<double>(report.counters.kappa2_evaluations));
      out.extract_us.push_back(report.extract_seconds * 1e6);
      out.evaluate_us.push_back(report.evaluate_seconds * 1e6);
      out.attach_us.push_back(report.attach_seconds * 1e6);
    }
    span = rec.Open("serve.plancache.insert", i, root);
    cache_.Insert(fp, *fresh);
    rec.Close(span);
    result = std::move(*fresh);
    if (optimized_.insert(request.body).second) {
      out.optimized_bodies.push_back(request.body);
    }
  }

  span = rec.Open("serve.wire.reply_encode", i, root);
  ServeReply reply;
  reply.plan = result->plan.ToString(&spec.catalog);
  reply.cost = result->cost;
  reply.tier = OptimizerTierName(result->tier);
  reply.passes = result->passes;
  reply.degradations =
      result->report.has_value()
          ? static_cast<int>(result->report->degradations.size())
          : 0;
  reply.estimator = EstimatorKindName(result->report.has_value()
                                          ? result->report->estimator
                                          : (*problem)->estimator);
  reply.cached = result->from_cache;
  const std::string reply_bytes = EncodeResponseFrame(
      ResponseFrame{i + 1, StatusCode::kOk, 0, EncodeReplyBody(reply)});
  rec.Close(span);

  span = rec.Open("serve.wire.reply_parse", i, root);
  std::vector<ResponseFrame> replies;
  const Status reply_fed = reply_assembler_.Feed(reply_bytes, &replies);
  const bool reply_ok = reply_fed.ok() && replies.size() == 1 &&
                        ParseReplyBody(replies[0].body).ok();
  rec.Close(span);
  BLITZ_CHECK(reply_ok);
  rec.Close(root);
  out.wall_s += static_cast<double>(NowNs() - step_start) / 1e9;

  if (traced_ && miss) {
    // Side measurements, outside every request span and the wall time.
    std::vector<double> cards;
    std::int64_t t = NowNs();
    PaperFanoutEstimator(spec.catalog, spec.graph).EstimateAll(&cards);
    out.estimate_all_us["paper"].push_back(MicrosSince(t));
    t = NowNs();
    NoEstimateEstimator(spec.graph).EstimateAll(&cards);
    out.estimate_all_us["noest"].push_back(MicrosSince(t));
    if (optimized_calls_++ % 4 == 0) {
      QueryOptimizerOptions profiled = options;
      profiled.count_operations = false;
      profiled.collect_profile = true;
      Result<OptimizedQuery> again =
          OptimizeQuery(spec.catalog, spec.graph, profiled);
      BLITZ_CHECK(again.ok());
      if (again->report->profile.has_value()) {
        out.profile += *again->report->profile;
      }
    }
  }
}

std::map<std::string, double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<std::int64_t> covered(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) covered[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[spans[i].layer] +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns - covered[i]) /
        1e3;
  }
  return self;
}

Status WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  TraceRecorder recorder;
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::vector<int> depth(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0) depth[i] = depth[s.parent] + 1;
    const std::string layer = s.layer;
    TraceEvent event;
    event.name = layer;
    event.category = layer.substr(0, layer.find('.'));
    event.start_us = static_cast<double>(s.start_ns - origin) / 1e3;
    event.duration_us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    event.depth = depth[i];
    event.args = {{"request", static_cast<double>(s.request)},
                  {"span", static_cast<double>(i)},
                  {"parent", static_cast<double>(s.parent)}};
    recorder.Record(std::move(event));
  }
  return WriteChromeTraceFile(recorder, path);
}

ParallelResult MeasureParallel(const Inputs& inputs,
                               const std::vector<std::uint32_t>& bodies,
                               int threads) {
  std::vector<double> parallel_ms;
  double sequential_total = 0;
  double parallel_total = 0;
  for (std::uint32_t body : bodies) {
    Result<std::unique_ptr<ServedProblem>> problem =
        PrepareProblem(inputs.body(body));
    BLITZ_CHECK(problem.ok());
    QueryOptimizerOptions options = (*problem)->Options();
    double ms[2] = {0, 0};
    for (int leg = 0; leg < 2; ++leg) {
      options.parallel.num_threads = leg == 0 ? 1 : threads;
      const std::int64_t start = NowNs();
      BLITZ_CHECK(OptimizeQuery((*problem)->spec.catalog,
                                (*problem)->spec.graph, options)
                      .ok());
      ms[leg] = static_cast<double>(NowNs() - start) / 1e6;
    }
    sequential_total += ms[0];
    parallel_total += ms[1];
    parallel_ms.push_back(ms[1]);
  }
  ParallelResult result;
  result.parallel_ms_p50 = Percentile(parallel_ms, 50);
  result.efficiency =
      parallel_total > 0 ? sequential_total / (threads * parallel_total) : 0;
  return result;
}

}  // namespace blitz::bench
