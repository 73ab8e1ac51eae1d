#ifndef BLITZBENCH_REPLAY_H_
#define BLITZBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/table_arena.h"
#include "inputs.h"
#include "obs/profiler/phase_profile.h"
#include "serve/plancache.h"
#include "serve/wire.h"

namespace blitz::bench {

/// One layer span of the traced replay. Spans of a request share `request`;
/// `parent` is the index of the enclosing span (-1 for the request span).
struct Span {
  const char* layer = "";
  std::uint64_t request = 0;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// What a layer-by-layer replay measured.
struct ReplayResult {
  /// Wall time of the replayed requests, side measurements excluded.
  double wall_s = 0;
  /// Traced replays only: every span, in request order.
  std::vector<Span> spans;
  /// Traced replays only: per OptimizeQuery call (cache misses).
  std::vector<double> passes;
  std::map<std::string, std::vector<double>> dp_ms_by_model;
  std::vector<double> loop_iterations;
  std::vector<double> kappa2_evaluations;
  std::vector<double> extract_us, evaluate_us, attach_us;
  /// Side measurements on the optimized requests' graphs: EstimateAll of
  /// each estimator, and the library's own DP phase attribution
  /// (collect_profile) on every fourth optimized request.
  std::map<std::string, std::vector<double>> estimate_all_us;
  PassProfile profile;
  /// Distinct bodies the replay optimized, in order.
  std::vector<std::uint32_t> optimized_bodies;
};

/// Replays requests one at a time in the server's order — encode,
/// assemble, ParseBjq, ComputePlanFingerprint, PlanCache::Lookup, on a miss
/// OptimizeQuery and Insert, reply encode, reply parse — against its own
/// cache and arena. A traced replay records a span per layer and turns on
/// operation counting; an untraced one runs the server's own options and
/// records nothing.
class LayerReplay {
 public:
  LayerReplay(const Inputs& inputs, bool traced);

  /// Runs request `index` of the sequence through every layer.
  void Step(std::uint64_t index, const Request& request);

  const ReplayResult& result() const { return result_; }

 private:
  const Inputs& inputs_;
  const bool traced_;
  ReplayResult result_;
  PlanCache cache_;
  DpTableArena arena_;
  RequestFrameAssembler request_assembler_;
  ResponseFrameAssembler reply_assembler_;
  std::unordered_set<std::uint32_t> optimized_;
  int optimized_calls_ = 0;
};

/// Self time per layer: each span's duration minus what its child spans
/// cover, summed by layer, in microseconds.
std::map<std::string, double> SelfTimesUs(const std::vector<Span>& spans);

/// Writes the spans as Chrome traceEvents JSON (request id, span index and
/// parent index ride along as args).
Status WriteSpans(const std::vector<Span>& spans, const std::string& path);

/// Sequential against rank-parallel OptimizeQuery on the same bodies.
struct ParallelResult {
  double parallel_ms_p50 = 0;
  /// Sequential time / (threads x parallel time), summed over the bodies.
  double efficiency = 0;
};
ParallelResult MeasureParallel(const Inputs& inputs,
                               const std::vector<std::uint32_t>& bodies,
                               int threads);

}  // namespace blitz::bench

#endif  // BLITZBENCH_REPLAY_H_
