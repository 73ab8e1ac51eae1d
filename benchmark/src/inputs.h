#ifndef BLITZBENCH_INPUTS_H_
#define BLITZBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "manifest.h"

namespace blitz::bench {

/// One request of a workload's stream: which body to send and as which
/// tenant.
struct Request {
  std::uint32_t body = 0;
  std::uint8_t tenant = 0;
};

/// A workload's seeded inputs: the .bjq bodies it sends and the order it
/// sends them in. Everything is a pure function of (workload, seed) and of
/// the position in the stream, so the timed run, the traced run and the
/// verifier all see the same requests. The program under test only ever
/// receives the generated bodies.
///
/// Every problem is an Appendix-grid case of the workload fuzzer
/// (testing/fuzzer.h) whose cardinalities are jittered by up to 1%: two
/// generated problems never coincide by accident, and no relation is
/// interchangeable with another, so the serving fingerprint is exact.
/// Relation count, cost model, estimator and topology are stratified — a
/// fixed function of a problem's position — and only the grid point within
/// the stratum is seeded, so every seed offers the same mix of work.
class Inputs {
 public:
  Inputs(const WorkloadConfig& config, std::uint64_t seed);

  const std::string& body(std::uint32_t index) const { return bodies_[index]; }
  std::size_t num_bodies() const { return bodies_.size(); }

  /// Bodies set-up sends closed loop before anything is timed.
  const std::vector<std::uint32_t>& warmup() const { return warmup_; }

  /// Requests [first, first + count) of the stream, generating their bodies
  /// on first use.
  std::vector<Request> Requests(std::uint64_t first, std::uint64_t count);

  const std::string& tenant(int index) const { return tenants_[index]; }

  /// The correctness check's seeded 1-in-16 sample of bodies.
  bool Sampled(std::uint32_t body) const;

  /// Requests per block of the stream that holds every stratum once
  /// (cold-mixed, embed-parallel); 1 where each request is an independent
  /// draw. A measurement window spans whole blocks, so windows hold the
  /// same mix of work.
  std::size_t mix_block() const;

 private:
  enum class Kind { kCold, kHot, kChurn, kEmbed };

  Request MakeRequest(std::uint64_t index);
  void EnsureBody(std::uint32_t index);
  std::uint64_t ProblemSeed(std::uint32_t body) const;

  const std::uint64_t seed_;
  Kind kind_;
  std::vector<std::string> bodies_;  ///< Empty until generated.
  std::vector<std::uint32_t> warmup_;
  std::vector<std::string> tenants_;
  std::vector<double> zipf_cdf_;  ///< Over bodies, most popular first.
  std::vector<std::uint32_t> call_order_;
};

}  // namespace blitz::bench

#endif  // BLITZBENCH_INPUTS_H_
