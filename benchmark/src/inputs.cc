#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"
#include "query/workload.h"
#include "testing/fuzzer.h"
#include "textio/bjq.h"

namespace blitz::bench {
namespace {

// Stream salts: each kind of randomness draws from its own DeriveSeed
// stream, so changing one never shifts another.
constexpr std::uint64_t kProblemStream = 1;
constexpr std::uint64_t kShapeStream = 2;
constexpr std::uint64_t kRequestStream = 3;
constexpr std::uint64_t kWarmupStream = 4;
constexpr std::uint64_t kSampleStream = 5;

constexpr CostModelKind kModels[] = {CostModelKind::kNaive,
                                     CostModelKind::kSortMerge,
                                     CostModelKind::kDiskNestedLoops};
constexpr fuzz::FuzzTopology kTopologies[] = {
    fuzz::FuzzTopology::kChain, fuzz::FuzzTopology::kStar,
    fuzz::FuzzTopology::kClique, fuzz::FuzzTopology::kRandom};
/// The fuzzer's random(p) grid.
constexpr double kEdgeProbs[] = {0.1, 0.25, 0.5, 0.75};

constexpr int kColdWarmup = 64;
constexpr int kColdStrata = 5 * 3 * 4;  ///< n 11-15 x models x topologies.
constexpr int kChurnWarmup = 64;
constexpr int kHotBases = 256;
constexpr int kHotPool = 8192;  ///< Distinct relabelings the stream cycles.
constexpr int kChurnQueries = 16384;
constexpr int kEmbedQueries = 3 * 3 * 2 * 4;  ///< One per stratum.
constexpr int kEmbedWarmup = 8;

/// What a problem's stratum fixes; the seed picks the rest (mean
/// cardinality, variability, random(p) edges, the 1% jitter).
struct Shape {
  int n = 2;
  CostModelKind model = CostModelKind::kNaive;
  bool noest = false;
  fuzz::FuzzTopology topology = fuzz::FuzzTopology::kChain;
};

/// Stratum `s` of relation counts [n_min, n_min + n_count) x cost models
/// (x paper/noest when `with_noest`) x topologies, cycling in that order.
Shape StratumShape(int n_min, int n_count, bool with_noest, std::uint64_t s) {
  Shape shape;
  shape.n = n_min + static_cast<int>(s % n_count);
  s /= n_count;
  shape.model = kModels[s % 3];
  s /= 3;
  if (with_noest) {
    shape.noest = s % 2 == 1;
    s /= 2;
  }
  shape.topology = kTopologies[s % 4];
  return shape;
}

/// An Appendix-grid case of the given shape (testing/fuzzer.h builds it),
/// cardinalities jittered.
QuerySpec MakeSpec(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  fuzz::FuzzCaseSpec spec;
  spec.seed = rng.Next();
  spec.num_relations = shape.n;
  spec.topology = shape.topology;
  if (shape.topology == fuzz::FuzzTopology::kRandom) {
    spec.extra_edge_prob = kEdgeProbs[rng.NextInt(0, 3)];
  }
  spec.mean_cardinality = MeanCardinalityGrid(10)[rng.NextInt(0, 9)];
  spec.variability = VariabilityGrid(5)[rng.NextInt(0, 4)];
  Result<fuzz::FuzzCase> made = fuzz::BuildCase(spec);
  BLITZ_CHECK(made.ok());
  std::vector<RelationStats> relations;
  for (int i = 0; i < shape.n; ++i) {
    RelationStats r = made->catalog.relation(i);
    r.cardinality *= 1.0 + 0.01 * rng.NextDouble();
    relations.push_back(std::move(r));
  }
  Result<Catalog> catalog = Catalog::Create(std::move(relations));
  BLITZ_CHECK(catalog.ok());
  QuerySpec out;
  out.catalog = std::move(*catalog);
  out.graph = std::move(made->graph);
  out.cost_model = shape.model;
  if (shape.noest) out.estimator = EstimatorKind::kNoEstimate;
  return out;
}

/// The same problem written differently: relations permuted and renamed,
/// predicate lines shuffled and randomly oriented.
std::string Relabel(const QuerySpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  const int n = spec.catalog.num_relations();
  std::vector<int> to_new(n);
  std::iota(to_new.begin(), to_new.end(), 0);
  for (int i = n - 1; i > 0; --i) std::swap(to_new[i], to_new[rng.NextInt(0, i)]);
  std::vector<RelationStats> relations(n);
  for (int i = 0; i < n; ++i) {
    RelationStats r = spec.catalog.relation(i);
    r.name = StrFormat("t%04x_%d", static_cast<unsigned>(rng.Next() & 0xffff),
                       to_new[i]);
    relations[to_new[i]] = std::move(r);
  }
  std::vector<Predicate> predicates = spec.graph.predicates();
  for (int i = static_cast<int>(predicates.size()) - 1; i > 0; --i) {
    std::swap(predicates[i], predicates[rng.NextInt(0, i)]);
  }
  QuerySpec out;
  Result<Catalog> catalog = Catalog::Create(std::move(relations));
  BLITZ_CHECK(catalog.ok());
  out.catalog = std::move(*catalog);
  out.graph = JoinGraph(n);
  for (const Predicate& p : predicates) {
    int a = to_new[p.lhs];
    int b = to_new[p.rhs];
    if (rng.NextBool(0.5)) std::swap(a, b);
    BLITZ_CHECK(out.graph.AddPredicate(a, b, p.selectivity).ok());
  }
  out.cost_model = spec.cost_model;
  out.estimator = spec.estimator;
  out.threshold = spec.threshold;
  return WriteBjq(out);
}

std::vector<double> ZipfCdf(int count, double exponent) {
  std::vector<double> cdf(count);
  double sum = 0;
  for (int k = 0; k < count; ++k) {
    sum += std::pow(static_cast<double>(k + 1), -exponent);
    cdf[k] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

int DrawZipf(const std::vector<double>& cdf, Rng* rng) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), rng->NextDouble());
  return static_cast<int>(
      std::min<std::ptrdiff_t>(it - cdf.begin(), cdf.size() - 1));
}

std::vector<std::uint32_t> Shuffled(int count, std::uint64_t seed) {
  std::vector<std::uint32_t> order(count);
  std::iota(order.begin(), order.end(), 0u);
  Rng rng(seed);
  for (int i = count - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextInt(0, i)]);
  }
  return order;
}

}  // namespace

Inputs::Inputs(const WorkloadConfig& config, std::uint64_t seed)
    : seed_(seed) {
  const std::string_view name = config.name;
  kind_ = name == "cold-mixed"     ? Kind::kCold
          : name == "hot-isomorph" ? Kind::kHot
          : name == "churn-noest"  ? Kind::kChurn
                                   : Kind::kEmbed;
  tenants_ = {"bench"};
  switch (kind_) {
    case Kind::kCold:
      bodies_.resize(kColdWarmup);
      for (std::uint32_t i = 0; i < kColdWarmup; ++i) {
        warmup_.push_back(i);
        EnsureBody(i);
      }
      break;
    case Kind::kHot: {
      // Bases 0..255 in popularity order (set-up sends each once), then the
      // relabeling pool, each entry a Zipf draw over the bases.
      bodies_.resize(kHotBases + kHotPool);
      std::vector<QuerySpec> bases;
      for (std::uint32_t b = 0; b < kHotBases; ++b) {
        bases.push_back(MakeSpec(StratumShape(8, 7, false, b), ProblemSeed(b)));
        bodies_[b] = WriteBjq(bases.back());
        warmup_.push_back(b);
      }
      zipf_cdf_ = ZipfCdf(kHotBases, 1.1);
      for (int j = 0; j < kHotPool; ++j) {
        Rng rng(DeriveSeed(DeriveSeed(seed_, kRequestStream), j));
        const int base = DrawZipf(zipf_cdf_, &rng);
        bodies_[kHotBases + j] = Relabel(bases[base], rng.Next());
      }
      break;
    }
    case Kind::kChurn:
      // Queries in popularity order; set-up sends the 64 most popular.
      tenants_ = {"t0", "t1", "t2", "t3"};
      bodies_.resize(kChurnQueries);
      zipf_cdf_ = ZipfCdf(kChurnQueries, 0.9);
      for (std::uint32_t q = 0; q < kChurnWarmup; ++q) {
        EnsureBody(q);
        warmup_.push_back(q);
      }
      break;
    case Kind::kEmbed:
      // One query per stratum, called in a seeded order that repeats;
      // set-up calls the first eight strata.
      bodies_.resize(kEmbedQueries);
      for (std::uint32_t q = 0; q < kEmbedQueries; ++q) {
        EnsureBody(q);
        if (q < kEmbedWarmup) warmup_.push_back(q);
      }
      call_order_ = Shuffled(kEmbedQueries, DeriveSeed(seed_, kShapeStream));
      break;
  }
}

std::uint64_t Inputs::ProblemSeed(std::uint32_t body) const {
  return DeriveSeed(DeriveSeed(seed_, kProblemStream), body);
}

void Inputs::EnsureBody(std::uint32_t index) {
  if (!bodies_[index].empty()) return;
  Shape shape;
  switch (kind_) {
    case Kind::kCold: {
      // Each block of kColdStrata requests holds every stratum once, in a
      // seeded order; warm-up and timed bodies use separate block streams.
      const bool warm = index < kColdWarmup;
      const std::uint64_t position = warm ? index : index - kColdWarmup;
      const std::vector<std::uint32_t> block = Shuffled(
          kColdStrata,
          DeriveSeed(DeriveSeed(seed_, warm ? kWarmupStream : kShapeStream),
                     position / kColdStrata));
      shape = StratumShape(11, 5, false, block[position % kColdStrata]);
      break;
    }
    case Kind::kChurn:
      shape = StratumShape(6, 6, true, index);
      break;
    case Kind::kEmbed:
      shape = StratumShape(14, 3, true, index);
      break;
    case Kind::kHot:
      BLITZ_CHECK(false);  // Generated eagerly by the constructor.
  }
  bodies_[index] = WriteBjq(MakeSpec(shape, ProblemSeed(index)));
}

Request Inputs::MakeRequest(std::uint64_t index) {
  switch (kind_) {
    case Kind::kCold: {
      const std::uint32_t body = kColdWarmup + static_cast<std::uint32_t>(index);
      if (bodies_.size() <= body) bodies_.resize(body + 1);
      return Request{body, 0};
    }
    case Kind::kHot:
      return Request{kHotBases + static_cast<std::uint32_t>(index % kHotPool),
                     0};
    case Kind::kChurn: {
      // Tenant t0 sends 55% of the requests, t1..t3 15% each.
      Rng rng(DeriveSeed(DeriveSeed(seed_, kRequestStream), index));
      const auto body = static_cast<std::uint32_t>(DrawZipf(zipf_cdf_, &rng));
      const int tenant = rng.NextBool(0.55) ? 0 : rng.NextInt(1, 3);
      return Request{body, static_cast<std::uint8_t>(tenant)};
    }
    case Kind::kEmbed:
      return Request{call_order_[index % kEmbedQueries], 0};
  }
  return Request{};
}

std::vector<Request> Inputs::Requests(std::uint64_t first,
                                      std::uint64_t count) {
  std::vector<Request> out;
  out.reserve(count);
  for (std::uint64_t i = first; i < first + count; ++i) {
    out.push_back(MakeRequest(i));
    EnsureBody(out.back().body);
  }
  return out;
}

bool Inputs::Sampled(std::uint32_t body) const {
  return DeriveSeed(DeriveSeed(seed_, kSampleStream), body) % 16 == 0;
}

std::size_t Inputs::mix_block() const {
  switch (kind_) {
    case Kind::kCold:
      return kColdStrata;
    case Kind::kEmbed:
      return kEmbedQueries;
    case Kind::kHot:
    case Kind::kChurn:
      break;
  }
  return 1;
}

}  // namespace blitz::bench
