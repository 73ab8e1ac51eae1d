#include "probe.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace blitz::bench {
namespace {

// Keeps the probe's work from being optimized away.
volatile double probe_sink;

}  // namespace

double ProbeHostMs() {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::uint32_t> values(4096);
  std::unordered_map<std::uint32_t, std::uint32_t> counts;
  std::uint64_t x = 88172645463325252ULL;  // xorshift64, fixed seed.
  for (int round = 0; round < 2; ++round) {
    for (std::uint32_t& v : values) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<std::uint32_t>(x);
    }
    std::sort(values.begin(), values.end());
    for (int i = 0; i < 512; ++i) counts[values[i * 7] >> 3] += i;
  }
  double sum = 0;
  for (int i = 1; i < 20000; ++i) {
    sum += std::sqrt(static_cast<double>(i) * values[i & 4095]);
  }
  probe_sink = sum + static_cast<double>(counts.size());
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace blitz::bench
