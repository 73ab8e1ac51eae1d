#ifndef BLITZBENCH_PROBE_H_
#define BLITZBENCH_PROBE_H_

namespace blitz::bench {

/// The host's speed, measured with work that never changes.
///
/// A shared cloud host runs the same code at different speeds from one
/// minute to the next: on the 4-vCPU VM this benchmark was calibrated on,
/// blitzd's CPU time per request moved by 30% between runs of one seed,
/// in spells longer than a run. The probe is a fixed piece of work — sort,
/// hash-map inserts, floating point — that is part of the benchmark, not
/// of the program, so no change to the program moves it; its wall time
/// rises and falls with the host. Across runs its median tracked the
/// daemon's CPU time per request with correlation 0.98.
///
/// Returns the probe's wall time in milliseconds (about 0.7 ms there).
double ProbeHostMs();

/// The probe time at which timings are reported unscaled. A timing
/// measured while the probe took p ms is reported as
/// timing * kReferenceProbeMs / p: in milliseconds of a host on which the
/// probe takes kReferenceProbeMs.
inline constexpr double kReferenceProbeMs = 0.7;

}  // namespace blitz::bench

#endif  // BLITZBENCH_PROBE_H_
