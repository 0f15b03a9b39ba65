// Machine-speed probe for host timings on a shared, noisy machine.
//
// A shared host can run the same instruction stream 20-30% faster or slower
// from one minute to the next (measured on a 4-vCPU 2.1 GHz Xeon VM:
// co-tenants contend for cores and caches; the process is not descheduled,
// so CPU time moves with wall time). A SpeedProbe times a fixed reference
// computation — hash-map updates, a binary heap and small vector
// allocations, the same mix of work as the simulator's event loop but none
// of its code — interleaved with the workload. The ratio kReferenceProbeS / median(probe) is the
// host's speed relative to the reference, and a host time multiplied by
// it is the time the same work takes at reference speed. Over one
// repetition the probe and the simulator slow down together (correlation
// ~0.94 measured across repetitions), so corrected times vary far less
// than raw ones. The probe never touches simulation state.
#pragma once

#include <vector>

namespace magma::scenario {

// The probe's duration on an unloaded 2.1 GHz Xeon VM (RelWithDebInfo).
// Only ratios matter: both sides of any comparison use this constant.
inline constexpr double kReferenceProbeS = 0.0035;

class SpeedProbe {
 public:
  // Runs the reference computation once; returns and records its duration.
  double sample();
  // Host speed relative to the reference over the samples so far: above 1
  // means faster than the reference. 1 with no samples.
  double speed() const;

 private:
  std::vector<double> samples_;
};

}  // namespace magma::scenario
