// Per-layer metrics for the traced run.
//
// Everything is read from outside the program: public stats structs of the
// kernel, CPU model, AGW services, orchestrator, store, transport and RAN,
// plus the obs::HostProfiler label table main.cpp installs around a
// traced repetition. A Counters map is a cumulative snapshot; per-layer
// metrics are differences of two snapshots taken at the edges of the
// measured phase, except where a metric says it spans the whole repetition.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/host_profiler.h"
#include "workload.h"

namespace magma::scenario {

using Counters = std::map<std::string, double>;

// Cumulative counters of every layer, plus the profiler's label table when
// `profiler` is non-null.
Counters collect_counters(Workload& workload,
                          const obs::HostProfiler* profiler);

// Host measurements of the untraced repetitions, which the traced ones
// cannot provide without the profiler's own overhead.
struct UntracedHost {
  double run_s = 0;  // at reference speed
  double allocs = 0;
  double alloc_bytes = 0;
  double overhead_ratio = 0;  // traced run_s / untraced run_s
};

struct LayerMetric {
  std::string name;
  std::string unit;
  // Listed in BENCHMARK.json: defined on every workload. The rest are
  // reported, and marked n/a where the layer did no work.
  bool listed = false;
  std::optional<double> value;  // nullopt: n/a on this workload
  std::string base;             // calls / counts behind a time or ratio
};

// `setup_ms` holds the benchmark-side setup spans (setup.provision, ...).
// Profiler times are scaled by `speed`, the traced repetition's host speed
// relative to the reference probe, like every other host time.
std::vector<LayerMetric> derive_layer_metrics(
    const Counters& before, const Counters& after,
    const std::map<std::string, double>& setup_ms, const UntracedHost& host,
    double speed);

}  // namespace magma::scenario
