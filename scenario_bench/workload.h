// Scenario benchmark workloads: whole deployments driven through the public
// core::Network / orc8r::Orchestrator API.
//
// A workload builds its topology and load in setup(), is then advanced by
// main.cpp in fixed simulated slices (the measured phase), and finally
// drains, checks its simulated outputs, and reports simulated outcomes plus
// a digest of its simulated statistics. Nothing here reads the host clock:
// host timing belongs to main.cpp, so two runs with one seed
// produce identical outcomes and digests whether or not a HostProfiler is
// installed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/network.h"
#include "ran/enodeb.h"
#include "sim/time.h"

namespace magma::scenario {

// Named, timed setup stages (setup.provision / setup.sync / setup.attach).
// main.cpp supplies the clock; a workload only marks stage boundaries.
class SetupSpans {
 public:
  virtual ~SetupSpans() = default;
  virtual void begin(const std::string& stage) = 0;
  virtual void end() = 0;
};

// One correctness check: a description and whether it held.
struct Check {
  std::string what;
  bool ok = false;
};

class Checks {
 public:
  void expect(bool ok, std::string what) {
    items_.push_back(Check{std::move(what), ok});
  }
  bool all_ok() const;
  const std::vector<Check>& items() const { return items_; }

 private:
  std::vector<Check> items_;
};

// A simulated outcome: deterministic for a given seed and size.
struct SimMetric {
  std::string name;
  std::string unit;
  double value = 0;
  std::uint64_t samples = 0;  // observations behind the value (0: a total)
};

struct Outcome {
  std::uint64_t attempted = 0;  // operations offered in the measured phase
  std::uint64_t failed = 0;     // of which failed or were lost
  std::string failed_what;      // what "attempted" counts, for the report
  std::vector<SimMetric> metrics;
  std::uint64_t digest = 0;  // hash of the simulated statistics
};

// FNV-1a over named 64-bit fields: the sim_digest.
class Digest {
 public:
  void add(const std::string& key, std::uint64_t value);
  void add(const std::string& key, double value);
  std::uint64_t value() const { return hash_; }

 private:
  void mix(const void* data, std::size_t len);
  std::uint64_t hash_ = 14695981039346656037ull;
};

// p in [0, 1] over an unsorted sample (nearest rank); 0 for no samples.
double quantile(std::vector<double> values, double p);

class Workload {
 public:
  virtual ~Workload() = default;

  // Topology, provisioning, initial config sync and warm-up load. Leaves
  // the open-loop generators running into the measured phase.
  virtual void setup(SetupSpans& spans) = 0;
  virtual core::Network& network() = 0;
  // RAN nodes the workload created (empty when it has none).
  virtual const std::vector<ran::EnodeB*>& enbs() const = 0;

  // Measured phase geometry: `slices()` calls of run_for(slice()).
  virtual sim::Duration slice() const = 0;
  virtual int slices() const = 0;
  virtual void begin_measure() = 0;
  virtual void after_slice() {}
  virtual void end_measure() = 0;

  // Stop the generators and let in-flight work finish.
  virtual void drain() = 0;
  // Simulated outcomes and digest; call after drain(), before check().
  virtual Outcome outcome() = 0;
  virtual void check(Checks& checks) = 0;
};

// `quick` shrinks every workload for smoke tests; the full size is what the
// benchmark reports.
std::unique_ptr<Workload> make_attach_churn(std::uint64_t seed, bool quick);
std::unique_ptr<Workload> make_bulk_downlink(std::uint64_t seed, bool quick);
std::unique_ptr<Workload> make_fleet_sync(std::uint64_t seed, bool quick);

}  // namespace magma::scenario
