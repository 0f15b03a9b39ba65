#include "speed_probe.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>

#include "workload.h"

namespace magma::scenario {

double SpeedProbe::sample() {
  const auto t0 = std::chrono::steady_clock::now();
  std::unordered_map<std::uint64_t, std::vector<int>> buckets;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  std::uint64_t x = 1;
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) heap.push(i);
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t t = heap.top();
    heap.pop();
    heap.push(t + (x >> 50));
    std::vector<int>& bucket = buckets[(x >> 33) & 0x3fff];
    bucket.push_back(i);
    if (bucket.size() > 8) bucket.clear();
    sink += bucket.size();
  }
  const auto t1 = std::chrono::steady_clock::now();
  // Keep the loop's result observable so it cannot be optimized away.
  volatile std::uint64_t keep = sink;
  (void)keep;
  const double s = std::chrono::duration<double>(t1 - t0).count();
  samples_.push_back(s);
  return s;
}

double SpeedProbe::speed() const {
  if (samples_.empty()) return 1.0;
  return kReferenceProbeS / quantile(samples_, 0.5);
}

}  // namespace magma::scenario
