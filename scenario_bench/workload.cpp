#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace magma::scenario {

bool Checks::all_ok() const {
  return std::all_of(items_.begin(), items_.end(),
                     [](const Check& c) { return c.ok; });
}

void Digest::mix(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ull;
  }
}

void Digest::add(const std::string& key, std::uint64_t value) {
  mix(key.data(), key.size());
  mix(&value, sizeof(value));
}

void Digest::add(const std::string& key, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  add(key, bits);
}

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(values.size() - 1,
                              static_cast<std::size_t>(rank) - 1);
  return values[idx];
}

}  // namespace magma::scenario
