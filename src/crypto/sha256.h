// SHA-256 (FIPS 180-4). Used by HMAC-SHA256, which in turn backs the 3GPP
// key derivation function (TS 33.401 Annex A uses HMAC-SHA-256 for KASME and
// the NAS/AS key hierarchy).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace magma::crypto {

using Digest256 = std::array<std::uint8_t, 32>;
// The eight 32-bit chaining words between compression-function calls.
using Sha256State = std::array<std::uint32_t, 8>;

Digest256 sha256(common::BytesView data);

// Incremental interface (needed by HMAC for the two-pass construction
// without concatenating buffers).
class Sha256 {
 public:
  Sha256();
  // Resume from the chaining value reached after `bytes_hashed` bytes, a
  // whole number of 64-byte blocks (how HmacKey replays its pad blocks).
  Sha256(const Sha256State& state, std::uint64_t bytes_hashed);
  void update(common::BytesView data);
  Digest256 finish();
  // Chaining value so far; covers exactly the input when a whole number of
  // blocks has been absorbed.
  const Sha256State& state() const { return h_; }

 private:
  void process_block(const std::uint8_t* block);

  Sha256State h_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace magma::crypto
