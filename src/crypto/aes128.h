// AES-128 block cipher (FIPS-197), encryption direction only.
//
// Milenage (the 3GPP authentication algorithm set burned into every USIM)
// is built exclusively from AES-128 encryptions, and the NAS cipher runs
// AES in counter mode, so decryption is not needed. Every attach runs
// Milenage on both the UE emulator and the AGW and every ciphered NAS
// message adds a few blocks, so encrypt() is on the emulator's hot path:
// it uses the classic 32-bit T-table formulation (four 1 KiB tables built
// at compile time from the S-box). Portable C++ only: no AES-NI, no
// runtime dispatch, one code path on every host.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace magma::crypto {

using Block = std::array<std::uint8_t, 16>;
using Key128 = std::array<std::uint8_t, 16>;

class Aes128 {
 public:
  explicit Aes128(const Key128& key);

  Block encrypt(const Block& plaintext) const;

 private:
  // 11 round keys of 16 bytes each.
  std::array<std::uint8_t, 176> round_keys_;
};

}  // namespace magma::crypto
