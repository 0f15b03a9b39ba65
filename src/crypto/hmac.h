// HMAC-SHA256 (RFC 2104) — the MAC underlying the 3GPP LTE/5G key
// derivation function (TS 33.401 / TS 33.220 Annex B).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace magma::crypto {

// An HMAC-SHA256 key, kept as the SHA-256 chaining values after the ipad
// and opad blocks: a MAC then costs the message blocks plus one outer
// block, not two extra pad blocks every time. Long-lived keys (K_NASint
// for a whole NAS security context) are built once and reused. Holds two
// 32-byte chaining values, not two whole hashers, so per-UE contexts stay
// small.
class HmacKey {
 public:
  // The all-zero key (HMAC pads short keys with zeros, so this equals the
  // empty key and any all-zero key of up to 64 bytes).
  HmacKey();
  explicit HmacKey(common::BytesView key);

  // Streaming MAC: begin() returns the inner hash resumed after the ipad
  // block; update() it with the message, then finish() runs the outer hash.
  Sha256 begin() const;
  Digest256 finish(Sha256& inner) const;

  Digest256 mac(common::BytesView message) const;

 private:
  Sha256State inner_;  // after K xor ipad
  Sha256State outer_;  // after K xor opad
};

Digest256 hmac_sha256(common::BytesView key, common::BytesView message);

// 3GPP generic KDF (TS 33.220 B.2): output = HMAC-SHA256(key, S) where
// S = FC || P0 || L0 || P1 || L1 || ... Each Pi is a parameter, Li its
// two-byte big-endian length. S is built in place: the 3GPP parameter
// sets (a PLMN id, SQN xor AK, algorithm ids, a NAS count) are a few dozen
// bytes at most.
class KdfInput {
 public:
  static constexpr std::size_t kCapacity = 64;

  explicit KdfInput(std::uint8_t fc) : s_{fc}, size_(1) {}
  // Appends Pi || Li. Aborts if S would outgrow kCapacity: the parameter
  // sets are fixed by the spec, so that is a programming error.
  KdfInput& param(common::BytesView p);
  common::BytesView view() const { return {s_.data(), size_}; }

 private:
  std::array<std::uint8_t, kCapacity> s_;
  std::size_t size_;
};

Digest256 kdf(common::BytesView key, const KdfInput& input);

}  // namespace magma::crypto
