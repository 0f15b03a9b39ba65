#include "crypto/hmac.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/host_profiler.h"

namespace magma::crypto {

namespace {

constexpr std::size_t kBlock = 64;

// Chaining value after hashing the one-block pad `k_block xor pad`.
Sha256State pad_state(const std::array<std::uint8_t, kBlock>& k_block,
                      std::uint8_t pad) {
  std::array<std::uint8_t, kBlock> padded;
  for (std::size_t i = 0; i < kBlock; ++i) padded[i] = k_block[i] ^ pad;
  Sha256 h;
  h.update(padded);
  return h.state();
}

}  // namespace

HmacKey::HmacKey(common::BytesView key) {
  std::array<std::uint8_t, kBlock> k_block{};
  if (key.size() > kBlock) {
    const Digest256 kh = sha256(key);
    std::memcpy(k_block.data(), kh.data(), kh.size());
  } else if (!key.empty()) {
    std::memcpy(k_block.data(), key.data(), key.size());
  }
  inner_ = pad_state(k_block, 0x36);
  outer_ = pad_state(k_block, 0x5c);
}

HmacKey::HmacKey() {
  static const HmacKey kZero{common::BytesView{}};
  *this = kZero;
}

Sha256 HmacKey::begin() const { return Sha256(inner_, kBlock); }

Digest256 HmacKey::finish(Sha256& inner) const {
  const Digest256 inner_digest = inner.finish();
  Sha256 outer(outer_, kBlock);
  outer.update(inner_digest);
  return outer.finish();
}

Digest256 HmacKey::mac(common::BytesView message) const {
  Sha256 inner = begin();
  inner.update(message);
  return finish(inner);
}

Digest256 hmac_sha256(common::BytesView key, common::BytesView message) {
  return HmacKey(key).mac(message);
}

KdfInput& KdfInput::param(common::BytesView p) {
  if (size_ + p.size() + 2 > kCapacity) {
    std::fprintf(stderr, "KdfInput: S exceeds %zu bytes\n", kCapacity);
    std::abort();
  }
  if (!p.empty()) std::memcpy(s_.data() + size_, p.data(), p.size());
  size_ += p.size();
  s_[size_++] = static_cast<std::uint8_t>(p.size() >> 8);
  s_[size_++] = static_cast<std::uint8_t>(p.size() & 0xFF);
  return *this;
}

Digest256 kdf(common::BytesView key, const KdfInput& input) {
  MAGMA_HOST_SCOPE("crypto", "kdf");
  return hmac_sha256(key, input.view());
}

}  // namespace magma::crypto
