#include "crypto/milenage.h"

#include <cstring>

#include "obs/host_profiler.h"

namespace magma::crypto {

namespace {

Block xor_blocks(const Block& a, const Block& b) {
  Block out;
  for (std::size_t i = 0; i < 16; ++i) out[i] = a[i] ^ b[i];
  return out;
}

// Cyclic left rotation by a whole number of bytes (all Milenage rotation
// constants are byte-aligned: r1=64, r2=0, r3=32, r4=64, r5=96 bits).
Block rotate_left_bytes(const Block& in, std::size_t bytes) {
  Block out;
  for (std::size_t i = 0; i < 16; ++i) out[i] = in[(i + bytes) % 16];
  return out;
}

}  // namespace

Milenage::Milenage(const Key128& k, const Key128& opc, bool)
    : cipher_(k), opc_(opc) {}

Milenage::Milenage(const Key128& k, const Key128& op) : cipher_(k) {
  // OPc = OP xor E_K(OP).
  const Block encrypted = cipher_.encrypt(op);
  for (std::size_t i = 0; i < 16; ++i) opc_[i] = op[i] ^ encrypted[i];
}

Milenage Milenage::from_opc(const Key128& k, const Key128& opc) {
  return Milenage(k, opc, true);
}

MilenageOutput Milenage::compute(const std::array<std::uint8_t, 16>& rand,
                                 const std::array<std::uint8_t, 6>& sqn,
                                 const std::array<std::uint8_t, 2>& amf) const {
  MAGMA_HOST_SCOPE("crypto", "milenage");
  MilenageOutput out;

  const Block temp = cipher_.encrypt(xor_blocks(rand, opc_));

  // IN1 = SQN || AMF || SQN || AMF.
  Block in1;
  std::memcpy(in1.data(), sqn.data(), 6);
  std::memcpy(in1.data() + 6, amf.data(), 2);
  std::memcpy(in1.data() + 8, sqn.data(), 6);
  std::memcpy(in1.data() + 14, amf.data(), 2);

  // f1 / f1*: OUT1 = E_K(TEMP xor rot(IN1 xor OPc, r1) xor c1) xor OPc,
  // r1 = 64 bits = 8 bytes, c1 = 0.
  {
    Block x = rotate_left_bytes(xor_blocks(in1, opc_), 8);
    x = xor_blocks(x, temp);
    const Block out1 = xor_blocks(cipher_.encrypt(x), opc_);
    std::memcpy(out.mac_a.data(), out1.data(), 8);
    std::memcpy(out.mac_s.data(), out1.data() + 8, 8);
  }

  // f2 / f5: OUT2 = E_K(rot(TEMP xor OPc, r2) xor c2) xor OPc,
  // r2 = 0, c2 = ...0001.
  {
    Block x = xor_blocks(temp, opc_);
    x[15] ^= 0x01;
    const Block out2 = xor_blocks(cipher_.encrypt(x), opc_);
    std::memcpy(out.res.data(), out2.data() + 8, 8);
    std::memcpy(out.ak.data(), out2.data(), 6);
  }

  // f3: r3 = 32 bits = 4 bytes, c3 = ...0010.
  {
    Block x = rotate_left_bytes(xor_blocks(temp, opc_), 4);
    x[15] ^= 0x02;
    const Block out3 = xor_blocks(cipher_.encrypt(x), opc_);
    std::memcpy(out.ck.data(), out3.data(), 16);
  }

  // f4: r4 = 64 bits = 8 bytes, c4 = ...0100.
  {
    Block x = rotate_left_bytes(xor_blocks(temp, opc_), 8);
    x[15] ^= 0x04;
    const Block out4 = xor_blocks(cipher_.encrypt(x), opc_);
    std::memcpy(out.ik.data(), out4.data(), 16);
  }

  // f5*: r5 = 96 bits = 12 bytes, c5 = ...1000.
  {
    Block x = rotate_left_bytes(xor_blocks(temp, opc_), 12);
    x[15] ^= 0x08;
    const Block out5 = xor_blocks(cipher_.encrypt(x), opc_);
    std::memcpy(out.ak_s.data(), out5.data(), 6);
  }

  return out;
}

}  // namespace magma::crypto
