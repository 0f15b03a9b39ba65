#include "crypto/aes128.h"

#include <cstddef>

namespace magma::crypto {

namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

constexpr std::uint32_t rotr8(std::uint32_t x) { return (x >> 8) | (x << 24); }

// T-tables: Te[k][x] is the MixColumns column that S-box output S[x] in
// row k contributes, packed big-endian (row 0 in the top byte). One round
// of SubBytes + ShiftRows + MixColumns is then four lookups and XORs per
// output column. Te[k] is Te[0] rotated right by 8k bits.
using TTables = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr TTables make_t_tables() {
  TTables te{};
  for (std::size_t x = 0; x < 256; ++x) {
    const std::uint8_t s = kSbox[x];
    const std::uint8_t s2 = xtime(s);
    const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
    std::uint32_t t = (std::uint32_t(s2) << 24) | (std::uint32_t(s) << 16) |
                      (std::uint32_t(s) << 8) | std::uint32_t(s3);
    for (std::size_t k = 0; k < 4; ++k) {
      te[k][x] = t;
      t = rotr8(t);
    }
  }
  return te;
}

constexpr TTables kTe = make_t_tables();

std::uint32_t load_be(const std::uint8_t* p) {
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
         (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

void store_be(std::uint32_t w, std::uint8_t* p) {
  p[0] = static_cast<std::uint8_t>(w >> 24);
  p[1] = static_cast<std::uint8_t>(w >> 16);
  p[2] = static_cast<std::uint8_t>(w >> 8);
  p[3] = static_cast<std::uint8_t>(w);
}

// Output column of a full round: ShiftRows takes row k from column
// (c + k) mod 4, which the caller passes as a, b, c, d.
std::uint32_t round_column(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                           std::uint32_t d, std::uint32_t round_key) {
  return kTe[0][a >> 24] ^ kTe[1][(b >> 16) & 0xFF] ^
         kTe[2][(c >> 8) & 0xFF] ^ kTe[3][d & 0xFF] ^ round_key;
}

// Output column of the last round: SubBytes + ShiftRows, no MixColumns.
std::uint32_t final_column(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                           std::uint32_t d, std::uint32_t round_key) {
  return ((std::uint32_t(kSbox[a >> 24]) << 24) |
          (std::uint32_t(kSbox[(b >> 16) & 0xFF]) << 16) |
          (std::uint32_t(kSbox[(c >> 8) & 0xFF]) << 8) |
          std::uint32_t(kSbox[d & 0xFF])) ^
         round_key;
}

}  // namespace

Aes128::Aes128(const Key128& key) {
  // Key expansion (FIPS-197 §5.2).
  for (int i = 0; i < 16; ++i) round_keys_[static_cast<std::size_t>(i)] = key[static_cast<std::size_t>(i)];
  for (int i = 4; i < 44; ++i) {
    std::uint8_t t[4];
    for (int j = 0; j < 4; ++j) t[j] = round_keys_[static_cast<std::size_t>((i - 1) * 4 + j)];
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon.
      const std::uint8_t tmp = t[0];
      t[0] = static_cast<std::uint8_t>(kSbox[t[1]] ^ kRcon[i / 4 - 1]);
      t[1] = kSbox[t[2]];
      t[2] = kSbox[t[3]];
      t[3] = kSbox[tmp];
    }
    for (int j = 0; j < 4; ++j) {
      round_keys_[static_cast<std::size_t>(i * 4 + j)] =
          round_keys_[static_cast<std::size_t>((i - 4) * 4 + j)] ^ t[j];
    }
  }
}

Block Aes128::encrypt(const Block& plaintext) const {
  // State as four big-endian column words (the state is column-major).
  const std::uint8_t* rk = round_keys_.data();
  std::uint32_t s0 = load_be(plaintext.data()) ^ load_be(rk);
  std::uint32_t s1 = load_be(plaintext.data() + 4) ^ load_be(rk + 4);
  std::uint32_t s2 = load_be(plaintext.data() + 8) ^ load_be(rk + 8);
  std::uint32_t s3 = load_be(plaintext.data() + 12) ^ load_be(rk + 12);
  for (int round = 1; round <= 9; ++round) {
    rk += 16;
    const std::uint32_t t0 = round_column(s0, s1, s2, s3, load_be(rk));
    const std::uint32_t t1 = round_column(s1, s2, s3, s0, load_be(rk + 4));
    const std::uint32_t t2 = round_column(s2, s3, s0, s1, load_be(rk + 8));
    const std::uint32_t t3 = round_column(s3, s0, s1, s2, load_be(rk + 12));
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  rk += 16;
  Block out;
  store_be(final_column(s0, s1, s2, s3, load_be(rk)), out.data());
  store_be(final_column(s1, s2, s3, s0, load_be(rk + 4)), out.data() + 4);
  store_be(final_column(s2, s3, s0, s1, load_be(rk + 8)), out.data() + 8);
  store_be(final_column(s3, s0, s1, s2, load_be(rk + 12)), out.data() + 12);
  return out;
}

}  // namespace magma::crypto
