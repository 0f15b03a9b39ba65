// Known-answer and property tests for the crypto substrate.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/bytes.h"
#include "crypto/aes128.h"
#include "crypto/hmac.h"
#include "crypto/kdf.h"
#include "crypto/milenage.h"
#include "crypto/sha256.h"
#include "proto/lte/nas.h"

namespace magma {
namespace {

using common::from_hex;
using common::to_hex;

template <std::size_t N>
std::array<std::uint8_t, N> arr(const std::string& hex) {
  const common::Bytes bytes = from_hex(hex);
  EXPECT_EQ(bytes.size(), N) << hex;
  std::array<std::uint8_t, N> out{};
  std::copy(bytes.begin(), bytes.end(), out.begin());
  return out;
}

// --- AES-128 (FIPS-197 Appendix C.1) ---------------------------------------

TEST(Aes128, Fips197KnownAnswer) {
  const crypto::Key128 key = arr<16>("000102030405060708090a0b0c0d0e0f");
  const crypto::Block pt = arr<16>("00112233445566778899aabbccddeeff");
  crypto::Aes128 aes(key);
  const crypto::Block ct = aes.encrypt(pt);
  EXPECT_EQ(to_hex(common::BytesView(ct.data(), ct.size())),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, Sp800_38aVector) {
  // NIST SP 800-38A ECB-AES128 block #1.
  const crypto::Key128 key = arr<16>("2b7e151628aed2a6abf7158809cf4f3c");
  const crypto::Block pt = arr<16>("6bc1bee22e409f96e93d7e117393172a");
  crypto::Aes128 aes(key);
  const crypto::Block ct = aes.encrypt(pt);
  EXPECT_EQ(to_hex(common::BytesView(ct.data(), ct.size())),
            "3ad77bb40d7a3660a89ecaf32466ef97");
}

// Pins the whole round function, not just one block: the final block of a
// 10,000-step chain (each ciphertext is the next plaintext) from the
// FIPS-197 C.1 key and plaintext. The expected value was recorded from the
// byte-wise reference implementation this T-table version replaced.
TEST(Aes128, ChainedTenThousandBlocks) {
  const crypto::Key128 key = arr<16>("000102030405060708090a0b0c0d0e0f");
  crypto::Block block = arr<16>("00112233445566778899aabbccddeeff");
  const crypto::Aes128 aes(key);
  for (int i = 0; i < 10000; ++i) block = aes.encrypt(block);
  EXPECT_EQ(to_hex(common::BytesView(block.data(), block.size())),
            "e8512fb516ff348e336e540868fc0bad");
}

TEST(Aes128, DifferentKeysDifferentCiphertext) {
  const crypto::Block pt = arr<16>("00000000000000000000000000000000");
  crypto::Aes128 a(arr<16>("00000000000000000000000000000001"));
  crypto::Aes128 b(arr<16>("00000000000000000000000000000002"));
  EXPECT_NE(a.encrypt(pt), b.encrypt(pt));
}

// --- SHA-256 (FIPS 180-4 examples) ------------------------------------------

TEST(Sha256, EmptyString) {
  const auto d = crypto::sha256({});
  EXPECT_EQ(to_hex(common::BytesView(d.data(), d.size())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  const auto data = common::to_bytes("abc");
  const auto d = crypto::sha256(data);
  EXPECT_EQ(to_hex(common::BytesView(d.data(), d.size())),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  const auto data = common::to_bytes(
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  const auto d = crypto::sha256(data);
  EXPECT_EQ(to_hex(common::BytesView(d.data(), d.size())),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  crypto::Sha256 h;
  const common::Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto d = h.finish();
  EXPECT_EQ(to_hex(common::BytesView(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  common::Bytes data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<std::uint8_t>(i));
  for (std::size_t split = 0; split <= data.size(); split += 37) {
    crypto::Sha256 h;
    h.update(common::BytesView(data.data(), split));
    h.update(common::BytesView(data.data() + split, data.size() - split));
    EXPECT_EQ(h.finish(), crypto::sha256(data)) << "split=" << split;
  }
}

// Every length 0-200 (so every padding edge: 55, 56, 63, 64, 119, 120, ...)
// at every split point agrees with the one-shot digest, and the one-shot
// digests themselves hash to a value computed with an independent SHA-256
// (Python's hashlib).
TEST(Sha256, EveryLengthEverySplit) {
  crypto::Sha256 all;
  for (std::size_t n = 0; n <= 200; ++n) {
    common::Bytes data(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = static_cast<std::uint8_t>(i * 31 + 7);
    }
    const crypto::Digest256 one_shot = crypto::sha256(data);
    for (std::size_t split = 0; split <= n; ++split) {
      crypto::Sha256 h;
      h.update(common::BytesView(data.data(), split));
      h.update(common::BytesView(data.data() + split, n - split));
      ASSERT_EQ(h.finish(), one_shot) << "len=" << n << " split=" << split;
    }
    all.update(one_shot);
  }
  const crypto::Digest256 d = all.finish();
  EXPECT_EQ(to_hex(common::BytesView(d.data(), d.size())),
            "2596dc78bf91fcc2d7cdba569d85e7c20f5d24bdc74fb082da12c7272515aa28");
}

// --- HMAC-SHA256 (RFC 4231) --------------------------------------------------

TEST(HmacSha256, Rfc4231Case1) {
  const common::Bytes key(20, 0x0b);
  const auto d = crypto::hmac_sha256(key, common::to_bytes("Hi There"));
  EXPECT_EQ(to_hex(common::BytesView(d.data(), d.size())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const auto d = crypto::hmac_sha256(
      common::to_bytes("Jefe"),
      common::to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(common::BytesView(d.data(), d.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  const common::Bytes key(131, 0xaa);
  const auto d = crypto::hmac_sha256(
      key, common::to_bytes("Test Using Larger Than Block-Size Key - Hash "
                            "Key First"));
  EXPECT_EQ(to_hex(common::BytesView(d.data(), d.size())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, KeyedMatchesRfc4231) {
  const crypto::HmacKey key1(common::Bytes(20, 0x0b));
  const auto d1 = key1.mac(common::to_bytes("Hi There"));
  EXPECT_EQ(to_hex(common::BytesView(d1.data(), d1.size())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // Reusing a key is the point of HmacKey: a second MAC must not see the
  // first one's state.
  const auto d2 = crypto::HmacKey(common::to_bytes("Jefe"))
                      .mac(common::to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(common::BytesView(d2.data(), d2.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  EXPECT_EQ(key1.mac(common::to_bytes("Hi There")), d1);
  const crypto::HmacKey key6(common::Bytes(131, 0xaa));
  const auto d6 = key6.mac(common::to_bytes(
      "Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(to_hex(common::BytesView(d6.data(), d6.size())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// HMAC spelled out per RFC 2104 with one-shot hashes over concatenated
// buffers: H((K0 ^ opad) || H((K0 ^ ipad) || m)).
crypto::Digest256 rfc2104_hmac(common::BytesView key, common::BytesView msg) {
  common::Bytes k0(64, 0);
  if (key.size() > 64) {
    const crypto::Digest256 kh = crypto::sha256(key);
    std::copy(kh.begin(), kh.end(), k0.begin());
  } else {
    std::copy(key.begin(), key.end(), k0.begin());
  }
  common::Bytes inner(k0);
  for (auto& b : inner) b ^= 0x36;
  inner.insert(inner.end(), msg.begin(), msg.end());
  const crypto::Digest256 inner_digest = crypto::sha256(inner);
  common::Bytes outer(k0);
  for (auto& b : outer) b ^= 0x5c;
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return crypto::sha256(outer);
}

// Key lengths across the block-size edges (empty, short, exactly 64,
// hashed-down) against every message length 0-150; the MACs also hash to
// a value computed with Python's hmac module.
TEST(HmacSha256, KeyedMatchesRfc2104Construction) {
  crypto::Sha256 all;
  for (std::size_t key_len : {0u, 1u, 32u, 64u, 65u, 131u}) {
    common::Bytes key(key_len);
    for (std::size_t i = 0; i < key_len; ++i) {
      key[i] = static_cast<std::uint8_t>(i * 13 + 1);
    }
    const crypto::HmacKey keyed(key);
    for (std::size_t msg_len = 0; msg_len <= 150; ++msg_len) {
      common::Bytes msg(msg_len);
      for (std::size_t i = 0; i < msg_len; ++i) {
        msg[i] = static_cast<std::uint8_t>(i * 7 + 3);
      }
      const crypto::Digest256 mac = keyed.mac(msg);
      ASSERT_EQ(mac, rfc2104_hmac(key, msg))
          << "key_len=" << key_len << " msg_len=" << msg_len;
      ASSERT_EQ(mac, crypto::hmac_sha256(key, msg));
      all.update(mac);
    }
  }
  const crypto::Digest256 d = all.finish();
  EXPECT_EQ(to_hex(common::BytesView(d.data(), d.size())),
            "9964508b7a957fe92d58ab49cdf91a2f311787ec7fecc5849acafb9b651d4881");
}

TEST(HmacSha256, DefaultKeyIsAllZeroKey) {
  const auto msg = common::to_bytes("security-mode-command");
  const crypto::HmacKey zero;
  EXPECT_EQ(zero.mac(msg), crypto::hmac_sha256(crypto::Key256{}, msg));
  EXPECT_EQ(zero.mac(msg), crypto::HmacKey(common::BytesView{}).mac(msg));
}

// --- Milenage (TS 35.207 Test Set 1) ------------------------------------------

struct MilenageVector {
  const char* k;
  const char* rand;
  const char* sqn;
  const char* amf;
  const char* op;
  const char* opc;
  const char* f1;   // MAC-A
  const char* f1s;  // MAC-S
  const char* f2;   // RES
  const char* f3;   // CK
  const char* f4;   // IK
  const char* f5;   // AK
  const char* f5s;  // AK*
};

// Test Set 1 from 3GPP TS 35.207 §4.3 (the canonical conformance vector).
const MilenageVector kVectors[] = {
    {"465b5ce8b199b49faa5f0a2ee238a6bc", "23553cbe9637a89d218ae64dae47bf35",
     "ff9bb4d0b607", "b9b9", "cdc202d5123e20f62b6d676ac72cb318",
     "cd63cb71954a9f4e48a5994e37a02baf", "4a9ffac354dfafb3", "01cfaf9ec4e871e9",
     "a54211d5e3ba50bf", "b40ba9a3c58b2a05bbf0d987b21bf8cb",
     "f769bcd751044604127672711c6d3441", "aa689c648370", "451e8beca43b"},
};

TEST(Milenage, OpcDerivation) {
  for (const auto& v : kVectors) {
    crypto::Milenage milenage(arr<16>(v.k), arr<16>(v.op));
    EXPECT_EQ(to_hex(common::BytesView(milenage.opc().data(), 16)), v.opc);
  }
}

TEST(Milenage, ConformanceVectors) {
  for (const auto& v : kVectors) {
    const crypto::Milenage milenage =
        crypto::Milenage::from_opc(arr<16>(v.k), arr<16>(v.opc));
    const crypto::MilenageOutput out =
        milenage.compute(arr<16>(v.rand), arr<6>(v.sqn), arr<2>(v.amf));
    EXPECT_EQ(to_hex(common::BytesView(out.mac_a.data(), 8)), v.f1);
    EXPECT_EQ(to_hex(common::BytesView(out.mac_s.data(), 8)), v.f1s);
    EXPECT_EQ(to_hex(common::BytesView(out.res.data(), 8)), v.f2);
    EXPECT_EQ(to_hex(common::BytesView(out.ck.data(), 16)), v.f3);
    EXPECT_EQ(to_hex(common::BytesView(out.ik.data(), 16)), v.f4);
    EXPECT_EQ(to_hex(common::BytesView(out.ak.data(), 6)), v.f5);
    EXPECT_EQ(to_hex(common::BytesView(out.ak_s.data(), 6)), v.f5s);
  }
}

TEST(Milenage, OutputsDependOnEveryInput) {
  const crypto::Key128 k = arr<16>("465b5ce8b199b49faa5f0a2ee238a6bc");
  const crypto::Key128 opc = arr<16>("cd63cb71954a9f4e48a5994e37a02baf");
  const auto rand = arr<16>("23553cbe9637a89d218ae64dae47bf35");
  const auto sqn = arr<6>("ff9bb4d0b607");
  const std::array<std::uint8_t, 2> amf = {0xb9, 0xb9};

  const crypto::Milenage base = crypto::Milenage::from_opc(k, opc);
  const auto ref = base.compute(rand, sqn, amf);

  // Flip one bit of each input; every core output must change.
  crypto::Key128 k2 = k;
  k2[3] ^= 0x01;
  EXPECT_NE(crypto::Milenage::from_opc(k2, opc).compute(rand, sqn, amf).res,
            ref.res);
  auto rand2 = rand;
  rand2[15] ^= 0x80;
  EXPECT_NE(base.compute(rand2, sqn, amf).res, ref.res);
  auto sqn2 = sqn;
  sqn2[5] ^= 0x01;
  EXPECT_NE(base.compute(rand, sqn2, amf).mac_a, ref.mac_a);
  // SQN does not feed f2/f5 (they depend on RAND/keys only).
  EXPECT_EQ(base.compute(rand, sqn2, amf).res, ref.res);
}

// --- KDF hierarchy -------------------------------------------------------------

TEST(Kdf, KasmeDeterministicAndKeyDependent) {
  const auto ck = arr<16>("b40ba9a3c58b2a05bbf0d987b21bf8cb");
  const auto ik = arr<16>("f769bcd751044604127672711c6d3441");
  const auto sqn_ak = arr<6>("55f328b43577");
  crypto::ServingNetwork sn;
  const auto kasme1 = crypto::derive_kasme(ck, ik, sn, sqn_ak);
  const auto kasme2 = crypto::derive_kasme(ck, ik, sn, sqn_ak);
  EXPECT_EQ(kasme1, kasme2);

  crypto::ServingNetwork other;
  other.plmn = "00102";
  EXPECT_NE(kasme1, crypto::derive_kasme(ck, ik, other, sqn_ak));
}

TEST(Kdf, DistinctSubKeys) {
  crypto::Key256 kasme{};
  kasme[0] = 1;
  const auto enc = crypto::derive_k_nas_enc(kasme, crypto::NasAlgorithm::kEea2);
  const auto integrity =
      crypto::derive_k_nas_int(kasme, crypto::NasAlgorithm::kEia2);
  const auto kenb = crypto::derive_k_enb(kasme, 0);
  // K_NASenc is the 128-bit EEA2 key: compare it with the others' first
  // halves.
  const common::BytesView enc_view(enc);
  EXPECT_FALSE(std::equal(enc_view.begin(), enc_view.end(), integrity.begin()));
  EXPECT_FALSE(std::equal(enc_view.begin(), enc_view.end(), kenb.begin()));
  EXPECT_NE(integrity, kenb);
}

TEST(Kdf, NasMacDependsOnCountAndMessage) {
  crypto::Key256 raw{};
  raw[5] = 7;
  const crypto::HmacKey key(raw);
  const auto msg = common::to_bytes("attach-accept");
  const std::uint32_t mac0 = crypto::nas_mac(key, 0, msg);
  EXPECT_EQ(mac0, crypto::nas_mac(key, 0, msg));
  EXPECT_NE(mac0, crypto::nas_mac(key, 1, msg));
  EXPECT_NE(mac0, crypto::nas_mac(key, 0, common::to_bytes("attach-reject")));
}

// The keyed NAS MAC is the 32-bit truncation of one-shot HMAC over
// COUNT (big-endian) || message, for any count and message length.
TEST(Kdf, NasMacIsTruncatedHmacOverCountAndMessage) {
  crypto::Key256 raw{};
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::uint8_t>(0xA0 + i);
  }
  const crypto::HmacKey key(raw);
  for (std::uint32_t count : {0u, 1u, 0x01020304u, 0xFFFFFFFFu}) {
    for (std::size_t len = 0; len <= 130; ++len) {
      common::Bytes msg(len);
      for (std::size_t i = 0; i < len; ++i) {
        msg[i] = static_cast<std::uint8_t>(i ^ count);
      }
      common::Bytes data = {static_cast<std::uint8_t>(count >> 24),
                            static_cast<std::uint8_t>(count >> 16),
                            static_cast<std::uint8_t>(count >> 8),
                            static_cast<std::uint8_t>(count)};
      data.insert(data.end(), msg.begin(), msg.end());
      const crypto::Digest256 d = crypto::hmac_sha256(raw, data);
      const std::uint32_t expected =
          (std::uint32_t(d[0]) << 24) | (std::uint32_t(d[1]) << 16) |
          (std::uint32_t(d[2]) << 8) | std::uint32_t(d[3]);
      ASSERT_EQ(crypto::nas_mac(key, count, msg), expected)
          << "count=" << count << " len=" << len;
    }
  }
}

TEST(Kdf, InputLayoutIsFcThenParamsWithLengths) {
  const std::uint8_t p1[3] = {0xAA, 0xBB, 0xCC};
  crypto::KdfInput input(0x15);
  input.param(common::BytesView(p1, 3)).param({});
  EXPECT_EQ(to_hex(input.view()), "15aabbcc00030000");
}

TEST(NasCipher, RoundTripAllLengths) {
  crypto::Key128 key{};
  key[0] = 0x42;
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 32u, 100u, 1000u}) {
    common::Bytes plain(len);
    for (std::size_t i = 0; i < len; ++i) {
      plain[i] = static_cast<std::uint8_t>(i * 7);
    }
    const common::Bytes cipher = crypto::nas_cipher(key, 5, true, plain);
    EXPECT_EQ(cipher.size(), len);
    if (len > 4) {
      EXPECT_NE(cipher, plain);
    }
    EXPECT_EQ(crypto::nas_cipher(key, 5, true, cipher), plain);
  }
}

TEST(NasCipher, KeystreamDependsOnCountDirectionKey) {
  crypto::Key128 k1{};
  k1[0] = 1;
  crypto::Key128 k2{};
  k2[0] = 2;
  const common::Bytes plain(32, 0x00);  // ciphertext == keystream
  const auto base = crypto::nas_cipher(k1, 0, true, plain);
  EXPECT_NE(crypto::nas_cipher(k1, 1, true, plain), base);   // count
  EXPECT_NE(crypto::nas_cipher(k1, 0, false, plain), base);  // direction
  EXPECT_NE(crypto::nas_cipher(k2, 0, true, plain), base);   // key
  EXPECT_EQ(crypto::nas_cipher(k1, 0, true, plain), base);   // deterministic
}

TEST(NasCipher, CipheredNasPduIsOpaqueWithoutKey) {
  // An on-path observer of a ciphered AttachAccept cannot decode it (and
  // with high probability cannot even parse it).
  crypto::Key128 key{};
  key[3] = 9;
  proto::lte::AttachAccept accept;
  accept.m_tmsi = 77;
  accept.bearer.pdn_address = common::Ipv4::from_octets(172, 16, 0, 9);
  const common::Bytes plain =
      proto::lte::encode_nas(proto::lte::NasMessage{accept});
  const common::Bytes cipher = crypto::nas_cipher(key, 0, true, plain);
  auto sniffed = proto::lte::decode_nas(cipher);
  if (sniffed.ok()) {
    // If it happens to parse, it must not be the original message.
    EXPECT_NE(sniffed.value(), proto::lte::NasMessage{accept});
  }
  // The legitimate receiver recovers it exactly.
  auto decoded =
      proto::lte::decode_nas(crypto::nas_cipher(key, 0, true, cipher));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), proto::lte::NasMessage{accept});
}

TEST(ConstantTimeEqual, Behaviour) {
  const auto a = common::to_bytes("same");
  const auto b = common::to_bytes("same");
  const auto c = common::to_bytes("diff");
  const auto d = common::to_bytes("longer");
  EXPECT_TRUE(common::constant_time_equal(a, b));
  EXPECT_FALSE(common::constant_time_equal(a, c));
  EXPECT_FALSE(common::constant_time_equal(a, d));
}

}  // namespace
}  // namespace magma
