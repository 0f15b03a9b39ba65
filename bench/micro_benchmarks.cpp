// Microbenchmarks (google-benchmark): per-operation costs of the hot
// primitives — data-plane matching/forwarding, the crypto the attach path
// runs, codecs, stores, and the event kernel. These measure the *host*
// costs of the simulator itself (not modeled AGW CPU), and back the
// efficiency notes in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include "agw/pipelined.h"
#include "crypto/aes128.h"
#include "crypto/hmac.h"
#include "crypto/kdf.h"
#include "crypto/milenage.h"
#include "crypto/sha256.h"
#include "proto/lte/nas.h"
#include "proto/lte/s1ap.h"
#include "sim/kernel.h"
#include "store/wal_store.h"

namespace {

using namespace magma;

// --- datapath ---------------------------------------------------------------

agw::SessionFlows make_session(std::uint64_t cookie) {
  agw::SessionFlows f;
  f.cookie = cookie;
  f.ue_ip = common::Ipv4{0xAC100000u + static_cast<std::uint32_t>(cookie)};
  f.agw_teid_ul = common::Teid{static_cast<std::uint32_t>(cookie)};
  f.enb_teid_dl = common::Teid{static_cast<std::uint32_t>(cookie + 65536)};
  f.enb_address = common::Ipv4::from_octets(10, 100, 0, 1);
  f.dl_rate_bps = 10e6;
  f.ul_rate_bps = 5e6;
  return f;
}

void PipelineDownlinkBody(benchmark::State& state, bool cache) {
  const std::uint64_t sessions = static_cast<std::uint64_t>(state.range(0));
  agw::Pipelined pd;
  pd.pipeline().set_flow_cache_enabled(cache);
  for (std::uint64_t c = 1; c <= sessions; ++c) {
    pd.install_session(make_session(c), 0).ok();
  }
  const datapath::Packet pkt = datapath::make_udp(
      common::Ipv4::from_octets(8, 8, 8, 8),
      common::Ipv4{0xAC100000u + static_cast<std::uint32_t>(sessions / 2 + 1)},
      443, 40000, 1400);
  sim::TimePoint now = 0;
  for (auto _ : state) {
    now += sim::kMillisecond;
    auto result = pd.pipeline().process(pkt, datapath::Direction::kDownlink,
                                        now);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(std::to_string(sessions) + " sessions, cache " +
                 (cache ? "ON" : "OFF"));
}

// Ablation: the OVS-style microflow cache makes per-packet cost O(1) in
// the session count; without it, lookup is linear in installed rules.
void BM_PipelineDownlinkCached(benchmark::State& state) {
  PipelineDownlinkBody(state, true);
}
void BM_PipelineDownlinkUncached(benchmark::State& state) {
  PipelineDownlinkBody(state, false);
}
BENCHMARK(BM_PipelineDownlinkCached)->Arg(10)->Arg(100)->Arg(500);
BENCHMARK(BM_PipelineDownlinkUncached)->Arg(10)->Arg(100)->Arg(500);

void BM_PipelineUplinkBatch64(benchmark::State& state) {
  agw::Pipelined pd;
  for (std::uint64_t c = 1; c <= 100; ++c) {
    pd.install_session(make_session(c), 0).ok();
  }
  const agw::SessionFlows f = make_session(50);
  datapath::PacketBatch batch;
  batch.packet = datapath::gtpu_encap(
      datapath::make_udp(f.ue_ip, common::Ipv4::from_octets(8, 8, 8, 8),
                         40000, 443, 1400),
      f.agw_teid_ul, f.enb_address, common::Ipv4{1});
  batch.count = 64;
  sim::TimePoint now = 0;
  for (auto _ : state) {
    now += sim::kMillisecond;
    auto result =
        pd.pipeline().process_batch(batch, datapath::Direction::kUplink, now);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_PipelineUplinkBatch64);

void BM_PacketSerializeParse(benchmark::State& state) {
  const datapath::Packet pkt = datapath::gtpu_encap(
      datapath::make_udp(common::Ipv4{1}, common::Ipv4{2}, 3, 4, 1400),
      common::Teid{5}, common::Ipv4{6}, common::Ipv4{7});
  for (auto _ : state) {
    const common::Bytes wire = pkt.serialize();
    auto parsed = datapath::Packet::parse(wire);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_PacketSerializeParse);

// --- crypto ------------------------------------------------------------------

void BM_Aes128Block(benchmark::State& state) {
  crypto::Key128 key{};
  key[0] = 1;
  crypto::Aes128 aes(key);
  crypto::Block block{};
  for (auto _ : state) {
    block = aes.encrypt(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_Aes128Block);

void BM_MilenageVector(benchmark::State& state) {
  crypto::Key128 k{};
  crypto::Key128 opc{};
  k[0] = 1;
  opc[0] = 2;
  const crypto::Milenage milenage = crypto::Milenage::from_opc(k, opc);
  std::array<std::uint8_t, 16> rand{};
  std::uint64_t counter = 0;
  for (auto _ : state) {
    rand[0] = static_cast<std::uint8_t>(++counter);
    auto out = milenage.compute(rand, {0, 0, 0, 0, 0, 1}, {0x80, 0x00});
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_MilenageVector);

void BM_Sha256_1KiB(benchmark::State& state) {
  const common::Bytes data(1024, 0xA5);
  for (auto _ : state) {
    auto digest = crypto::sha256(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_Sha256_1KiB);

// One-shot HMAC: derives the pad midstates from the raw key every call, as
// the KDF does (each KDF call is one such MAC under a fresh key).
void BM_HmacSha256(benchmark::State& state) {
  crypto::Key256 key{};
  key[0] = 9;
  const common::Bytes msg(64, 0x42);
  for (auto _ : state) {
    auto digest = crypto::hmac_sha256(key, msg);
    benchmark::DoNotOptimize(digest);
  }
}
BENCHMARK(BM_HmacSha256);

// Keyed NAS MAC: K_NASint's midstates are built once per security context,
// so a MAC hashes only COUNT||msg plus the outer block.
void BM_NasMac(benchmark::State& state) {
  crypto::Key256 raw{};
  raw[0] = 9;
  const crypto::HmacKey key(raw);
  const common::Bytes msg(64, 0x42);
  std::uint32_t count = 0;
  for (auto _ : state) {
    auto mac = crypto::nas_mac(key, ++count, msg);
    benchmark::DoNotOptimize(mac);
  }
}
BENCHMARK(BM_NasMac);

// --- codecs ---------------------------------------------------------------------

void BM_NasAttachAcceptCodec(benchmark::State& state) {
  proto::lte::AttachAccept accept;
  accept.m_tmsi = 42;
  accept.bearer.pdn_address = common::Ipv4::from_octets(172, 16, 0, 5);
  accept.mac = 0x12345678;
  const proto::lte::NasMessage msg{accept};
  for (auto _ : state) {
    auto decoded = proto::lte::decode_nas(proto::lte::encode_nas(msg));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_NasAttachAcceptCodec);

void BM_S1apIcsCodec(benchmark::State& state) {
  proto::lte::InitialContextSetupRequest ics;
  ics.nas_pdu = common::Bytes(80, 0x11);
  const proto::lte::S1apMessage msg{ics};
  for (auto _ : state) {
    auto decoded = proto::lte::decode_s1ap(proto::lte::encode_s1ap(msg));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_S1apIcsCodec);

// --- stores ------------------------------------------------------------------------

void BM_WalStorePut(benchmark::State& state) {
  store::WalStore walstore;
  std::uint64_t i = 0;
  const common::Bytes value(128, 0x5A);
  for (auto _ : state) {
    walstore.put("sub/IMSI" + std::to_string(i++ % 10000), value);
    if (i % 50000 == 0) walstore.checkpoint();
  }
}
BENCHMARK(BM_WalStorePut);

void BM_WalStoreScan1k(benchmark::State& state) {
  store::WalStore walstore;
  for (int i = 0; i < 1000; ++i) {
    walstore.put("sub/" + std::to_string(100000 + i), common::Bytes(64, 1));
  }
  for (auto _ : state) {
    auto rows = walstore.scan("sub/");
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_WalStoreScan1k);

// --- event kernel ---------------------------------------------------------------------

void BM_KernelScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Kernel kernel;
    for (int i = 0; i < 1000; ++i) {
      kernel.schedule(i * sim::kMicrosecond, []() {});
    }
    kernel.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_KernelScheduleRun);

}  // namespace
