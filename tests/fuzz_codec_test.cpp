// Robustness fuzzing: every decoder must survive arbitrary bytes — a
// malformed or malicious PDU from the RAN side must never crash a gateway
// (fail-soft is a stated property of the wire layer; this enforces it for
// all codecs and store images).
#include <gtest/gtest.h>

#include <memory>

#include "agw/agw.h"
#include "agw/lte_frontend.h"
#include "agw/pipelined.h"
#include "agw/subscriberdb.h"
#include "core/policy.h"
#include "datapath/packet.h"
#include "net/channel.h"
#include "obs/events.h"
#include "obs/host_profiler.h"
#include "obs/sketch/subscriber_sketches.h"
#include "obs/status.h"
#include "obs/tail_sampler.h"
#include "orc8r/metricsd.h"
#include "orc8r/streamer.h"
#include "proto/lte/gtpc.h"
#include "proto/lte/nas.h"
#include "proto/lte/s1ap.h"
#include "proto/nr5g/nas5g.h"
#include "proto/nr5g/ngap.h"
#include "proto/wifi/radius.h"
#include "rpc/wire.h"
#include "sim/random.h"
#include "store/wal_store.h"

namespace magma {
namespace {

common::Bytes random_bytes(sim::Rng& rng, std::size_t max_len) {
  common::Bytes out(rng.uniform_int(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

// Decoders under test, applied to the same inputs.
void decode_everything(common::BytesView data) {
  (void)proto::lte::decode_nas(data);
  (void)proto::lte::decode_s1ap(data);
  (void)proto::lte::decode_gtpc(data);
  (void)proto::nr5g::decode_nas5g(data);
  (void)proto::nr5g::decode_ngap(data);
  (void)proto::wifi::decode_radius(data);
  (void)datapath::Packet::parse(data);
  (void)store::WalStore::deserialize(data);
  (void)agw::SessionFlows::deserialize(data);
  (void)agw::SessionRecord::deserialize(data);
  (void)agw::SubscriberData::deserialize(data);
  (void)core::Policy::deserialize(data);
  (void)orc8r::DesiredState::deserialize(data);
  (void)orc8r::DesiredUpdate::deserialize(data);
  (void)orc8r::GetUpdatesRequest::deserialize(data);
  (void)orc8r::decode_metric_report(data);
  (void)orc8r::decode_histogram_report(data);
  (void)orc8r::decode_telemetry_report(data);
  (void)obs::decode_event_report(data, "gw-fuzz");
  (void)obs::decode_gateway_status(data);
  (void)obs::decode_trace_summaries(data);
  (void)obs::sketch::decode_sketch_report(data);
  (void)net::decode_segment_header(data);
}

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, RandomBytesNeverCrashAnyDecoder) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    decode_everything(random_bytes(rng, 256));
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Range<std::uint64_t>(1, 6));

// Structured mutation: take valid encodings and flip bytes / truncate.
// Decoders must reject or produce *some* valid object — never crash — and
// an unmodified prefix-truncation must never round-trip as valid-and-equal.
TEST(FuzzMutation, BitFlipsOnValidMessages) {
  sim::Rng rng(99);

  proto::lte::AttachAccept accept;
  accept.m_tmsi = 7;
  accept.bearer.pdn_address = common::Ipv4::from_octets(172, 16, 0, 3);
  const common::Bytes nas =
      proto::lte::encode_nas(proto::lte::NasMessage{accept});

  proto::lte::InitialContextSetupRequest ics;
  ics.nas_pdu = nas;
  const common::Bytes s1ap =
      proto::lte::encode_s1ap(proto::lte::S1apMessage{ics});

  for (const common::Bytes& base : {nas, s1ap}) {
    for (int round = 0; round < 500; ++round) {
      common::Bytes mutated = base;
      const int flips = 1 + static_cast<int>(rng.uniform_int(4));
      for (int f = 0; f < flips; ++f) {
        mutated[rng.uniform_int(mutated.size())] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_int(8));
      }
      decode_everything(mutated);
    }
    for (std::size_t keep = 0; keep < base.size(); ++keep) {
      decode_everything(common::BytesView(base.data(), keep));
    }
  }
  SUCCEED();
}

// Segment headers carry the SACK-block and timestamp options across the
// simulated wire. Round trip: every structurally valid header re-decodes
// byte-identically. Garbage: random and mutated bytes must decode to an
// error or a *valid* header (ascending disjoint SACK blocks) — never crash
// and never yield a header the receiver would misinterpret.
TEST(FuzzSegmentHeader, RoundTripAndGarbageSafety) {
  sim::Rng rng(17);
  for (int round = 0; round < 2000; ++round) {
    net::SegmentHeader h;
    h.epoch = rng.next_u64() >> (rng.uniform_int(64));
    h.seq = rng.next_u64() >> (rng.uniform_int(64));
    h.ack = rng.next_u64() >> (rng.uniform_int(64));
    h.ack_epoch = rng.next_u64() >> (rng.uniform_int(64));
    h.is_ack = rng.bernoulli(0.5);
    h.is_rst = rng.bernoulli(0.1);
    if (rng.bernoulli(0.7)) {
      h.has_ts = true;
      h.tsval = static_cast<sim::TimePoint>(rng.uniform_int(1u << 30));
      h.tsecr = static_cast<sim::TimePoint>(rng.uniform_int(1u << 30));
    }
    // Ascending, disjoint, non-empty blocks as the encoder contract asks.
    std::uint64_t cursor = rng.uniform_int(1000);
    const int blocks = static_cast<int>(rng.uniform_int(5));
    for (int b = 0; b < blocks; ++b) {
      net::SackBlock block;
      block.start = cursor + rng.uniform_int(50);
      block.end = block.start + 1 + rng.uniform_int(20);
      cursor = block.end + rng.uniform_int(10);
      h.sack.push_back(block);
    }

    const common::Bytes wire = net::encode_segment_header(h);
    auto decoded = net::decode_segment_header(wire);
    ASSERT_TRUE(decoded.ok());
    const net::SegmentHeader& d = decoded.value();
    EXPECT_EQ(d.epoch, h.epoch);
    EXPECT_EQ(d.seq, h.seq);
    EXPECT_EQ(d.ack, h.ack);
    EXPECT_EQ(d.ack_epoch, h.ack_epoch);
    EXPECT_EQ(d.is_ack, h.is_ack);
    EXPECT_EQ(d.is_rst, h.is_rst);
    EXPECT_EQ(d.has_ts, h.has_ts);
    if (h.has_ts) {
      EXPECT_EQ(d.tsval, h.tsval);
      EXPECT_EQ(d.tsecr, h.tsecr);
    }
    EXPECT_EQ(d.sack, h.sack);
    // Option billing matches the TCP option sizes the comment promises.
    EXPECT_EQ(net::segment_option_bytes(h),
              (h.has_ts ? 10u : 0u) +
                  (h.sack.empty() ? 0u : 2u + 8u * h.sack.size()));

    // Mutations of the valid encoding: reject or produce a valid header.
    common::Bytes mutated = wire;
    const int flips = 1 + static_cast<int>(rng.uniform_int(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.uniform_int(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_int(8));
    }
    auto survived = net::decode_segment_header(mutated);
    if (survived.ok()) {
      std::uint64_t prev_end = 0;
      for (const net::SackBlock& block : survived.value().sack) {
        EXPECT_LT(block.start, block.end);
        EXPECT_GE(block.start, prev_end);
        prev_end = block.end;
      }
    }
    // Truncations of a valid encoding never parse (every prefix is short).
    for (std::size_t keep = 0; keep < wire.size(); ++keep) {
      EXPECT_FALSE(
          net::decode_segment_header(common::BytesView(wire.data(), keep))
              .ok())
          << "prefix " << keep << " parsed as valid";
    }
  }
}

// The checkin payload (gateway Service303 snapshot) crosses the same trust
// boundary as every other wire codec: round-trip structured inputs, then
// mutate and truncate them.
TEST(FuzzGatewayStatus, RoundTripMutationAndTruncation) {
  sim::Rng rng(31);
  for (int round = 0; round < 500; ++round) {
    std::vector<obs::ServiceStatus> services(rng.uniform_int(4));
    for (obs::ServiceStatus& s : services) {
      s.service = std::string(rng.uniform_int(12), 's');
      s.phase = std::string(rng.uniform_int(8), 'p');
      s.uptime = static_cast<sim::Duration>(rng.next_u64() >> 1);
      s.requests = rng.next_u64();
      s.errors = rng.next_u64();
      s.deadlines = rng.next_u64();
      s.last_error = std::string(rng.uniform_int(40), 'e');
      s.last_error_time = static_cast<sim::TimePoint>(rng.next_u64() >> 1);
    }
    const common::Bytes wire = obs::encode_gateway_status(services);
    auto decoded = obs::decode_gateway_status(wire);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value().size(), services.size());
    for (std::size_t i = 0; i < services.size(); ++i) {
      EXPECT_EQ(decoded.value()[i].service, services[i].service);
      EXPECT_EQ(decoded.value()[i].requests, services[i].requests);
      EXPECT_EQ(decoded.value()[i].last_error, services[i].last_error);
    }

    if (!wire.empty()) {
      common::Bytes mutated = wire;
      const int flips = 1 + static_cast<int>(rng.uniform_int(4));
      for (int f = 0; f < flips; ++f) {
        mutated[rng.uniform_int(mutated.size())] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_int(8));
      }
      (void)obs::decode_gateway_status(mutated);  // must never crash
      for (std::size_t keep = 0; keep < wire.size(); ++keep) {
        (void)obs::decode_gateway_status(common::BytesView(wire.data(), keep));
      }
    }
  }
  SUCCEED();
}

// Trace summaries ride the same best-effort magmad→metricsd path as metric
// reports; the decoder must reject truncation and trailing garbage, and a
// hostile per-summary state count must never drive an allocation or a read
// past the buffer.
TEST(FuzzTraceSummary, RoundTripMutationAndTruncation) {
  sim::Rng rng(43);
  for (int round = 0; round < 500; ++round) {
    std::vector<obs::TraceSummary> summaries(rng.uniform_int(4));
    for (obs::TraceSummary& s : summaries) {
      s.root_op = std::string(rng.uniform_int(16), 'o');
      s.root_service = std::string(rng.uniform_int(12), 's');
      s.gateway_id = std::string(rng.uniform_int(10), 'g');
      s.trace_id = rng.next_u64();
      s.start = static_cast<sim::TimePoint>(rng.next_u64() >> 1);
      s.duration = static_cast<sim::Duration>(rng.next_u64() >> 1);
      for (auto& d : s.breakdown) {
        d = static_cast<sim::Duration>(rng.next_u64() >> 1);
      }
    }
    const common::Bytes wire = obs::encode_trace_summaries(summaries);
    auto decoded = obs::decode_trace_summaries(wire);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value().size(), summaries.size());
    for (std::size_t i = 0; i < summaries.size(); ++i) {
      EXPECT_EQ(decoded.value()[i].root_op, summaries[i].root_op);
      EXPECT_EQ(decoded.value()[i].trace_id, summaries[i].trace_id);
      EXPECT_EQ(decoded.value()[i].duration, summaries[i].duration);
      EXPECT_EQ(decoded.value()[i].breakdown, summaries[i].breakdown);
    }

    // Truncations are short by construction — every prefix must be rejected.
    for (std::size_t keep = 0; keep < wire.size(); ++keep) {
      EXPECT_FALSE(
          obs::decode_trace_summaries(common::BytesView(wire.data(), keep))
              .ok())
          << "prefix " << keep << " parsed as valid";
    }
    // Trailing garbage after a valid report: at_end() must catch it.
    common::Bytes padded = wire;
    padded.push_back(0x5a);
    EXPECT_FALSE(obs::decode_trace_summaries(padded).ok());
    // Bit flips: reject or decode, never crash.
    if (!wire.empty()) {
      common::Bytes mutated = wire;
      const int flips = 1 + static_cast<int>(rng.uniform_int(4));
      for (int f = 0; f < flips; ++f) {
        mutated[rng.uniform_int(mutated.size())] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_int(8));
      }
      (void)obs::decode_trace_summaries(mutated);
    }
  }
  SUCCEED();
}

TEST(FuzzTraceSummary, HostileLengthsRejectedWithoutAllocating) {
  // A count field claiming 2^61 summaries in a 16-byte buffer: the capped
  // reserve must not trust it, and the decode must fail cleanly.
  {
    common::Bytes hostile(16, 0xff);
    EXPECT_FALSE(obs::decode_trace_summaries(hostile).ok());
  }
  // A valid single summary whose wait-state count claims more i64s than the
  // buffer holds: the oversized-summary guard must reject it.
  {
    obs::TraceSummary s;
    s.root_op = "attach";
    common::Bytes wire = obs::encode_trace_summaries({s});
    // The state-count byte precedes the 6 × 8 breakdown bytes at the tail.
    wire[wire.size() - 1 - 8 * obs::kWaitStateCount] = 0xff;
    EXPECT_FALSE(obs::decode_trace_summaries(wire).ok());
  }
  // Huge string length prefix inside an otherwise plausible report.
  {
    obs::TraceSummary s;
    s.root_op = "attach";
    s.root_service = "lte_frontend";
    common::Bytes wire = obs::encode_trace_summaries({s});
    // The first string length lives right after the 8-byte count.
    for (std::size_t i = 8; i < 16 && i < wire.size(); ++i) wire[i] = 0xff;
    EXPECT_FALSE(obs::decode_trace_summaries(wire).ok());
  }
}

// The sketch report is the newest magmad→metricsd payload; a hostile or
// corrupted report must never crash metricsd, never drive an unbounded
// allocation, and never decode into a sketch violating its own invariants
// (error bound exceeding the count estimate, out-of-range capacity).
TEST(FuzzSketchReport, RoundTripMutationAndTruncation) {
  sim::Rng rng(71);
  for (int round = 0; round < 200; ++round) {
    obs::sketch::SketchConfig config;
    config.topk_capacity = 4 + rng.uniform_int(12);
    obs::sketch::SubscriberSketches sketches(config);
    const std::uint64_t keys = rng.uniform_int(40);
    for (std::uint64_t i = 0; i < keys; ++i) {
      const common::Imsi imsi =
          common::Imsi::from_digits(1010000000000ULL + rng.uniform_int(25));
      const auto metric = static_cast<obs::sketch::SubscriberMetric>(
          rng.uniform_int(obs::sketch::kSubscriberMetricCount));
      sketches.record(metric, imsi.value, 1 + rng.uniform_int(9),
                      rng.next_u64());
      sketches.record_active(imsi.value, static_cast<sim::TimePoint>(i));
    }

    const obs::sketch::SketchReport report =
        sketches.snapshot("gw-fuzz", 1000);
    const common::Bytes wire = obs::sketch::encode_sketch_report(report);
    auto decoded = obs::sketch::decode_sketch_report(wire);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().gateway_id, report.gateway_id);
    EXPECT_EQ(decoded.value().time, report.time);
    EXPECT_EQ(decoded.value().topk_capacity, report.topk_capacity);
    for (std::size_t m = 0; m < obs::sketch::kSubscriberMetricCount; ++m) {
      const auto want = report.topk[m].top();
      const auto got = decoded.value().topk[m].top();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].key, want[i].key);
        EXPECT_EQ(got[i].count, want[i].count);
        EXPECT_EQ(got[i].error, want[i].error);
        EXPECT_EQ(got[i].exemplar_trace_id, want[i].exemplar_trace_id);
      }
      EXPECT_EQ(decoded.value().topk[m].total_weight(),
                report.topk[m].total_weight());
    }
    EXPECT_EQ(decoded.value().active_total.registers(),
              report.active_total.registers());
    EXPECT_EQ(decoded.value().active_window.registers(),
              report.active_window.registers());

    // Every strict prefix cuts a read short somewhere — all must fail.
    // The sweep is quadratic in the ~11 KB wire (the HLL registers), so
    // run it on a handful of differently-shaped reports, not all 200.
    if (round < 3) {
      for (std::size_t keep = 0; keep < wire.size(); ++keep) {
        EXPECT_FALSE(obs::sketch::decode_sketch_report(
                         common::BytesView(wire.data(), keep))
                         .ok())
            << "prefix " << keep << " parsed as valid";
      }
    }
    // Trailing garbage after a valid report: at_end() must catch it.
    common::Bytes padded = wire;
    padded.push_back(0xc3);
    EXPECT_FALSE(obs::sketch::decode_sketch_report(padded).ok());
    // Bit flips: reject, or decode into a report that still holds the
    // sketch invariants — never crash, never yield error > count.
    common::Bytes mutated = wire;
    const int flips = 1 + static_cast<int>(rng.uniform_int(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.uniform_int(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_int(8));
    }
    auto survived = obs::sketch::decode_sketch_report(mutated);
    if (survived.ok()) {
      EXPECT_GE(survived.value().topk_capacity, 1u);
      EXPECT_LE(survived.value().topk_capacity, 4096u);
      for (const obs::sketch::SpaceSaving& s : survived.value().topk) {
        for (const obs::sketch::HeavyHitter& h : s.top()) {
          EXPECT_LE(h.error, h.count);
        }
      }
    }
  }
}

TEST(FuzzSketchReport, HostileFieldsRejectedWithoutAllocating) {
  // Hostile K: capacity 0 (a divide-by-nothing sketch) and capacity 2^32-1
  // (a reserve bomb) must both be rejected at the header.
  for (const std::uint32_t capacity : {0u, 0xffffffffu, 4097u}) {
    rpc::Writer w;
    w.str("gw0");
    w.i64(0);
    w.u32(capacity);
    w.u8(0);
    EXPECT_FALSE(
        obs::sketch::decode_sketch_report(std::move(w).take()).ok());
  }
  // A metric-set width claiming 255 sketches.
  {
    rpc::Writer w;
    w.str("gw0");
    w.i64(0);
    w.u32(8);
    w.u8(0xff);
    EXPECT_FALSE(
        obs::sketch::decode_sketch_report(std::move(w).take()).ok());
  }
  // An entry count claiming 2^32-1 heavy hitters in an empty buffer: the
  // bounded reserve must not trust it.
  {
    rpc::Writer w;
    w.str("gw0");
    w.i64(0);
    w.u32(8);
    w.u8(1);
    w.u64(0);           // total weight
    w.u32(0xffffffff);  // hostile entry count, no entry bytes follow
    EXPECT_FALSE(
        obs::sketch::decode_sketch_report(std::move(w).take()).ok());
  }
  // An entry whose error bound exceeds its count estimate: accepting it
  // would let one gateway poison the fleet-wide lower bounds.
  {
    rpc::Writer w;
    w.str("gw0");
    w.i64(0);
    w.u32(8);
    w.u8(1);
    w.u64(10);  // total weight
    w.u32(1);
    w.str("IMSI001010000000001");
    w.u64(3);   // count...
    w.u64(7);   // ...below the claimed error
    w.u64(0);
    EXPECT_FALSE(
        obs::sketch::decode_sketch_report(std::move(w).take()).ok());
  }
  // An HLL claiming precision 40 (a 2^40-register reserve bomb), and one
  // whose register payload disagrees with its declared precision.
  {
    rpc::Writer w;
    w.str("gw0");
    w.i64(0);
    w.u32(8);
    w.u8(0);
    w.u8(40);  // hostile precision
    w.bytes(common::BytesView{});
    EXPECT_FALSE(
        obs::sketch::decode_sketch_report(std::move(w).take()).ok());
  }
  {
    rpc::Writer w;
    w.str("gw0");
    w.i64(0);
    w.u32(8);
    w.u8(0);
    w.u8(12);  // claims 4096 registers...
    const common::Bytes regs(16, 0);  // ...ships 16
    w.bytes(common::BytesView(regs.data(), regs.size()));
    EXPECT_FALSE(
        obs::sketch::decode_sketch_report(std::move(w).take()).ok());
  }
}

// The telemetry envelope carries every magmad metrics tick: the gateway id
// plus five length-prefixed sections, each one of the codecs above. The
// envelope must reject truncation, trailing bytes and section lengths past
// the buffer on its own (no section is credited with the drop); a section
// its own codec rejects, or one with an item naming another gateway, fails
// the whole report and names that section (events name none: they are not
// metricsd data).
TEST(FuzzTelemetryReport, RoundTripTruncationAndHostileSections) {
  orc8r::TelemetryReport report;
  report.gateway_id = "gw-fuzz";
  report.samples.push_back(
      orc8r::MetricSample{"gw-fuzz", "active_sessions", 3.0, 10});
  orc8r::HistogramSnapshot hist;
  hist.gateway_id = "gw-fuzz";
  hist.name = "attach_s";
  hist.bounds = {0.1, 1.0};
  hist.counts = {1, 2, 3};
  hist.sum = 4.2;
  hist.time = 10;
  hist.exemplars = {{1, 0xabc}};
  report.histograms.push_back(hist);
  obs::TraceSummary summary;
  summary.root_op = "attach";
  summary.gateway_id = "gw-fuzz";
  summary.trace_id = 7;
  summary.duration = 5 * sim::kMillisecond;
  report.summaries.push_back(summary);
  obs::sketch::SubscriberSketches sketches;
  sketches.record(obs::sketch::SubscriberMetric::kAttachFailures,
                  "IMSI001010000000001", 3, 0xe1);
  report.sketch = sketches.snapshot("gw-fuzz", 10);
  obs::Event event;
  event.time = 9;
  event.gateway_id = "gw-fuzz";
  event.type = "attach_success";
  event.source = "lte_frontend";
  event.message = "IMSI001010000000001";
  event.severity = obs::EventSeverity::kWarn;
  event.trace = obs::TraceContext{41, 42};
  report.events.push_back(event);

  const common::Bytes wire = orc8r::encode_telemetry_report(report);
  auto decoded = orc8r::decode_telemetry_report(wire);
  ASSERT_TRUE(decoded.ok());
  const orc8r::TelemetryReport& got = decoded.value();
  EXPECT_EQ(got.gateway_id, "gw-fuzz");
  ASSERT_EQ(got.samples.size(), 1u);
  EXPECT_EQ(got.samples[0].name, "active_sessions");
  EXPECT_EQ(got.samples[0].value, 3.0);
  ASSERT_EQ(got.histograms.size(), 1u);
  EXPECT_EQ(got.histograms[0].bounds, hist.bounds);
  EXPECT_EQ(got.histograms[0].counts, hist.counts);
  EXPECT_EQ(got.histograms[0].exemplars, hist.exemplars);
  ASSERT_EQ(got.summaries.size(), 1u);
  EXPECT_EQ(got.summaries[0].trace_id, 7u);
  EXPECT_EQ(got.summaries[0].duration, summary.duration);
  ASSERT_TRUE(got.sketch.has_value());
  EXPECT_EQ(got.sketch->gateway_id, "gw-fuzz");
  const auto top = got.sketch
                       ->topk[static_cast<std::size_t>(
                           obs::sketch::SubscriberMetric::kAttachFailures)]
                       .top();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].count, 3u);
  ASSERT_EQ(got.events.size(), 1u);
  EXPECT_EQ(got.events[0].gateway_id, "gw-fuzz");
  EXPECT_EQ(got.events[0].time, 9);
  EXPECT_EQ(got.events[0].type, "attach_success");
  EXPECT_EQ(got.events[0].source, "lte_frontend");
  EXPECT_EQ(got.events[0].message, "IMSI001010000000001");
  EXPECT_EQ(got.events[0].severity, obs::EventSeverity::kWarn);
  EXPECT_EQ(got.events[0].trace.trace_id, 41u);
  EXPECT_EQ(got.events[0].trace.span_id, 42u);
  // A zero-length sketch section is "no sketch", not an empty one.
  orc8r::TelemetryReport no_sketch = report;
  no_sketch.sketch.reset();
  auto without = orc8r::decode_telemetry_report(
      orc8r::encode_telemetry_report(no_sketch));
  ASSERT_TRUE(without.ok());
  EXPECT_FALSE(without.value().sketch.has_value());

  // Every strict prefix cuts the envelope short; none may decode, and none
  // is blamed on a section.
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    std::optional<orc8r::Metricsd::DropKind> section;
    EXPECT_FALSE(orc8r::decode_telemetry_report(
                     common::BytesView(wire.data(), keep), &section)
                     .ok())
        << "prefix " << keep << " parsed as valid";
    EXPECT_FALSE(section.has_value()) << "prefix " << keep;
  }
  // Trailing garbage after the last section: at_end() must catch it.
  {
    common::Bytes padded = wire;
    padded.push_back(0x7e);
    std::optional<orc8r::Metricsd::DropKind> section;
    EXPECT_FALSE(orc8r::decode_telemetry_report(padded, &section).ok());
    EXPECT_FALSE(section.has_value());
  }
  // A hostile section length (the samples section's u32 prefix, right
  // after the gateway id) claims 4 GB: rejected without allocating it.
  {
    common::Bytes hostile = wire;
    const std::size_t at = 4 + report.gateway_id.size();
    for (std::size_t i = at; i < at + 4; ++i) hostile[i] = 0xff;
    std::optional<orc8r::Metricsd::DropKind> section;
    EXPECT_FALSE(orc8r::decode_telemetry_report(hostile, &section).ok());
    EXPECT_FALSE(section.has_value());
  }
  // Each section in turn carries bytes its own codec rejects: the whole
  // report fails and the section's drop kind comes back.
  const common::Bytes sections[] = {
      orc8r::encode_metric_report(report.samples),
      orc8r::encode_histogram_report(report.histograms),
      obs::encode_trace_summaries(report.summaries),
      obs::sketch::encode_sketch_report(*report.sketch),
      obs::encode_event_report(report.events)};
  const std::optional<orc8r::Metricsd::DropKind> kinds[] = {
      orc8r::Metricsd::DropKind::kMetric,
      orc8r::Metricsd::DropKind::kHistogram,
      orc8r::Metricsd::DropKind::kTraceSummary,
      orc8r::Metricsd::DropKind::kSketch, std::nullopt};
  for (std::size_t bad = 0; bad < 5; ++bad) {
    rpc::Writer w;
    w.str("gw-fuzz");
    for (std::size_t i = 0; i < 5; ++i) {
      w.bytes(i == bad ? common::Bytes{0xde, 0xad} : sections[i]);
    }
    std::optional<orc8r::Metricsd::DropKind> section;
    EXPECT_FALSE(
        orc8r::decode_telemetry_report(std::move(w).take(), &section).ok());
    EXPECT_EQ(section, kinds[bad]) << "section " << bad;
  }
  // Each section in turn carries a well-formed item naming another gateway:
  // the whole report fails and the section's drop kind comes back.
  for (std::size_t foreign = 0; foreign < 4; ++foreign) {
    orc8r::TelemetryReport spoofed = report;
    switch (foreign) {
      case 0: spoofed.samples[0].gateway_id = "gw-other"; break;
      case 1: spoofed.histograms[0].gateway_id = "gw-other"; break;
      case 2: spoofed.summaries[0].gateway_id = "gw-other"; break;
      default: spoofed.sketch->gateway_id = "gw-other"; break;
    }
    std::optional<orc8r::Metricsd::DropKind> section;
    EXPECT_FALSE(orc8r::decode_telemetry_report(
                     orc8r::encode_telemetry_report(spoofed), &section)
                     .ok())
        << "section " << foreign;
    EXPECT_EQ(section, kinds[foreign]) << "section " << foreign;
  }
  // The events section carries no gateway ids at all: an event its encoder
  // was handed under another gateway's id decodes as the envelope's.
  {
    orc8r::TelemetryReport spoofed = report;
    spoofed.events[0].gateway_id = "gw-other";
    auto stamped = orc8r::decode_telemetry_report(
        orc8r::encode_telemetry_report(spoofed));
    ASSERT_TRUE(stamped.ok());
    EXPECT_EQ(stamped.value().events[0].gateway_id, "gw-fuzz");
  }
  // A hostile event count (the section's leading u64) claims 2^64 - 1
  // events: rejected before any event storage is allocated.
  {
    common::Bytes hostile = sections[4];
    for (std::size_t i = 0; i < 8; ++i) hostile[i] = 0xff;
    const std::uint64_t bytes_before =
        obs::HostProfiler::process_alloc_bytes();
    EXPECT_FALSE(obs::decode_event_report(hostile, "gw-fuzz").ok());
    EXPECT_LT(obs::HostProfiler::process_alloc_bytes() - bytes_before,
              sizeof(obs::Event));
    rpc::Writer w;
    w.str("gw-fuzz");
    for (std::size_t i = 0; i < 4; ++i) w.bytes(sections[i]);
    w.bytes(hostile);
    EXPECT_FALSE(orc8r::decode_telemetry_report(std::move(w).take()).ok());
  }
  // Bit flips: reject or decode, never crash.
  sim::Rng rng(29);
  for (int round = 0; round < 300; ++round) {
    common::Bytes mutated = wire;
    const int flips = 1 + static_cast<int>(rng.uniform_int(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.uniform_int(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_int(8));
    }
    (void)orc8r::decode_telemetry_report(mutated);
  }
}

// The delta-stream envelope is what every GetUpdates poll decodes on the
// gateway side; it crosses the same trust boundary as the full-state codec.
TEST(FuzzDeltaStream, UpdateRoundTripMutationAndTruncation) {
  sim::Rng rng(57);
  for (int round = 0; round < 500; ++round) {
    orc8r::DesiredUpdate u;
    u.version = rng.next_u64() >> 1;
    u.epoch = rng.next_u64() >> 1;
    const std::uint64_t pick = rng.uniform_int(3);
    u.mode = static_cast<orc8r::SyncMode>(pick);
    if (u.mode == orc8r::SyncMode::kDelta) {
      const std::uint64_t entries = rng.uniform_int(4);
      for (std::uint64_t i = 0; i < entries; ++i) {
        orc8r::DeltaEntry e;
        e.kind = rng.bernoulli(0.5) ? orc8r::DeltaEntry::Kind::kSubscriber
                                    : orc8r::DeltaEntry::Kind::kPolicy;
        e.remove = rng.bernoulli(0.3);
        e.key = std::string(rng.uniform_int(16), 'k');
        if (!e.remove) e.blob = random_bytes(rng, 32);
        u.entries.push_back(std::move(e));
      }
    } else if (u.mode == orc8r::SyncMode::kFull) {
      u.full = random_bytes(rng, 64);
    }

    const common::Bytes wire = u.serialize();
    auto decoded = orc8r::DesiredUpdate::deserialize(wire);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().version, u.version);
    EXPECT_EQ(decoded.value().epoch, u.epoch);
    EXPECT_EQ(decoded.value().mode, u.mode);
    EXPECT_EQ(decoded.value().full, u.full);
    ASSERT_EQ(decoded.value().entries.size(), u.entries.size());
    for (std::size_t i = 0; i < u.entries.size(); ++i) {
      EXPECT_EQ(decoded.value().entries[i].kind, u.entries[i].kind);
      EXPECT_EQ(decoded.value().entries[i].remove, u.entries[i].remove);
      EXPECT_EQ(decoded.value().entries[i].key, u.entries[i].key);
      EXPECT_EQ(decoded.value().entries[i].blob, u.entries[i].blob);
    }

    // Every strict prefix is short somewhere — all must be rejected.
    for (std::size_t keep = 0; keep < wire.size(); ++keep) {
      EXPECT_FALSE(orc8r::DesiredUpdate::deserialize(
                       common::BytesView(wire.data(), keep))
                       .ok())
          << "prefix " << keep << " parsed as valid";
    }
    // Trailing garbage after a valid envelope: at_end() must catch it.
    common::Bytes padded = wire;
    padded.push_back(0xa5);
    EXPECT_FALSE(orc8r::DesiredUpdate::deserialize(padded).ok());
    // Bit flips: reject or decode to *some* in-range envelope, never crash.
    common::Bytes mutated = wire;
    const int flips = 1 + static_cast<int>(rng.uniform_int(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.uniform_int(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_int(8));
    }
    auto survived = orc8r::DesiredUpdate::deserialize(mutated);
    if (survived.ok()) {
      EXPECT_LE(static_cast<std::uint8_t>(survived.value().mode), 2);
      for (const orc8r::DeltaEntry& e : survived.value().entries) {
        EXPECT_LE(static_cast<std::uint8_t>(e.kind), 1);
        if (e.remove) {
          EXPECT_TRUE(e.blob.empty());
        }
      }
    }
  }
  SUCCEED();
}

TEST(FuzzDeltaStream, HostileLengthsRejectedWithoutAllocating) {
  // A kDelta header whose entry count claims 2^64-1 entries in an empty
  // payload: the capped reserve must not trust it, and the loop must stop
  // at the first failed read.
  {
    rpc::Writer w;
    w.u64(1);                   // version
    w.u64(1);                   // epoch
    w.u8(2);                    // kDelta
    common::Bytes wire = std::move(w).take();
    for (int i = 0; i < 8; ++i) wire.push_back(0xff);  // count = 2^64-1
    EXPECT_FALSE(orc8r::DesiredUpdate::deserialize(wire).ok());
  }
  // An out-of-range mode byte.
  {
    rpc::Writer w;
    w.u64(1);
    w.u64(1);
    w.u8(3);
    EXPECT_FALSE(
        orc8r::DesiredUpdate::deserialize(std::move(w).take()).ok());
  }
  // A remove entry smuggling a blob (an encoder never emits this; a decoder
  // accepting it would let one wire bit resurrect a deleted subscriber).
  {
    rpc::Writer w;
    w.u64(1);
    w.u64(1);
    w.u8(2);            // kDelta
    w.u64(1);           // one entry
    w.u8(0);            // kSubscriber
    w.boolean(true);    // remove...
    w.str("001010000000001");
    w.bytes(common::to_bytes("zombie"));  // ...with a payload
    EXPECT_FALSE(
        orc8r::DesiredUpdate::deserialize(std::move(w).take()).ok());
  }
  // Truncated GetUpdatesRequest prefixes never parse.
  {
    orc8r::GetUpdatesRequest req;
    req.gateway_id = "gw0";
    req.have_version = 12;
    req.have_epoch = 2;
    const common::Bytes wire = req.serialize();
    for (std::size_t keep = 0; keep < wire.size(); ++keep) {
      EXPECT_FALSE(orc8r::GetUpdatesRequest::deserialize(
                       common::BytesView(wire.data(), keep))
                       .ok());
    }
  }
}

TEST(FuzzMutation, TruncatedDesiredStateAlwaysRejected) {
  orc8r::DesiredState state;
  state.version = 3;
  agw::SubscriberData sub;
  sub.imsi = common::Imsi::from_digits(1010000000001ULL);
  state.subscribers.push_back(sub);
  state.policies.push_back(core::unlimited_policy());
  const common::Bytes wire = state.serialize();
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    EXPECT_FALSE(orc8r::DesiredState::deserialize(
                     common::BytesView(wire.data(), keep))
                     .ok())
        << "prefix " << keep << " parsed as valid";
  }
}

// Flip 1-4 random bits of a non-empty encoding.
common::Bytes flip_bits(sim::Rng& rng, common::Bytes wire) {
  const int flips = 1 + static_cast<int>(rng.uniform_int(4));
  for (int f = 0; f < flips; ++f) {
    wire[rng.uniform_int(wire.size())] ^=
        static_cast<std::uint8_t>(1u << rng.uniform_int(8));
  }
  return wire;
}

// The AGW checkpoint is the image a backup gateway loads (§3.3): the
// session record, sessiond's image and the whole-gateway image must each
// round-trip byte for byte and reject every strict prefix and any trailing
// byte. A restore that fails — on those or on bit flips — leaves the
// restoring instance exactly as it was.
TEST(FuzzCheckpoint, RoundTripTruncationTrailingAndBitFlips) {
  sim::Kernel kernel;
  sim::Rng rng(61);
  agw::AccessGateway origin(kernel, common::GatewayId{"gw-origin"},
                            agw::virtual_xeon(2), sim::Rng(1));
  std::vector<agw::SubscriberData> config;
  for (std::uint64_t n = 0; n < 6; ++n) {
    agw::SubscriberData sub;
    sub.imsi = common::Imsi::from_digits(1010000000000ULL + n);
    config.push_back(sub);
  }
  origin.subscriberdb().replace_all(config);
  const std::uint32_t base = origin.profile().ip_block.base.addr;
  for (std::uint32_t n = 0; n < 4; ++n) {
    ASSERT_TRUE(origin.subscriberdb().generate_auth_vector(config[n].imsi)
                    .ok());
    agw::Sessiond::CreateRequest req;
    req.imsi = config[n].imsi;
    req.ue_ip = common::Ipv4{base + 1 + n};
    req.agw_teid_ul = common::Teid{0x100 + n};
    req.enb_teid_dl = common::Teid{0x200 + n};
    req.policy = n % 2 == 0 ? core::unlimited_policy()
                            : core::tiered_policy(1'000'000, 1 << 20, 1000);
    ASSERT_TRUE(origin.sessiond().create_session(req).ok());
  }
  const common::Bytes record =
      origin.sessiond().find(config[1].imsi)->serialize();
  const common::Bytes sessions = origin.sessiond().checkpoint();
  const common::Bytes image = origin.checkpoint();

  // Session record.
  {
    auto decoded = agw::SessionRecord::deserialize(record);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().serialize(), record);
    for (std::size_t keep = 0; keep < record.size(); ++keep) {
      EXPECT_FALSE(agw::SessionRecord::deserialize(
                       common::BytesView(record.data(), keep))
                       .ok())
          << "prefix " << keep;
    }
    common::Bytes trailing = record;
    trailing.push_back(0);
    EXPECT_FALSE(agw::SessionRecord::deserialize(trailing).ok());
    for (int round = 0; round < 500; ++round) {
      auto mutated = agw::SessionRecord::deserialize(flip_bits(rng, record));
      if (mutated.ok()) (void)mutated.value().serialize();
    }
  }

  // sessiond's image, restored into a scratch sessiond.
  {
    agw::Pipelined pipelined;
    agw::Sessiond sessiond(kernel, pipelined, nullptr);
    const common::Bytes empty = sessiond.checkpoint();
    for (std::size_t keep = 0; keep < sessions.size(); ++keep) {
      EXPECT_FALSE(
          sessiond.restore(common::BytesView(sessions.data(), keep)).ok())
          << "prefix " << keep;
    }
    common::Bytes trailing = sessions;
    trailing.push_back(0);
    EXPECT_FALSE(sessiond.restore(trailing).ok());
    EXPECT_EQ(sessiond.checkpoint(), empty);
    EXPECT_EQ(pipelined.session_count(), 0u);
    for (int round = 0; round < 500; ++round) {
      const common::Bytes before = sessiond.checkpoint();
      if (!sessiond.restore(flip_bits(rng, sessions)).ok()) {
        EXPECT_EQ(sessiond.checkpoint(), before);
      }
    }
    ASSERT_TRUE(sessiond.restore(sessions).ok());
    EXPECT_EQ(sessiond.checkpoint(), sessions);
  }

  // The whole-gateway image, restored onto a synced backup.
  const auto synced_backup = [&]() {
    auto backup = std::make_unique<agw::AccessGateway>(
        kernel, common::GatewayId{"gw-backup"}, agw::virtual_xeon(2),
        sim::Rng(2));
    backup->subscriberdb().replace_all(config);
    return backup;
  };
  std::unique_ptr<agw::AccessGateway> fresh = synced_backup();
  agw::AccessGateway& backup = *fresh;
  const common::Bytes empty = backup.checkpoint();
  for (std::size_t keep = 0; keep < image.size(); ++keep) {
    EXPECT_FALSE(backup.restore(common::BytesView(image.data(), keep)).ok())
        << "prefix " << keep;
  }
  for (int round = 0; round < 50; ++round) {
    common::Bytes trailing = image;
    const common::Bytes garbage = random_bytes(rng, 16);
    trailing.insert(trailing.end(), garbage.begin(), garbage.end());
    trailing.push_back(static_cast<std::uint8_t>(round));
    EXPECT_FALSE(backup.restore(trailing).ok());
  }
  EXPECT_EQ(backup.checkpoint(), empty);
  for (int round = 0; round < 1000; ++round) {
    const common::Bytes before = backup.checkpoint();
    if (!backup.restore(flip_bits(rng, image)).ok()) {
      EXPECT_EQ(backup.checkpoint(), before);
    }
  }
  // A restored flip may have raised an SQN for good: round-trip on a new
  // backup.
  fresh = synced_backup();
  ASSERT_TRUE(fresh->restore(image).ok());
  EXPECT_EQ(fresh->checkpoint(), image);
}

// A hostile RAN peer sprays garbage at a live front-end; the AGW must keep
// serving (the §3.1 "terminate protocols at the edge" boundary is also a
// robustness boundary).
TEST(FuzzFrontend, GarbageOnS1DoesNotKillTheAgw) {
  sim::Kernel kernel;
  sim::Rng rng(7);
  net::DuplexLink link(kernel, rng, sim::lan_link());
  net::ReliablePair channels = net::make_reliable_pair(kernel, link);

  sim::Rng db_rng(8);
  agw::SubscriberDb subscribers([&db_rng]() { return db_rng.next_u64(); });
  agw::PolicyDb policies;
  agw::Mobilityd mobilityd{agw::IpBlock{}};
  agw::Pipelined pipelined;
  agw::Sessiond sessiond(kernel, pipelined, nullptr);
  agw::Accessd accessd(kernel, nullptr, subscribers, policies, mobilityd,
                       sessiond);
  agw::LteFrontend frontend(kernel, accessd, sessiond,
                            common::Ipv4::from_octets(10, 1, 0, 1));
  frontend.add_enb_channel(*channels.b);

  sim::Rng fuzz(123);
  for (int i = 0; i < 1000; ++i) {
    channels.a->send(random_bytes(fuzz, 128));
  }
  kernel.run();
  EXPECT_GE(frontend.stats().decode_errors, 0u);  // alive to report stats
  EXPECT_EQ(sessiond.active_sessions(), 0u);      // and nothing leaked in
}

}  // namespace
}  // namespace magma
