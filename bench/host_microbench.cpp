// Host-cost microbench: price the simulator's core primitives in *wall*
// nanoseconds and allocations per operation, and emit BENCH_host.json — the
// release-over-release artifact `bench/bench_compare` diffs to catch host
// performance regressions (ROADMAP: "raw simulator speed").
//
// Six primitives, spanning every layer the HostProfiler instruments:
//   1. event_schedule_dispatch — sim::Kernel schedule + heap pop + callback
//   2. packet_route            — cached datapath walk (OVS-style microflow)
//   3. reliable_roundtrip      — one message each way over net::ReliablePair
//   4. lte_attach              — full attach through core::Network
//   5. streamer_delta_apply    — magmad applying a config delta (priced from
//                                the HostProfiler's (magmad, apply_delta)
//                                label — the tentpole instrument in action)
//   6. checkin_drain           — a 1000-gateway checkin wave through the
//                                orchestrator's ingest queue
//
// `--quick` shrinks iteration counts for the ctest smoke target; the JSON
// schema (key set) is identical in both modes, and the binary re-parses its
// own output through obs::flatten_json_numbers before reporting success.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agw/magmad.h"
#include "agw/pipelined.h"
#include "bench_util.h"
#include "net/channel.h"
#include "obs/bench_json.h"
#include "obs/host_profiler.h"
#include "orc8r/orchestrator.h"

using namespace magma;

namespace {

struct Metric {
  std::string key;
  double value;
};

std::vector<Metric> g_metrics;

void emit(const std::string& key, double value) {
  g_metrics.push_back(Metric{key, value});
  std::printf("  %-34s %14.1f\n", key.c_str(), value);
}

// Allocation + wall-clock window around one primitive's loop.
struct Window {
  std::uint64_t t0 = obs::HostProfiler::now_ns();
  std::uint64_t a0 = obs::HostProfiler::process_alloc_count();
  std::uint64_t b0 = obs::HostProfiler::process_alloc_bytes();

  void price(const char* name, std::uint64_t ops) const {
    const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
    emit(std::string(name) + "_ns",
         static_cast<double>(obs::HostProfiler::now_ns() - t0) / n);
    emit(std::string(name) + "_allocs",
         static_cast<double>(obs::HostProfiler::process_alloc_count() - a0) /
             n);
    emit(std::string(name) + "_alloc_bytes",
         static_cast<double>(obs::HostProfiler::process_alloc_bytes() - b0) /
             n);
  }
};

// --- 1: kernel event schedule + dispatch ------------------------------------

void bench_event_schedule_dispatch(bool quick) {
  const int n = quick ? 20000 : 200000;
  sim::Kernel kernel;
  std::uint64_t sink = 0;
  const Window w;
  for (int i = 0; i < n; ++i) {
    kernel.schedule(static_cast<sim::Duration>(i % 1000) * sim::kMicrosecond,
                    [&sink]() { ++sink; });
  }
  kernel.run_until(2 * sim::kSecond);
  w.price("event_schedule_dispatch", static_cast<std::uint64_t>(n));
  if (sink != static_cast<std::uint64_t>(n)) {
    std::printf("  WARNING: only %llu/%d events dispatched\n",
                static_cast<unsigned long long>(sink), n);
  }
}

// --- 2: cached datapath packet route ----------------------------------------

agw::SessionFlows make_session(std::uint64_t cookie) {
  agw::SessionFlows f;
  f.cookie = cookie;
  f.ue_ip = common::Ipv4{0xAC100000u + static_cast<std::uint32_t>(cookie)};
  f.agw_teid_ul = common::Teid{static_cast<std::uint32_t>(cookie)};
  f.enb_teid_dl = common::Teid{static_cast<std::uint32_t>(cookie + 65536)};
  f.enb_address = common::Ipv4::from_octets(10, 100, 0, 1);
  // Generous meters: this primitive prices the cached table walk, not the
  // rate limiter (micro_benchmarks has the meter ablations).
  f.dl_rate_bps = 1e12;
  f.ul_rate_bps = 1e12;
  return f;
}

void bench_packet_route(bool quick) {
  const int n = quick ? 20000 : 200000;
  agw::Pipelined pd;
  for (std::uint64_t c = 1; c <= 100; ++c) {
    pd.install_session(make_session(c), 0).ok();
  }
  const datapath::Packet pkt = datapath::make_udp(
      common::Ipv4::from_octets(8, 8, 8, 8), common::Ipv4{0xAC100000u + 51},
      443, 40000, 1400);
  sim::TimePoint now = 0;
  std::uint64_t forwarded = 0;
  const Window w;
  for (int i = 0; i < n; ++i) {
    now += sim::kMicrosecond;
    const datapath::PipelineResult r =
        pd.pipeline().process(pkt, datapath::Direction::kDownlink, now);
    forwarded += r.verdict == datapath::Verdict::kForwarded ? 1 : 0;
  }
  w.price("packet_route", static_cast<std::uint64_t>(n));
  if (forwarded != static_cast<std::uint64_t>(n)) {
    std::printf("  WARNING: %llu/%d packets forwarded\n",
                static_cast<unsigned long long>(forwarded), n);
  }
}

// --- 3: reliable-channel round trip -----------------------------------------

void bench_reliable_roundtrip(bool quick) {
  const int rounds = quick ? 200 : 2000;
  sim::Kernel kernel;
  sim::Rng rng(7);
  net::DuplexLink link(kernel, rng, sim::fiber_backhaul());
  net::ReliablePair pair = net::make_reliable_pair(kernel, link);
  int completed = 0;
  pair.b->set_receiver(
      [&pair](common::Bytes msg) { pair.b->send(std::move(msg)); });
  pair.a->set_receiver([&pair, &completed, rounds](common::Bytes msg) {
    if (++completed < rounds) pair.a->send(std::move(msg));
  });
  const Window w;
  pair.a->send(common::Bytes(64, 0x5a));
  kernel.run_until(static_cast<sim::Duration>(rounds) * sim::kSecond);
  w.price("reliable_roundtrip", static_cast<std::uint64_t>(completed));
  if (completed != rounds) {
    std::printf("  WARNING: %d/%d round trips completed\n", completed, rounds);
  }
}

// --- 4: full LTE attach -------------------------------------------------------

void bench_lte_attach(bool quick) {
  const int n = quick ? 10 : 100;
  core::Network net;
  agw::AccessGateway& agw = net.add_agw(agw::bare_metal_j3160());
  ran::EnodeB& enb = net.add_enodeb(agw);
  (void)agw;
  std::vector<ran::UeLte*> ues = benchutil::provision_lte_ues(net, n);
  int attached = 0;
  const Window w;
  for (int i = 0; i < n; ++i) {
    net.kernel().schedule(
        static_cast<sim::Duration>(i) * 50 * sim::kMillisecond,
        [&ues, &enb, &attached, i]() {
          ues[static_cast<std::size_t>(i)]->attach(
              enb, [&attached](const ran::AttachOutcome& outcome) {
                if (outcome.success) ++attached;
              });
        });
  }
  net.run_for(static_cast<sim::Duration>(n) * 50 * sim::kMillisecond +
              5 * sim::kSecond);
  w.price("lte_attach", static_cast<std::uint64_t>(attached));
  if (attached < n) {
    std::printf("  WARNING: %d/%d UEs attached\n", attached, n);
  }
}

// --- 5 + 6: streamer delta apply, fleet checkin drain -----------------------
// One orchestrator + magmad fleet serves both primitives: the boot wave
// prices the checkin drain, then config mutations price the delta apply via
// the HostProfiler's (magmad, apply_delta) label.

struct FleetGateway {
  std::unique_ptr<net::DuplexLink> link;
  net::ReliablePair channels;
  std::unique_ptr<rpc::RpcNode> server_node;
  std::unique_ptr<rpc::RpcNode> client_node;
  std::unique_ptr<agw::SubscriberDb> subscribers;
  agw::PolicyDb policies;
  std::unique_ptr<agw::Magmad> magmad;
};

agw::SubscriberData make_fleet_subscriber(std::uint64_t n) {
  agw::SubscriberData sub;
  sub.imsi = common::Imsi::from_digits(1010000000000ULL + n);
  sub.k[0] = static_cast<std::uint8_t>(n);
  sub.policy_name = "unlimited";
  return sub;
}

void bench_fleet(bool quick) {
  const int kFleet = quick ? 100 : 1000;
  const int kMutations = quick ? 2 : 3;
  sim::Kernel kernel;
  sim::Rng rng(2023);
  orc8r::Orchestrator orc8r(kernel);
  for (int i = 0; i < 50; ++i) {
    orc8r.add_subscriber(make_fleet_subscriber(static_cast<std::uint64_t>(i)));
  }
  agw::MagmadConfig config;
  config.metrics_interval = sim::kHour;
  config.checkpoint_interval = sim::kHour;
  config.event_flush_interval = sim::kHour;

  std::vector<std::unique_ptr<FleetGateway>> fleet;
  fleet.reserve(static_cast<std::size_t>(kFleet));
  for (int i = 0; i < kFleet; ++i) {
    auto gw = std::make_unique<FleetGateway>();
    gw->link = std::make_unique<net::DuplexLink>(kernel, rng,
                                                 sim::fiber_backhaul());
    gw->channels = net::make_reliable_pair(kernel, *gw->link);
    gw->server_node = std::make_unique<rpc::RpcNode>(kernel, *gw->channels.a,
                                                     "orc8r-server");
    gw->client_node = std::make_unique<rpc::RpcNode>(kernel, *gw->channels.b,
                                                     "agw-client");
    gw->subscribers = std::make_unique<agw::SubscriberDb>(
        [&rng]() { return rng.next_u64(); });
    char id[16];
    std::snprintf(id, sizeof(id), "gw%04d", i);
    gw->magmad = std::make_unique<agw::Magmad>(
        kernel, id, gw->client_node.get(), *gw->subscribers, gw->policies,
        []() { return common::Bytes{}; },
        []() { return orc8r::TelemetryReport{}; }, config);
    orc8r.bind(*gw->server_node);
    const sim::Duration offset =
        static_cast<sim::Duration>(i) * (30 * sim::kSecond) / kFleet;
    agw::Magmad* m = gw->magmad.get();
    kernel.schedule(offset, [m]() { m->start(); });
    fleet.push_back(std::move(gw));
  }

  // Primitive 6: the boot wave — every gateway checks in and takes its
  // first full sync; price the whole drain per checkin served.
  {
    const Window w;
    kernel.run_until(35 * sim::kSecond);
    w.price("checkin_drain", orc8r.stats().checkins);
  }
  if (orc8r.stats().checkins < static_cast<std::uint64_t>(kFleet)) {
    std::printf("  WARNING: %llu/%d checkins served\n",
                static_cast<unsigned long long>(orc8r.stats().checkins),
                kFleet);
  }

  // Primitive 5: config mutations fan out as deltas; the profiler's
  // (magmad, apply_delta) label prices the apply itself — wall time and
  // allocations per call, exclusive of transport and polling machinery.
  obs::HostProfiler profiler;
  profiler.install();
  for (int k = 0; k < kMutations; ++k) {
    orc8r.add_subscriber(make_fleet_subscriber(9000u + static_cast<std::uint64_t>(k)));
    kernel.run_until((35 + 30 * (k + 1)) * sim::kSecond);
  }
  const obs::HostLabelStats applies = profiler.stats_for("magmad",
                                                         "apply_delta");
  obs::HostProfiler::uninstall();
  const double calls =
      applies.calls > 0 ? static_cast<double>(applies.calls) : 1.0;
  emit("streamer_delta_apply_ns",
       static_cast<double>(applies.total_ns) / calls);
  emit("streamer_delta_apply_allocs",
       static_cast<double>(applies.alloc_count) / calls);
  emit("streamer_delta_apply_alloc_bytes",
       static_cast<double>(applies.alloc_bytes) / calls);
  if (applies.calls < static_cast<std::uint64_t>(kFleet) * kMutations) {
    std::printf("  WARNING: %llu/%d delta applies observed\n",
                static_cast<unsigned long long>(applies.calls),
                kFleet * kMutations);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  benchutil::banner(
      "Host microbench — pricing the simulator's core primitives",
      "ROADMAP: raw simulator speed (BENCH_host.json trajectory)");
  std::printf("mode: %s\n\n", quick ? "quick (ctest smoke)" : "full");

  bench_event_schedule_dispatch(quick);
  bench_packet_route(quick);
  bench_reliable_roundtrip(quick);
  bench_lte_attach(quick);
  bench_fleet(quick);

  // Assemble the JSON, validate it through the same parser bench_compare
  // uses (schema self-check), then write BENCH_host.json.
  std::string json = "{\n  \"bench\": \"host_microbench\",\n";
  json += quick ? "  \"quick\": 1,\n" : "  \"quick\": 0,\n";
  json += "  \"metrics\": {\n";
  for (std::size_t i = 0; i < g_metrics.size(); ++i) {
    char line[160];
    std::snprintf(line, sizeof(line), "    \"%s\": %.1f%s\n",
                  g_metrics[i].key.c_str(), g_metrics[i].value,
                  i + 1 < g_metrics.size() ? "," : "");
    json += line;
  }
  json += "  }\n}\n";

  int failures = 0;
  const auto flat = obs::flatten_json_numbers(json);
  if (!flat.ok()) {
    std::printf("\nFAIL: emitted JSON does not parse: %s\n",
                flat.error().message.c_str());
    ++failures;
  } else {
    static const char* kRequired[] = {
        "event_schedule_dispatch_ns", "packet_route_ns",
        "reliable_roundtrip_ns",      "lte_attach_ns",
        "streamer_delta_apply_ns",    "checkin_drain_ns"};
    for (const char* key : kRequired) {
      const std::string path = std::string("metrics.") + key;
      auto it = flat.value().find(path);
      if (it == flat.value().end() || !(it->second > 0)) {
        std::printf("\nFAIL: %s missing or non-positive\n", path.c_str());
        ++failures;
      }
    }
  }

  std::FILE* out = std::fopen("BENCH_host.json", "w");
  if (out == nullptr) {
    std::printf("\nFAIL: cannot write BENCH_host.json\n");
    ++failures;
  } else {
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("\nwrote BENCH_host.json (%zu metrics, schema %s)\n",
                g_metrics.size(), failures == 0 ? "valid" : "INVALID");
  }
  return failures == 0 ? 0 : 1;
}
