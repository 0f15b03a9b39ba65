// Fleet-scale control plane: 1000 AGWs against one orchestrator (§3.4 at
// deployment size — FreedomFi/AccessParks are fleets of gateways behind a
// single orc8r).
//
// What this measures, and asserts:
//   * The version-cached full-state blob: the initial 1000-gateway sync
//     wave costs ONE serialization of the desired state, not 1000.
//   * Delta fan-out: a single config change reaches every gateway as a
//     one-entry delta — zero additional full-state serializations.
//   * Coalescing: a churn burst of 20 mutations on 5 keys ships 5 entries
//     per gateway, not 20.
//   * Ingest: 1000 gateways' checkins drain through the orchestrator's
//     ingest queue without shedding.
//
// Emits BENCH_fleet.json (the first file of the bench-trajectory series)
// and exits nonzero if any property fails.
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "agw/magmad.h"
#include "bench_util.h"
#include "net/channel.h"
#include "obs/host_profiler.h"
#include "orc8r/orchestrator.h"

using namespace magma;

namespace {

constexpr int kFleet = 1000;
constexpr int kSubscribers = 200;

struct Gateway {
  std::unique_ptr<net::DuplexLink> link;
  net::ReliablePair channels;
  std::unique_ptr<rpc::RpcNode> server_node;
  std::unique_ptr<rpc::RpcNode> client_node;
  std::unique_ptr<agw::SubscriberDb> subscribers;
  agw::PolicyDb policies;
  std::unique_ptr<agw::Magmad> magmad;
};

agw::SubscriberData make_subscriber(std::uint64_t n, const std::string& pol) {
  agw::SubscriberData sub;
  sub.imsi = common::Imsi::from_digits(1010000000000ULL + n);
  sub.k[0] = static_cast<std::uint8_t>(n);
  sub.policy_name = pol;
  return sub;
}

bool check(bool ok, const char* what, int& failures) {
  std::printf("  %-68s %s\n", what, ok ? "OK" : "FAIL");
  if (!ok) ++failures;
  return ok;
}

}  // namespace

int main() {
  benchutil::banner(
      "Fleet scaleout — 1000 AGWs, one orchestrator",
      "Hasan et al., NSDI'23, §3.4 (config sync at deployment scale)");
  const auto wall_start = std::chrono::steady_clock::now();

  sim::Kernel kernel;
  sim::Rng rng(2023);
  orc8r::Orchestrator orc8r(kernel);

  for (int i = 0; i < kSubscribers; ++i) {
    orc8r.add_subscriber(make_subscriber(i, "unlimited"));
  }

  // Control-plane-focused cadences: config sync and checkin at their
  // defaults, everything best-effort slowed to once.
  agw::MagmadConfig config;
  config.metrics_interval = sim::kHour;
  config.checkpoint_interval = sim::kHour;
  config.event_flush_interval = sim::kHour;

  // Host cost of booting the fleet: the global operator-new hook counts
  // every allocation the 1000-gateway construction loop makes, so the
  // per-AGW memory bill is a first-class bench metric.
  const std::uint64_t boot_allocs_before =
      obs::HostProfiler::process_alloc_count();
  const std::uint64_t boot_bytes_before =
      obs::HostProfiler::process_alloc_bytes();
  std::vector<std::unique_ptr<Gateway>> fleet;
  fleet.reserve(kFleet);
  for (int i = 0; i < kFleet; ++i) {
    auto gw = std::make_unique<Gateway>();
    gw->link = std::make_unique<net::DuplexLink>(kernel, rng,
                                                 sim::fiber_backhaul());
    gw->channels = net::make_reliable_pair(kernel, *gw->link);
    gw->server_node = std::make_unique<rpc::RpcNode>(
        kernel, *gw->channels.a, "orc8r-server");
    gw->client_node = std::make_unique<rpc::RpcNode>(
        kernel, *gw->channels.b, "agw-client");
    gw->subscribers = std::make_unique<agw::SubscriberDb>(
        [&rng]() { return rng.next_u64(); });
    char id[16];
    std::snprintf(id, sizeof(id), "gw%04d", i);
    gw->magmad = std::make_unique<agw::Magmad>(
        kernel, id, gw->client_node.get(), *gw->subscribers, gw->policies,
        []() { return common::Bytes{}; },
        []() { return orc8r::TelemetryReport{}; }, config);
    orc8r.bind(*gw->server_node);
    // Stagger boots across one poll interval so the orchestrator sees a
    // steady poll stream, not 1000 simultaneous RPCs.
    const sim::Duration offset =
        static_cast<sim::Duration>(i) * (30 * sim::kSecond) / kFleet;
    agw::Magmad* m = gw->magmad.get();
    kernel.schedule(offset, [m]() { m->start(); });
    fleet.push_back(std::move(gw));
  }
  const std::uint64_t boot_allocs_per_agw =
      (obs::HostProfiler::process_alloc_count() - boot_allocs_before) / kFleet;
  const std::uint64_t boot_bytes_per_agw =
      (obs::HostProfiler::process_alloc_bytes() - boot_bytes_before) / kFleet;

  // Per-phase host wall clock: each phase's run_until is timed so the JSON
  // records where the host second goes at fleet scale.
  auto phase_start = std::chrono::steady_clock::now();
  auto phase_wall_ms = [&phase_start]() {
    const auto now = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration_cast<std::chrono::microseconds>(
                          now - phase_start)
                          .count() /
                      1000.0;
    phase_start = now;
    return ms;
  };

  int failures = 0;

  // ---- Phase 1: initial sync wave --------------------------------------
  kernel.run_until(35 * sim::kSecond);
  const double phase1_wall_ms = phase_wall_ms();
  int synced = 0;
  for (const auto& gw : fleet) {
    if (gw->magmad->synced_version() == orc8r.config_version()) ++synced;
  }
  const std::uint64_t serializations_initial =
      orc8r.stats().full_serializations;
  std::printf("\nPhase 1 — first contact (%d gateways, %d subscribers):\n",
              kFleet, kSubscribers);
  check(synced == kFleet, "every gateway converged on the full state",
        failures);
  check(serializations_initial == 1,
        "1000 full syncs cost exactly ONE serialization", failures);
  check(orc8r.stats().full_cache_hits >= kFleet - 1,
        "remaining pushes served from the version cache", failures);

  // ---- Phase 2: one config change fans out as deltas -------------------
  const std::uint64_t deltas_before = orc8r.stats().delta_pushes;
  orc8r.add_subscriber(make_subscriber(9000, "unlimited"));
  phase_start = std::chrono::steady_clock::now();
  kernel.run_until(75 * sim::kSecond);
  const double phase2_wall_ms = phase_wall_ms();
  synced = 0;
  int applied_delta = 0;
  for (const auto& gw : fleet) {
    if (gw->magmad->synced_version() == orc8r.config_version()) ++synced;
    if (gw->magmad->stats().config_delta_syncs >= 1) ++applied_delta;
  }
  std::printf("\nPhase 2 — single config change:\n");
  check(synced == kFleet, "every gateway holds the new version", failures);
  check(applied_delta == kFleet, "every gateway applied it as a delta",
        failures);
  check(orc8r.stats().delta_pushes - deltas_before ==
            static_cast<std::uint64_t>(kFleet),
        "exactly one delta push per gateway", failures);
  check(orc8r.stats().full_serializations == serializations_initial,
        "zero additional full-state serializations", failures);

  // ---- Phase 3: churn burst is coalesced -------------------------------
  const std::uint64_t coalesced_before = orc8r.stats().deltas_coalesced;
  const std::uint64_t entries_before = orc8r.stats().delta_entries_sent;
  // 20 mutations, 5 surviving keys: 4 rewrites of each of 5 subscribers.
  for (int round = 0; round < 4; ++round) {
    for (int s = 0; s < 5; ++s) {
      orc8r.add_subscriber(make_subscriber(9100 + s, round % 2 == 0
                                                         ? "unlimited"
                                                         : "throttled"));
    }
  }
  phase_start = std::chrono::steady_clock::now();
  kernel.run_until(115 * sim::kSecond);
  const double phase3_wall_ms = phase_wall_ms();
  const std::uint64_t entries_sent =
      orc8r.stats().delta_entries_sent - entries_before;
  const std::uint64_t coalesced =
      orc8r.stats().deltas_coalesced - coalesced_before;
  std::printf("\nPhase 3 — churn burst (20 mutations on 5 keys):\n");
  check(entries_sent <= 5ull * kFleet,
        "each gateway received at most 5 coalesced entries", failures);
  check(coalesced >= static_cast<std::uint64_t>(kFleet),
        "repeated writes folded away before the wire", failures);
  check(orc8r.stats().full_serializations == serializations_initial,
        "churn still served without full-state serializations", failures);

  // ---- Phase 4: checkin plane + ingest health -------------------------
  std::printf("\nPhase 4 — checkin plane:\n");
  check(orc8r.stats().checkins >= static_cast<std::uint64_t>(kFleet),
        "every gateway checked in at least once", failures);
  check(orc8r.ingest().stats().processed >=
            static_cast<std::uint64_t>(kFleet),
        "checkin applies drained through the ingest queue", failures);
  check(orc8r.ingest().stats().shed == 0, "no ingest sheds at this scale",
        failures);
  check(orc8r.ingest().pending() == 0, "ingest backlog fully drained",
        failures);

  const double wall_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count() /
      1000.0;
  const orc8r::OrchestratorStats& s = orc8r.stats();
  const orc8r::IngestStats& ing = orc8r.ingest().stats();

  std::printf("\nstreamer: full=%llu (serialized %llu, cached %llu)  "
              "delta=%llu (entries %llu, coalesced %llu)  noop=%llu\n",
              static_cast<unsigned long long>(s.full_pushes),
              static_cast<unsigned long long>(s.full_serializations),
              static_cast<unsigned long long>(s.full_cache_hits),
              static_cast<unsigned long long>(s.delta_pushes),
              static_cast<unsigned long long>(s.delta_entries_sent),
              static_cast<unsigned long long>(s.deltas_coalesced),
              static_cast<unsigned long long>(s.noop_polls));
  std::printf("ingest: submitted=%llu processed=%llu shed=%llu "
              "max_queue=%llu max_pending=%llu\n",
              static_cast<unsigned long long>(ing.submitted),
              static_cast<unsigned long long>(ing.processed),
              static_cast<unsigned long long>(ing.shed),
              static_cast<unsigned long long>(ing.max_gateway_queue),
              static_cast<unsigned long long>(ing.max_pending));
  std::printf("wall: %.0f ms for %d AGWs over %.0f simulated seconds\n",
              wall_ms, kFleet, sim::to_seconds(kernel.now()));
  std::printf("host: sync %.0f ms, delta %.0f ms, churn %.0f ms; boot cost "
              "%llu allocs / %llu bytes per AGW\n",
              phase1_wall_ms, phase2_wall_ms, phase3_wall_ms,
              static_cast<unsigned long long>(boot_allocs_per_agw),
              static_cast<unsigned long long>(boot_bytes_per_agw));

  std::FILE* json = std::fopen("BENCH_fleet.json", "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n"
        "  \"bench\": \"scaleout_fleet\",\n"
        "  \"agws\": %d,\n"
        "  \"subscribers\": %d,\n"
        "  \"sim_seconds\": %.0f,\n"
        "  \"wall_ms\": %.1f,\n"
        "  \"full_pushes\": %llu,\n"
        "  \"full_serializations\": %llu,\n"
        "  \"full_cache_hits\": %llu,\n"
        "  \"delta_pushes\": %llu,\n"
        "  \"delta_entries_sent\": %llu,\n"
        "  \"deltas_coalesced\": %llu,\n"
        "  \"noop_polls\": %llu,\n"
        "  \"checkins\": %llu,\n"
        "  \"ingest_processed\": %llu,\n"
        "  \"ingest_shed\": %llu,\n"
        "  \"ingest_max_gateway_queue\": %llu,\n"
        "  \"host\": {\n"
        "    \"phase1_sync_wall_ms\": %.1f,\n"
        "    \"phase2_delta_wall_ms\": %.1f,\n"
        "    \"phase3_churn_wall_ms\": %.1f,\n"
        "    \"boot_per_agw_allocs\": %llu,\n"
        "    \"boot_per_agw_alloc_bytes\": %llu\n"
        "  },\n"
        "  \"pass\": %s\n"
        "}\n",
        kFleet, kSubscribers, sim::to_seconds(kernel.now()), wall_ms,
        static_cast<unsigned long long>(s.full_pushes),
        static_cast<unsigned long long>(s.full_serializations),
        static_cast<unsigned long long>(s.full_cache_hits),
        static_cast<unsigned long long>(s.delta_pushes),
        static_cast<unsigned long long>(s.delta_entries_sent),
        static_cast<unsigned long long>(s.deltas_coalesced),
        static_cast<unsigned long long>(s.noop_polls),
        static_cast<unsigned long long>(s.checkins),
        static_cast<unsigned long long>(ing.processed),
        static_cast<unsigned long long>(ing.shed),
        static_cast<unsigned long long>(ing.max_gateway_queue),
        phase1_wall_ms, phase2_wall_ms, phase3_wall_ms,
        static_cast<unsigned long long>(boot_allocs_per_agw),
        static_cast<unsigned long long>(boot_bytes_per_agw),
        failures == 0 ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_fleet.json\n");
  }

  std::printf("\nSHAPE %s: one orchestrator drives a %d-gateway fleet with "
              "O(1) serializations per config version and delta fan-out.\n",
              failures == 0 ? "HOLDS" : "DIVERGES", kFleet);
  return failures == 0 ? 0 : 1;
}
