// Ablation A5: small fault domains + checkpoint recovery (§3.3).
//
// "Each AGW is thus a fault domain that holds state for a relatively small
// number of UEs ... The failure of a single AGW would impact the set of UEs
// currently served by the attached base stations, but has no impact on the
// rest of the network." And: the checkpointed runtime state brings a backup
// cloud instance into service for the affected UEs, once its desired-state
// sync has brought back the config.
#include <cstdio>

#include "bench_util.h"

using namespace magma;

int main() {
  benchutil::banner("Ablation A5 — fault domains and checkpoint recovery",
                    "Hasan et al., NSDI'23, §3.3");

  core::Network net(core::NetworkConfig{.seed = 55});
  const int kAgws = 4;
  const int kUesPerAgw = 24;

  struct Domain {
    agw::AccessGateway* agw;
    ran::EnodeB* enb;
    std::vector<ran::UeLte*> ues;
  };
  std::vector<Domain> domains;
  for (int i = 0; i < kAgws; ++i) {
    Domain d;
    d.agw = &net.add_agw(agw::virtual_xeon(4));
    d.enb = &net.add_enodeb(*d.agw);
    domains.push_back(d);
  }
  net.run_for(2 * sim::kSecond);

  int attached = 0;
  for (Domain& d : domains) {
    d.ues = benchutil::provision_lte_ues(net, kUesPerAgw);
    core::AttachRamp ramp(net, d.ues, *d.enb, 8.0);
    net.run_for(sim::from_seconds(kUesPerAgw / 8.0 + 20));
    attached += static_cast<int>(ramp.succeeded());
  }
  std::printf("\n%d UEs attached across %d AGWs (%d per fault domain)\n",
              attached, kAgws, kUesPerAgw);

  // Let magmad ship checkpoints.
  net.run_for(2 * sim::kMinute);

  // Fail AGW 0: backhaul cut + total state wipe (crash).
  net.set_backhaul_up(*domains[0].agw, false);
  for (const ran::UeLte* ue : domains[0].ues) {
    domains[0].agw->sessiond().end_session(ue->usim().imsi()).ok();
  }

  // Who still has service? Probe every UE with downlink.
  auto probe = [&](const Domain& d, agw::AccessGateway& gw) {
    int served = 0;
    for (ran::UeLte* ue : d.ues) {
      if (!ue->ip().has_value()) continue;
      const std::uint64_t before = ue->traffic().rx_bytes;
      net.inject_downlink(gw, *ue->ip(), 1000, 5);
      net.run_for(100 * sim::kMillisecond);
      if (ue->traffic().rx_bytes > before) ++served;
    }
    return served;
  };

  int impacted = kUesPerAgw - probe(domains[0], *domains[0].agw);
  int unaffected = 0;
  for (int i = 1; i < kAgws; ++i) {
    unaffected += probe(domains[static_cast<std::size_t>(i)],
                        *domains[static_cast<std::size_t>(i)].agw);
  }
  std::printf("after AGW-0 failure: %d/%d UEs impacted (%.0f%% of network); "
              "%d/%d UEs on other AGWs unaffected\n",
              impacted, kAgws * kUesPerAgw,
              100.0 * impacted / (kAgws * kUesPerAgw), unaffected,
              (kAgws - 1) * kUesPerAgw);

  // Recovery: backup instance from the shipped checkpoint.
  const auto image = net.orchestrator().stored_checkpoint("gw0");
  if (!image.has_value()) {
    std::printf("no checkpoint shipped — FAIL\n");
    return 1;
  }
  agw::AccessGateway& backup = net.add_agw(agw::virtual_xeon(4));
  // The backup takes over gw0's RAN endpoints (S1 + GTP) and its state.
  net.adopt_ran(backup, *domains[0].agw);
  // Config state comes back by desired-state sync (the backup's first poll
  // is a full sync); the checkpoint then restores runtime state on top.
  net.run_for(3 * sim::kSecond);
  const bool synced =
      backup.magmad().synced_version() == net.orchestrator().config_version();
  std::printf("backup AGW synced config: %s (%zu subscribers)\n",
              synced ? "OK" : "FAILED", backup.subscriberdb().size());
  const common::Status restored = backup.restore(*image);
  std::printf("backup AGW restored from checkpoint (%zu bytes): %s, "
              "%zu sessions recovered\n",
              image->size(), restored.ok() ? "OK" : restored.to_string().c_str(),
              backup.sessiond().active_sessions());

  // Note: user traffic resumes through the backup instance's data plane.
  const int recovered = probe(domains[0], backup);
  std::printf("UEs served by the backup instance: %d/%d\n", recovered,
              kUesPerAgw);

  const bool holds = impacted == kUesPerAgw &&
                     unaffected == (kAgws - 1) * kUesPerAgw &&
                     synced && restored.ok() && recovered == kUesPerAgw;
  std::printf("\nSHAPE %s: blast radius = exactly one fault domain "
              "(1/%d of the network), full recovery from the checkpoint.\n",
              holds ? "HOLDS" : "DIVERGES", kAgws);
  return holds ? 0 : 1;
}
