// Fault tolerance (§3.3): small fault domains, checkpoint/restore onto a
// backup AGW, crash-recovery invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/network.h"

namespace magma {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<core::Network>();
    agw0_ = &net_->add_agw(agw::bare_metal_j3160());
    agw1_ = &net_->add_agw(agw::bare_metal_j3160());
    enb0_ = &net_->add_enodeb(*agw0_);
    enb1_ = &net_->add_enodeb(*agw1_);
    net_->run_for(2 * sim::kSecond);
  }

  ran::UeLte& attach_ue(ran::EnodeB& enb) {
    const agw::SubscriberData sub = net_->provision_subscriber();
    net_->sync_all_config();
    ran::UeLte& ue = net_->add_ue_lte(sub);
    bool ok = false;
    ue.attach(enb, [&](const ran::AttachOutcome& o) { ok = o.success; });
    net_->run_for(20 * sim::kSecond);
    EXPECT_TRUE(ok);
    return ue;
  }

  std::unique_ptr<core::Network> net_;
  agw::AccessGateway* agw0_ = nullptr;
  agw::AccessGateway* agw1_ = nullptr;
  ran::EnodeB* enb0_ = nullptr;
  ran::EnodeB* enb1_ = nullptr;
};

// §3.3: "The failure of a single AGW would impact the set of UEs currently
// served by the attached base stations, but has no impact on the rest of
// the network."
TEST_F(FaultTest, AgwFailureIsContainedToItsFaultDomain) {
  ran::UeLte& ue0 = attach_ue(*enb0_);
  ran::UeLte& ue1 = attach_ue(*enb1_);

  // "Fail" agw0's backhaul AND stop serving: simulate by cutting its
  // backhaul and clearing its data plane (a crash wipes the process).
  net_->set_backhaul_up(*agw0_, false);
  agw0_->sessiond().end_session(ue0.usim().imsi()).ok();

  // UE1 on agw1 is completely unaffected.
  net_->inject_downlink(*agw1_, *ue1.ip(), 1400, 100);
  net_->run_for(2 * sim::kSecond);
  EXPECT_EQ(ue1.traffic().rx_packets, 100u);

  // And new attaches on agw1 still work (orchestrator reachable there).
  const agw::SubscriberData sub = net_->provision_subscriber();
  net_->sync_all_config();
  ran::UeLte& ue2 = net_->add_ue_lte(sub);
  bool ok = false;
  ue2.attach(*enb1_, [&](const ran::AttachOutcome& o) { ok = o.success; });
  net_->run_for(20 * sim::kSecond);
  EXPECT_TRUE(ok);
}

// §3.3: checkpointed runtime state brings a backup instance into service.
TEST_F(FaultTest, BackupAgwResumesFromShippedCheckpoint) {
  ran::UeLte& ue = attach_ue(*enb0_);
  net_->inject_downlink(*agw0_, *ue.ip(), 1400, 50);
  net_->run_for(3 * sim::kSecond);
  agw0_->sessiond().poll_usage();
  const std::uint64_t used =
      agw0_->sessiond().find(ue.usim().imsi())->used_bytes;
  ASSERT_GT(used, 0u);

  // Wait for magmad to ship a checkpoint to the orchestrator.
  net_->run_for(2 * sim::kMinute);
  const auto image = net_->orchestrator().stored_checkpoint("gw0");
  ASSERT_TRUE(image.has_value());

  // Bring up a brand-new AGW (the "backup cloud instance"). Its first
  // desired-state sync brings back subscribers and policies; the image then
  // brings back sessions, addresses and the advanced SQN.
  agw::AccessGateway& backup = net_->add_agw(agw::virtual_xeon(4));
  net_->sync_all_config();
  ASSERT_EQ(backup.magmad().synced_version(),
            net_->orchestrator().config_version());
  ASSERT_TRUE(backup.restore(*image).ok());

  // The session exists on the backup with its usage intact, the subscriber
  // cache is warm, and the data plane forwards for the UE immediately.
  const agw::SessionRecord* session =
      backup.sessiond().find(ue.usim().imsi());
  ASSERT_NE(session, nullptr);
  EXPECT_GE(session->used_bytes, used);
  const auto sub = backup.subscriberdb().get(ue.usim().imsi());
  ASSERT_TRUE(sub.has_value());
  EXPECT_EQ(sub->sqn, agw0_->subscriberdb().get(ue.usim().imsi())->sqn);
  EXPECT_EQ(backup.mobilityd().lookup(ue.usim().imsi()).value(), *ue.ip());

  datapath::PacketBatch batch;
  batch.packet = datapath::make_udp(common::Ipv4::from_octets(8, 8, 8, 8),
                                    *ue.ip(), 443, 40000, 1000);
  batch.count = 10;
  const auto result = backup.pipelined().pipeline().process_batch(
      batch, datapath::Direction::kDownlink, net_->kernel().now());
  EXPECT_EQ(result.verdict, datapath::Verdict::kForwarded);
}

TEST_F(FaultTest, RestoredStateIsByteIdenticalOnRecheckpoint) {
  attach_ue(*enb0_);
  attach_ue(*enb0_);
  agw0_->sessiond().poll_usage();
  const common::Bytes image = agw0_->checkpoint();

  agw::AccessGateway& backup = net_->add_agw(agw::virtual_xeon(2));
  net_->sync_all_config();  // the SQNs land on synced subscribers
  ASSERT_TRUE(backup.restore(image).ok());
  // Checkpoint of the restored instance equals the original image
  // (checkpointing is a pure function of the state it captures).
  EXPECT_EQ(backup.checkpoint(), image);
}

// A checkpoint is runtime state only: restoring one taken under an older
// config version onto a backup that has already synced must not roll its
// subscribers or policies back — neither at once nor on later polls.
TEST_F(FaultTest, RestoreAfterSyncKeepsCurrentConfig) {
  ran::UeLte& ue = attach_ue(*enb0_);
  const agw::SubscriberData removed = net_->provision_subscriber();
  core::Policy policy = core::rate_limited_policy(2'000'000, 1'000'000);
  net_->orchestrator().add_policy(policy);
  net_->sync_all_config();
  ASSERT_TRUE(agw0_->subscriberdb().get(removed.imsi).has_value());
  const common::Bytes image = agw0_->checkpoint();

  // Config moves on after the checkpoint.
  net_->orchestrator().remove_subscriber(removed.imsi);
  policy.tiers[0].dl_rate_bps = 5'000'000;
  net_->orchestrator().add_policy(policy);

  agw::AccessGateway& backup = net_->add_agw(agw::virtual_xeon(2));
  net_->sync_all_config();
  ASSERT_TRUE(backup.restore(image).ok());
  const auto current = [&]() {
    return !backup.subscriberdb().get(removed.imsi).has_value() &&
           backup.policydb().get(policy.name) == policy &&
           backup.subscriberdb().get(ue.usim().imsi()).has_value();
  };
  EXPECT_TRUE(current());
  EXPECT_NE(backup.sessiond().find(ue.usim().imsi()), nullptr);

  backup.magmad().sync_config_now();
  net_->run_for(3 * sim::kSecond);
  EXPECT_TRUE(current());
}

// A backup that has synced and restored cannot be told apart from the
// original: same subscriberdb (SQNs included), policydb, sessions and
// address bindings.
TEST_F(FaultTest, SyncedAndRestoredBackupMatchesOriginal) {
  net_->orchestrator().add_policy(core::tiered_policy(10'000'000, 1 << 20,
                                                      1'000'000));
  ran::UeLte& ue0 = attach_ue(*enb0_);
  ran::UeLte& ue1 = attach_ue(*enb0_);
  net_->inject_downlink(*agw0_, *ue0.ip(), 1400, 20);
  net_->run_for(1 * sim::kSecond);
  agw0_->sessiond().poll_usage();

  agw::AccessGateway& backup = net_->add_agw(agw::virtual_xeon(2));
  net_->sync_all_config();
  ASSERT_TRUE(backup.restore(agw0_->checkpoint()).ok());

  agw::SubscriberDb& want = agw0_->subscriberdb();
  agw::SubscriberDb& have = backup.subscriberdb();
  ASSERT_EQ(have.all_imsis(), want.all_imsis());
  for (const common::Imsi& imsi : want.all_imsis()) {
    EXPECT_EQ(have.get(imsi), want.get(imsi)) << imsi.value;
  }
  EXPECT_GT(want.get(ue0.usim().imsi())->sqn, 0u);

  EXPECT_EQ(backup.policydb().size(), agw0_->policydb().size());
  for (const std::string& name :
       {core::unlimited_policy().name, core::tiered_policy(1, 1, 1).name}) {
    ASSERT_TRUE(agw0_->policydb().get(name).has_value()) << name;
    EXPECT_EQ(backup.policydb().get(name), agw0_->policydb().get(name));
  }

  EXPECT_EQ(backup.sessiond().checkpoint(), agw0_->sessiond().checkpoint());
  EXPECT_EQ(backup.mobilityd().allocated(), agw0_->mobilityd().allocated());
  for (const ran::UeLte* ue : {&ue0, &ue1}) {
    EXPECT_EQ(backup.mobilityd().lookup(ue->usim().imsi()), ue->ip());
    EXPECT_EQ(backup.mobilityd().lookup(ue->usim().imsi()),
              agw0_->mobilityd().lookup(ue->usim().imsi()));
  }
}

TEST_F(FaultTest, RestoreRejectsCorruptImage) {
  agw::AccessGateway& backup = net_->add_agw(agw::virtual_xeon(2));
  EXPECT_FALSE(backup.restore(common::to_bytes("not a checkpoint")).ok());
  common::Bytes truncated = agw0_->checkpoint();
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(backup.restore(truncated).ok());
}

// A UE whose AGW lost state simply re-attaches (§3.4: "most runtime state
// is both ephemeral and recoverable in the event of failure").
TEST_F(FaultTest, UeRecoversByReattaching) {
  ran::UeLte& ue = attach_ue(*enb0_);
  // Simulate total AGW state loss (crash without checkpoint restore):
  agw0_->sessiond().end_session(ue.usim().imsi()).ok();
  ASSERT_EQ(agw0_->sessiond().active_sessions(), 0u);

  // Downlink now drops (no session)...
  const auto before = agw0_->pipelined().pipeline().stats().dropped_no_match;
  net_->inject_downlink(*agw0_, *ue.ip(), 1400, 10);
  net_->run_for(1 * sim::kSecond);
  EXPECT_GT(agw0_->pipelined().pipeline().stats().dropped_no_match, before);

  // ...until the UE re-attaches.
  bool ok = false;
  ue.attach(*enb0_, [&](const ran::AttachOutcome& o) { ok = o.success; });
  net_->run_for(20 * sim::kSecond);
  ASSERT_TRUE(ok);
  net_->inject_downlink(*agw0_, *ue.ip(), 1400, 10);
  net_->run_for(1 * sim::kSecond);
  EXPECT_GT(ue.traffic().rx_packets, 0u);
}

// §3.2 device management: the orchestrator must notice a partitioned gateway
// within a bounded number of missed checkins, page on it, and clear cleanly
// once the gateway checks in again — all from the statusd gauges alone.
TEST(CheckinStaleness, AlertLifecycleOnPartitionAndRecovery) {
  core::NetworkConfig config;
  config.magmad.checkin_interval = 5 * sim::kSecond;
  config.statusd.sweep_interval = 2 * sim::kSecond;
  config.statusd.degraded_after_missed = 2;
  config.statusd.unreachable_after_missed = 5;
  core::Network net(config);
  agw::AccessGateway& agw0 = net.add_agw(agw::bare_metal_j3160());
  net.add_agw(agw::bare_metal_j3160());
  net.run_for(12 * sim::kSecond);

  const orc8r::Statusd& statusd = net.orchestrator().statusd();
  ASSERT_EQ(statusd.health("gw0"), orc8r::GatewayHealth::kHealthy);
  ASSERT_EQ(statusd.health("gw1"), orc8r::GatewayHealth::kHealthy);
  // The heartbeat carries the gateway's Service303 snapshot.
  const orc8r::GatewayStatus* gw0 = statusd.gateway("gw0");
  ASSERT_NE(gw0, nullptr);
  EXPECT_FALSE(gw0->services.empty());

  const auto firing = [&net](const std::string& rule, const std::string& gw) {
    const auto alerts = net.orchestrator().metrics().active_alerts();
    return std::any_of(alerts.begin(), alerts.end(),
                       [&](const orc8r::ActiveAlert& a) {
                         return a.rule == rule && a.gateway_id == gw;
                       });
  };
  EXPECT_FALSE(firing("gateway_degraded", "gw0"));

  // Partition gw0's backhaul. Detection bound: unreachable_after_missed ×
  // checkin_interval + sweep_interval past the last successful checkin.
  net.set_backhaul_up(agw0, false);
  net.run_for(14 * sim::kSecond);  // ~3 intervals missed
  EXPECT_EQ(statusd.health("gw0"), orc8r::GatewayHealth::kDegraded);
  EXPECT_TRUE(firing("gateway_degraded", "gw0"));
  EXPECT_FALSE(firing("gateway_unreachable", "gw0"));

  net.run_for(16 * sim::kSecond);  // past the unreachable bound
  EXPECT_EQ(statusd.health("gw0"), orc8r::GatewayHealth::kUnreachable);
  EXPECT_GE(statusd.missed_checkins("gw0"), 5u);
  EXPECT_TRUE(firing("gateway_unreachable", "gw0"));
  // The healthy gateway never pages.
  EXPECT_EQ(statusd.health("gw1"), orc8r::GatewayHealth::kHealthy);
  EXPECT_FALSE(firing("gateway_degraded", "gw1"));

  // Heal the partition: the next successful checkin recovers immediately and
  // the same gauges clear both alerts.
  net.set_backhaul_up(agw0, true);
  net.run_for(15 * sim::kSecond);
  EXPECT_EQ(statusd.health("gw0"), orc8r::GatewayHealth::kHealthy);
  EXPECT_GE(statusd.stats().recoveries, 1u);
  EXPECT_GE(statusd.stats().to_degraded, 1u);
  EXPECT_GE(statusd.stats().to_unreachable, 1u);
  EXPECT_FALSE(firing("gateway_degraded", "gw0"));
  EXPECT_FALSE(firing("gateway_unreachable", "gw0"));
  EXPECT_EQ(statusd.health("gw1"), orc8r::GatewayHealth::kHealthy);
}

}  // namespace
}  // namespace magma
