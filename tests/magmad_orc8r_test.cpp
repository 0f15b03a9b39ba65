// Orchestrator + magmad: northbound API, desired-state config sync over
// realistic backhaul, check-in, checkpoint shipping, durability.
#include <gtest/gtest.h>

#include <algorithm>

#include "agw/magmad.h"
#include "common/log.h"
#include "core/network.h"
#include "net/channel.h"
#include "orc8r/orchestrator.h"
#include "rpc/wire.h"

namespace magma {
namespace {

using agw::SubscriberData;

common::Imsi imsi(std::uint64_t n) {
  return common::Imsi::from_digits(1010000000000ULL + n);
}

SubscriberData subscriber(std::uint64_t n, const std::string& policy) {
  SubscriberData sub;
  sub.imsi = imsi(n);
  sub.k[0] = static_cast<std::uint8_t>(n);
  sub.policy_name = policy;
  return sub;
}

orc8r::TelemetryReport telemetry(std::vector<orc8r::MetricSample> samples) {
  orc8r::TelemetryReport report;
  report.samples = std::move(samples);
  return report;
}

// The state a first-contact poll (no epoch yet) receives in full.
orc8r::DesiredUpdate first_contact(orc8r::Orchestrator& orc8r) {
  return orc8r.desired_update(orc8r::GetUpdatesRequest{"gw0", 0, 0});
}

TEST(Orchestrator, NorthboundSubscriberCrud) {
  sim::Kernel kernel;
  orc8r::Orchestrator orc8r(kernel);
  orc8r.add_subscriber(subscriber(1, "gold"));
  orc8r.add_subscriber(subscriber(2, "silver"));
  EXPECT_EQ(orc8r.subscriber_count(), 2u);
  EXPECT_EQ(orc8r.get_subscriber(imsi(1))->policy_name, "gold");
  orc8r.remove_subscriber(imsi(1));
  EXPECT_EQ(orc8r.subscriber_count(), 1u);
  EXPECT_FALSE(orc8r.get_subscriber(imsi(1)).has_value());
}

TEST(Orchestrator, PolicyCrudAndVersionBump) {
  sim::Kernel kernel;
  orc8r::Orchestrator orc8r(kernel);
  const std::uint64_t v0 = orc8r.config_version();
  orc8r.add_policy(core::rate_limited_policy(1e6, 1e6));
  EXPECT_GT(orc8r.config_version(), v0);
  EXPECT_TRUE(orc8r.get_policy("rate_limited").has_value());
  orc8r.remove_policy("rate_limited");
  EXPECT_FALSE(orc8r.get_policy("rate_limited").has_value());
}

TEST(Orchestrator, DesiredStateVersioned) {
  sim::Kernel kernel;
  orc8r::Orchestrator orc8r(kernel);
  orc8r.add_subscriber(subscriber(1, "p"));
  const orc8r::DesiredUpdate fresh = first_contact(orc8r);
  ASSERT_EQ(fresh.mode, orc8r::SyncMode::kFull);
  auto state = orc8r::DesiredState::deserialize(fresh.full);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state.value().version, fresh.version);
  EXPECT_EQ(state.value().subscribers.size(), 1u);

  // A caller that already has the current version gets a cheap no-op.
  const orc8r::DesiredUpdate current = orc8r.desired_update(
      orc8r::GetUpdatesRequest{"gw0", fresh.version, fresh.epoch});
  EXPECT_EQ(current.mode, orc8r::SyncMode::kNoop);
  EXPECT_TRUE(current.full.empty());
  EXPECT_TRUE(current.entries.empty());
}

TEST(Orchestrator, ConfigSurvivesCrash) {
  sim::Kernel kernel;
  orc8r::Orchestrator orc8r(kernel);
  orc8r.add_subscriber(subscriber(1, "p"));
  orc8r.store().checkpoint();
  orc8r.add_subscriber(subscriber(2, "q"));
  orc8r.store().simulate_crash_and_recover();
  EXPECT_EQ(orc8r.subscriber_count(), 2u);
}

TEST(Orchestrator, CorruptStoreBlobIsCountedWarnedAndAlerted) {
  // Regression: a store blob that fails to deserialize used to be silently
  // dropped from the desired state — every gateway would converge on a
  // config missing that subscriber, with nothing anywhere saying so.
  sim::Kernel kernel;
  orc8r::Orchestrator orc8r(kernel);
  orc8r.add_subscriber(subscriber(1, "p"));
  orc8r.store().put("sub/corrupt", common::to_bytes("garbage"));

  const orc8r::DesiredUpdate update = first_contact(orc8r);
  ASSERT_EQ(update.mode, orc8r::SyncMode::kFull);
  auto state = orc8r::DesiredState::deserialize(update.full);
  ASSERT_TRUE(state.ok());
  // The good subscriber survives; the corrupt one is counted, not silent.
  EXPECT_EQ(state.value().subscribers.size(), 1u);
  EXPECT_EQ(orc8r.stats().store_decode_errors, 1u);
  EXPECT_EQ(
      orc8r.metrics().latest("orc8r", "orchestrator_store_decode_errors"),
      1.0);
  const auto events = orc8r.events_of_type("store_decode_error");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].severity, obs::EventSeverity::kWarn);
  EXPECT_NE(events[0].message.find("sub/corrupt"), std::string::npos);

  // The default growth alert fires once the gauge rises past its baseline
  // (the corrupt blob is recounted on the next full-state rebuild).
  orc8r.add_subscriber(subscriber(2, "p"));
  (void)first_contact(orc8r);
  EXPECT_EQ(orc8r.stats().store_decode_errors, 2u);
  bool firing = false;
  for (const orc8r::ActiveAlert& a : orc8r.metrics().active_alerts()) {
    if (a.rule == "orchestrator_store_decode_errors_growth") firing = true;
  }
  EXPECT_TRUE(firing);
}

TEST(DesiredState, SerializeRoundTrip) {
  orc8r::DesiredState state;
  state.version = 42;
  state.subscribers.push_back(subscriber(1, "gold"));
  state.policies.push_back(core::tiered_policy(1e7, 1 << 30, 1e6));
  auto round = orc8r::DesiredState::deserialize(state.serialize());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value().version, 42u);
  EXPECT_EQ(round.value().subscribers, state.subscribers);
  EXPECT_EQ(round.value().policies, state.policies);
}

// --- Magmad over a link -------------------------------------------------------

class MagmadTest : public ::testing::Test {
 protected:
  MagmadTest()
      : rng_(5),
        orc8r_(kernel_),
        link_(kernel_, rng_, sim::fiber_backhaul()),
        channels_(net::make_reliable_pair(kernel_, link_)),
        server_node_(kernel_, *channels_.a, "orc8r-server"),
        client_node_(kernel_, *channels_.b, "agw-client"),
        subscribers_([this]() { return rng_.next_u64(); }),
        magmad_(kernel_, "gw0", &client_node_, subscribers_, policies_,
                [this]() { return checkpoint_payload_; },
                [this]() { return telemetry(metrics_payload_); }) {
    orc8r_.bind(server_node_);
  }

  sim::Kernel kernel_;
  sim::Rng rng_;
  orc8r::Orchestrator orc8r_;
  net::DuplexLink link_;
  net::ReliablePair channels_;
  rpc::RpcNode server_node_;
  rpc::RpcNode client_node_;
  agw::SubscriberDb subscribers_;
  agw::PolicyDb policies_;
  common::Bytes checkpoint_payload_ = common::to_bytes("ckpt");
  std::vector<orc8r::MetricSample> metrics_payload_;
  agw::Magmad magmad_;
};

TEST_F(MagmadTest, ConfigSyncAppliesSubscribersAndPolicies) {
  orc8r_.add_subscriber(subscriber(1, "gold"));
  orc8r_.add_policy(core::rate_limited_policy(2e6, 1e6));

  magmad_.sync_config_now();
  kernel_.run_until(5 * sim::kSecond);
  EXPECT_EQ(magmad_.stats().config_syncs_applied, 1u);
  EXPECT_TRUE(subscribers_.get(imsi(1)).has_value());
  EXPECT_TRUE(policies_.get("rate_limited").has_value());
  EXPECT_EQ(magmad_.synced_version(), orc8r_.config_version());

  // Second sync with no changes is a no-op.
  magmad_.sync_config_now();
  kernel_.run_until(10 * sim::kSecond);
  EXPECT_EQ(magmad_.stats().config_syncs_applied, 1u);
  EXPECT_EQ(magmad_.stats().config_polls_noop, 1u);
}

TEST_F(MagmadTest, ConfigRemovalPropagates) {
  orc8r_.add_subscriber(subscriber(1, "p"));
  orc8r_.add_subscriber(subscriber(2, "p"));
  magmad_.sync_config_now();
  kernel_.run_until(5 * sim::kSecond);
  ASSERT_EQ(subscribers_.size(), 2u);

  orc8r_.remove_subscriber(imsi(1));
  magmad_.sync_config_now();
  kernel_.run_until(10 * sim::kSecond);
  EXPECT_EQ(subscribers_.size(), 1u);
  EXPECT_FALSE(subscribers_.get(imsi(1)).has_value());
}

TEST_F(MagmadTest, ConvergesAfterOrchestratorRestartWithOlderStore) {
  // Regression: an orchestrator replaced by an instance with a fresh store
  // answers polls with a *lower* version. A gateway comparing versions
  // numerically wedges forever ("I have 12, you offer 3"); the epoch makes
  // the restart explicit and the gateway must take the full sync — the
  // orchestrator is the source of truth (§3.4).
  for (int i = 1; i <= 8; ++i) orc8r_.add_subscriber(subscriber(i, "old"));
  magmad_.sync_config_now();
  kernel_.run_until(5 * sim::kSecond);
  ASSERT_EQ(subscribers_.size(), 8u);
  const std::uint64_t old_version = magmad_.synced_version();
  const std::uint64_t old_epoch = magmad_.synced_epoch();
  ASSERT_GT(old_version, 1u);

  // Replace the orchestrator: fresh store, one subscriber, lower version.
  orc8r::Orchestrator replacement(kernel_);
  replacement.add_subscriber(subscriber(100, "new"));
  ASSERT_LT(replacement.config_version(), old_version);
  ASSERT_NE(replacement.epoch(), old_epoch);
  replacement.bind(server_node_);  // re-registration replaces the handlers

  magmad_.sync_config_now();
  kernel_.run_until(10 * sim::kSecond);
  EXPECT_EQ(magmad_.stats().config_full_syncs, 2u);
  // Converged backwards onto the replacement's (smaller) desired state.
  EXPECT_EQ(subscribers_.size(), 1u);
  EXPECT_TRUE(subscribers_.get(imsi(100)).has_value());
  EXPECT_FALSE(subscribers_.get(imsi(1)).has_value());
  EXPECT_EQ(magmad_.synced_version(), replacement.config_version());
  EXPECT_EQ(magmad_.synced_epoch(), replacement.epoch());
  EXPECT_EQ(magmad_.stats().epoch_resyncs, 1u);

  // And stays converged: the next poll is a cheap noop, not a sync loop.
  magmad_.sync_config_now();
  kernel_.run_until(15 * sim::kSecond);
  EXPECT_GE(magmad_.stats().config_polls_noop, 1u);
}

TEST_F(MagmadTest, SyncFailsGracefullyWhenDisconnected) {
  link_.forward.set_up(false);
  link_.reverse.set_up(false);
  magmad_.sync_config_now();
  kernel_.run_until(30 * sim::kSecond);
  EXPECT_EQ(magmad_.stats().config_syncs_applied, 0u);
  EXPECT_GE(magmad_.stats().sync_failures, 1u);
  EXPECT_FALSE(magmad_.orchestrator_reachable());
}

TEST_F(MagmadTest, PeriodicLoopsShipEverything) {
  orc8r_.add_subscriber(subscriber(1, "p"));
  metrics_payload_ = {
      orc8r::MetricSample{"gw0", "active_sessions", 3.0, kernel_.now()}};
  magmad_.start();
  kernel_.run_until(3 * sim::kMinute);

  EXPECT_GE(magmad_.stats().config_syncs_applied, 1u);
  EXPECT_GE(magmad_.stats().checkins_ok, 2u);
  EXPECT_GE(magmad_.stats().metric_reports_sent, 2u);
  // The payload never changes: one acknowledged image is enough.
  EXPECT_EQ(magmad_.stats().checkpoints_shipped, 1u);

  // Orchestrator side saw all of it.
  EXPECT_GE(orc8r_.stats().checkins, 2u);
  ASSERT_TRUE(orc8r_.gateway("gw0").has_value());
  EXPECT_GT(orc8r_.gateway("gw0")->checkin_count, 0u);
  EXPECT_EQ(orc8r_.stored_checkpoint("gw0").value(),
            common::to_bytes("ckpt"));
  EXPECT_GT(orc8r_.metrics().total_samples(), 0u);
}

TEST_F(MagmadTest, UnchangedCheckpointIsNotReshipped) {
  magmad_.start();
  kernel_.run_until(3 * sim::kMinute);
  EXPECT_EQ(magmad_.stats().checkpoints_shipped, 1u);
  EXPECT_EQ(orc8r_.stats().checkpoints_stored, 1u);

  checkpoint_payload_ = common::to_bytes("ckpt-changed");
  kernel_.run_until(4 * sim::kMinute + sim::kSecond);
  EXPECT_EQ(magmad_.stats().checkpoints_shipped, 2u);
  EXPECT_EQ(orc8r_.stored_checkpoint("gw0").value(), checkpoint_payload_);
}

TEST_F(MagmadTest, FailedCheckpointShipIsRetriedNextTick) {
  const common::Bytes first = checkpoint_payload_;
  magmad_.start();
  kernel_.run_until(30 * sim::kSecond);
  ASSERT_EQ(magmad_.stats().checkpoints_shipped, 1u);

  // A changed image fails in flight (backhaul down past the deadline)...
  checkpoint_payload_ = common::to_bytes("ckpt-lost");
  link_.forward.set_up(false);
  link_.reverse.set_up(false);
  kernel_.run_until(90 * sim::kSecond);
  EXPECT_EQ(magmad_.stats().checkpoint_failures, 1u);

  // ...and the failure forgets the acknowledged image: the orchestrator may
  // hold the lost one, so even the first image, unchanged since its ack,
  // ships again on the next tick.
  link_.forward.set_up(true);
  link_.reverse.set_up(true);
  checkpoint_payload_ = first;
  kernel_.run_until(2 * sim::kMinute + 5 * sim::kSecond);
  EXPECT_EQ(magmad_.stats().checkpoints_shipped, 2u);
  EXPECT_EQ(orc8r_.stored_checkpoint("gw0").value(), first);
}

TEST_F(MagmadTest, ReplacedOrchestratorGetsTheUnchangedCheckpointAgain) {
  orc8r_.add_subscriber(subscriber(1, "old"));
  magmad_.start();
  kernel_.run_until(30 * sim::kSecond);
  ASSERT_EQ(magmad_.stats().checkpoints_shipped, 1u);

  // Replaced as in ConvergesAfterOrchestratorRestartWithOlderStore: the new
  // instance has an empty checkpoint map.
  orc8r::Orchestrator replacement(kernel_);
  replacement.bind(server_node_);
  magmad_.sync_config_now();
  kernel_.run_until(65 * sim::kSecond);
  EXPECT_EQ(magmad_.stats().epoch_resyncs, 1u);
  EXPECT_EQ(magmad_.stats().checkpoints_shipped, 2u);
  EXPECT_EQ(replacement.stored_checkpoint("gw0").value(), checkpoint_payload_);
}

// --- Health plane + histogram delta shipping ---------------------------------

// A magmad wired with explicit status/histogram sources over a clean link,
// with fast cadences and everything unrelated slowed way down.
class MagmadShippingTest : public ::testing::Test {
 protected:
  static agw::MagmadConfig fast_metrics() {
    agw::MagmadConfig config;
    config.config_poll_interval = sim::kHour;
    config.checkin_interval = 5 * sim::kSecond;
    config.metrics_interval = 5 * sim::kSecond;
    config.checkpoint_interval = sim::kHour;
    config.telemetry_backpressure = 1000;  // never shed in this test
    return config;
  }

  MagmadShippingTest()
      : rng_(5),
        orc8r_(kernel_),
        link_(kernel_, rng_, sim::fiber_backhaul()),
        channels_(net::make_reliable_pair(kernel_, link_)),
        server_node_(kernel_, *channels_.a, "orc8r-server"),
        client_node_(kernel_, *channels_.b, "agw-client"),
        subscribers_([this]() { return rng_.next_u64(); }),
        registry_(kernel_),
        magmad_(kernel_, "gw0", &client_node_, subscribers_, policies_,
                []() { return common::Bytes{}; },
                [this]() {
                  orc8r::HistogramSnapshot snap;
                  snap.gateway_id = "gw0";
                  snap.name = "attach_s";
                  snap.bounds = hist_.bounds();
                  snap.counts = hist_.counts();
                  snap.sum = hist_.sum();
                  snap.time = kernel_.now();
                  orc8r::TelemetryReport report;
                  report.histograms.push_back(std::move(snap));
                  return report;
                },
                fast_metrics(), nullptr,
                [this]() { return registry_.snapshot(); }) {
    orc8r_.bind(server_node_);
  }

  sim::Kernel kernel_;
  sim::Rng rng_;
  orc8r::Orchestrator orc8r_;
  net::DuplexLink link_;
  net::ReliablePair channels_;
  rpc::RpcNode server_node_;
  rpc::RpcNode client_node_;
  agw::SubscriberDb subscribers_;
  agw::PolicyDb policies_;
  obs::StatusRegistry registry_;
  obs::Histogram hist_;
  agw::Magmad magmad_;
};

TEST_F(MagmadShippingTest, CheckinCarriesService303SnapshotIntoStatusd) {
  obs::Service303& sessiond = registry_.register_service("sessiond");
  sessiond.count_request(4);
  sessiond.count_error("create_session: no bearer");
  registry_.register_service("mobilityd").set_phase("serving");

  magmad_.start();
  kernel_.run_until(3 * sim::kSecond);

  ASSERT_GE(orc8r_.statusd().stats().checkins, 1u);
  const orc8r::GatewayStatus* gw = orc8r_.statusd().gateway("gw0");
  ASSERT_NE(gw, nullptr);
  EXPECT_EQ(gw->health, orc8r::GatewayHealth::kHealthy);
  ASSERT_EQ(gw->services.size(), 2u);
  EXPECT_EQ(gw->services[0].service, "mobilityd");
  EXPECT_EQ(gw->services[0].phase, "serving");
  EXPECT_EQ(gw->services[1].service, "sessiond");
  EXPECT_EQ(gw->services[1].requests, 4u);
  EXPECT_EQ(gw->services[1].last_error, "create_session: no bearer");
}

TEST_F(MagmadShippingTest, HistogramsShipFullThenDeltaThenSkip) {
  hist_.observe(0.1);
  magmad_.start();  // first metrics tick fires immediately
  kernel_.run_until(3 * sim::kSecond);

  // First report: full snapshot, every bucket on the wire.
  EXPECT_EQ(magmad_.stats().histogram_full_snapshots, 1u);
  EXPECT_EQ(magmad_.stats().histogram_buckets_shipped, hist_.counts().size());
  EXPECT_EQ(orc8r_.metrics().histogram_count("attach_s"), 1u);

  // Two observations in one bucket: the next tick ships a 1-bucket delta.
  hist_.observe(0.1);
  hist_.observe(0.1);
  kernel_.run_until(8 * sim::kSecond);
  EXPECT_EQ(magmad_.stats().histogram_delta_snapshots, 1u);
  EXPECT_EQ(magmad_.stats().histogram_buckets_shipped,
            hist_.counts().size() + 1);
  EXPECT_EQ(orc8r_.metrics().histogram_count("attach_s"), 3u);
  EXPECT_EQ(orc8r_.metrics().histogram_delta_orphans(), 0u);

  // Nothing new: the tick ships nothing at all.
  kernel_.run_until(13 * sim::kSecond);
  EXPECT_GE(magmad_.stats().histogram_unchanged_skips, 1u);
  EXPECT_EQ(magmad_.stats().histogram_buckets_shipped,
            hist_.counts().size() + 1);
  EXPECT_EQ(orc8r_.metrics().histogram_count("attach_s"), 3u);
}

TEST_F(MagmadShippingTest, LostReportForcesFullReship) {
  hist_.observe(0.1);
  magmad_.start();
  kernel_.run_until(3 * sim::kSecond);
  ASSERT_EQ(magmad_.stats().histogram_full_snapshots, 1u);

  // Partition the backhaul across the next tick: the delta report dies on
  // its deadline, so magmad must assume metricsd missed it.
  link_.forward.set_up(false);
  link_.reverse.set_up(false);
  hist_.observe(2.0);
  kernel_.run_until(31 * sim::kSecond);
  ASSERT_GE(magmad_.stats().metric_reports_lost, 1u);

  link_.forward.set_up(true);
  link_.reverse.set_up(true);
  hist_.observe(2.0);
  kernel_.run_until(60 * sim::kSecond);
  // Recovery re-shipped a full snapshot (cumulative, so the orchestrator
  // converges on the gateway's true counts despite the lost deltas).
  EXPECT_GE(magmad_.stats().histogram_full_snapshots, 2u);
  EXPECT_EQ(orc8r_.metrics().histogram_count("attach_s"), hist_.count());
  EXPECT_EQ(orc8r_.metrics().merged_histogram("attach_s").counts(),
            hist_.counts());
}

TEST_F(MagmadShippingTest, BucketsShippedGaugeTracksStats) {
  // The AGW-level gauge is exercised end to end in agw_test/integration, but
  // the stat it mirrors must move exactly with the wire traffic.
  hist_.observe(0.1);
  magmad_.start();
  kernel_.run_until(3 * sim::kSecond);
  const std::uint64_t after_full = magmad_.stats().histogram_buckets_shipped;
  EXPECT_EQ(after_full, hist_.counts().size());

  hist_.observe(0.1);
  kernel_.run_until(8 * sim::kSecond);
  EXPECT_EQ(magmad_.stats().histogram_buckets_shipped, after_full + 1);
}

// --- Transport telemetry end to end ------------------------------------------

TEST(TransportTelemetry, ControlChannelStatsReachMetricsd) {
  // The AGW's control-channel transport health (SRTT, RTO, retransmission
  // counters) must flow through magmad's periodic metrics report into the
  // orchestrator's metricsd, per gateway.
  core::NetworkConfig config;
  config.backhaul = sim::satellite_backhaul();
  core::Network net(config);
  net.add_agw(agw::virtual_xeon(2));
  net.run_for(2 * sim::kMinute);

  const orc8r::Metricsd& metrics = net.orchestrator().metrics();
  const auto srtt = metrics.latest("gw0", "transport_srtt_s");
  const auto rto = metrics.latest("gw0", "transport_rto_s");
  ASSERT_TRUE(srtt.has_value());
  ASSERT_TRUE(rto.has_value());
  // The estimator converged on the satellite RTT (~0.64 s) and the RTO sits
  // above it — no spurious-retransmission storm on this incarnation.
  EXPECT_GT(*srtt, 0.5);
  EXPECT_LT(*srtt, 1.0);
  EXPECT_GE(*rto, *srtt);
  ASSERT_TRUE(metrics.latest("gw0", "transport_retransmissions").has_value());
  ASSERT_TRUE(
      metrics.latest("gw0", "transport_spurious_retransmits").has_value());
  ASSERT_TRUE(metrics.latest("gw0", "transport_send_failures").has_value());
  // Congestion-control and SACK gauges flow too: the window is live (>= 1
  // segment, bounded by the configured cap) and the flight never exceeds
  // it; the reorder backlog gauge exists even when it reads zero.
  const auto cwnd = metrics.latest("gw0", "transport_cwnd");
  const auto flight = metrics.latest("gw0", "transport_flight_size");
  ASSERT_TRUE(cwnd.has_value());
  ASSERT_TRUE(flight.has_value());
  EXPECT_GE(*cwnd, 1.0);
  EXPECT_LE(*flight, *cwnd);
  ASSERT_TRUE(metrics.latest("gw0", "transport_ssthresh").has_value());
  ASSERT_TRUE(metrics.latest("gw0", "transport_sack_retransmits").has_value());
  ASSERT_TRUE(metrics.latest("gw0", "transport_rto_at_cap").has_value());
  ASSERT_TRUE(metrics.latest("gw0", "transport_reorder_backlog").has_value());
  ASSERT_TRUE(metrics.latest("gw0", "transport_send_backlog").has_value());
  ASSERT_TRUE(metrics.latest("gw0", "magmad_telemetry_sheds").has_value());
}

TEST_F(MagmadTest, BackpressureShedsTelemetryButNeverTheSync) {
  // Force the shed path: with the threshold at zero every best-effort tick
  // sees the channel as "already backlogged" and skips shipping. The config
  // sync is exempt — it is the one RPC that must land — so the gateway
  // still learns its subscribers while metrics and checkpoints yield.
  agw::MagmadConfig config;
  config.telemetry_backpressure = 0;
  agw::Magmad magmad(kernel_, "gw0", &client_node_, subscribers_, policies_,
                     [this]() { return checkpoint_payload_; },
                     [this]() { return telemetry(metrics_payload_); },
                     config);
  orc8r_.add_subscriber(subscriber(1, "p"));
  metrics_payload_ = {
      orc8r::MetricSample{"gw0", "active_sessions", 1.0, kernel_.now()}};
  magmad.start();
  kernel_.run_until(3 * sim::kMinute);

  EXPECT_GE(magmad.stats().config_syncs_applied, 1u);
  EXPECT_TRUE(subscribers_.get(imsi(1)).has_value());
  EXPECT_GT(magmad.stats().telemetry_sheds, 0u);
  EXPECT_EQ(magmad.stats().metric_reports_sent, 0u);
  EXPECT_EQ(magmad.stats().checkpoints_shipped, 0u);
}

// --- One telemetry report per metrics tick -----------------------------------

TEST(TelemetryReport, OneRpcPerMetricsTickCarriesEveryKind) {
  // Everything magmad does besides the metrics loop is slowed to hourly, so
  // the measured window holds nothing but metrics ticks.
  core::NetworkConfig config;
  config.magmad.config_poll_interval = sim::kHour;
  config.magmad.checkin_interval = sim::kHour;
  config.magmad.checkpoint_interval = sim::kHour;
  core::Network net(config);
  agw::AccessGateway& agw = net.add_agw(agw::bare_metal_j3160());
  ran::EnodeB& enb = net.add_enodeb(agw);
  net.run_for(2 * sim::kSecond);
  const agw::SubscriberData sub = net.provision_subscriber();
  net.sync_all_config();
  ran::UeLte& ue = net.add_ue_lte(sub);

  // Start mid-interval so the window spans exactly four metrics ticks.
  const sim::Duration interval = config.magmad.metrics_interval;
  net.run_for(interval - net.kernel().now() % interval + interval / 2);
  const rpc::RpcStats& served = net.orc8r_node_for(agw).stats();
  const std::uint64_t calls_before = served.calls_served;
  const std::uint64_t reports_before = agw.magmad().stats().metric_reports_sent;
  // An attach outcome and a WARN log inside the window ride the reports
  // too: no RPC of their own.
  bool attached = false;
  ue.attach(enb, [&](const ran::AttachOutcome& outcome) {
    attached = outcome.success;
  });
  MLOG_WARN("report_test") << "rides the report";
  net.run_for(4 * interval);
  ASSERT_TRUE(attached);
  EXPECT_EQ(served.calls_served - calls_before, 4u);
  EXPECT_EQ(agw.magmad().stats().metric_reports_sent - reports_before, 4u);

  // The single report still delivers samples, histograms, trace summaries,
  // the subscriber sketch and the events.
  const orc8r::Metricsd& metrics = net.orchestrator().metrics();
  EXPECT_TRUE(metrics.latest("gw0", "active_sessions").has_value());
  EXPECT_GE(metrics.histogram_count("span_lte_frontend_attach_s"), 1u);
  EXPECT_GE(metrics.trace_summaries_ingested(), 1u);
  EXPECT_GT(agw.magmad().stats().trace_summaries_shipped, 0u);
  EXPECT_EQ(metrics.sketch_gateways(), 1u);
  const orc8r::Orchestrator& orc8r = net.orchestrator();
  EXPECT_EQ(orc8r.events_of_type("attach_success").size(), 1u);
  const std::vector<obs::Event> logs = orc8r.events_of_type("log");
  EXPECT_TRUE(std::any_of(logs.begin(), logs.end(), [](const obs::Event& e) {
    return e.source == "report_test" && e.gateway_id == "gw0";
  }));
  EXPECT_EQ(metrics.latest("gw0", "sli_attach_success_rate").value_or(-1),
            1.0);
}

using TelemetryReportTest = MagmadTest;

TEST_F(TelemetryReportTest, CorruptHistogramSectionAppliesNothing) {
  // Good samples beside a histogram section its codec rejects: the whole
  // report is refused, nothing reaches metricsd, and the loss is counted
  // once under the histogram drop kind.
  rpc::Writer w;
  w.str("gw0");
  w.bytes(orc8r::encode_metric_report(
      {orc8r::MetricSample{"gw0", "active_sessions", 3.0, 0}}));
  w.bytes(common::to_bytes("not a histogram report"));
  w.bytes(obs::encode_trace_summaries({}));
  w.bytes(common::Bytes{});
  w.bytes(obs::encode_event_report({}));
  const orc8r::Metricsd& metrics = orc8r_.metrics();
  const std::size_t samples_before = metrics.total_samples();
  bool rejected = false;
  client_node_.call(orc8r::kMetricsService, orc8r::kReportMetrics,
                    std::move(w).take(), 5 * sim::kSecond,
                    [&](rpc::Result<rpc::Bytes> result) {
                      rejected = !result.ok();
                    });
  kernel_.run_until(5 * sim::kSecond);

  EXPECT_TRUE(rejected);
  EXPECT_EQ(metrics.samples_dropped(orc8r::Metricsd::DropKind::kHistogram),
            1u);
  EXPECT_EQ(metrics.samples_dropped(), 1u);
  EXPECT_EQ(orc8r_.stats().metric_reports, 0u);
  EXPECT_EQ(orc8r_.ingest().stats().submitted, 0u);
  EXPECT_EQ(metrics.total_samples(), samples_before);
  EXPECT_FALSE(metrics.latest("gw0", "active_sessions").has_value());
}

TEST_F(TelemetryReportTest, ForeignGatewayItemsAreRejected) {
  // gw0's envelope may only carry gw0's data: ingest routes and sheds on
  // the envelope while metricsd stores each item under its own gateway id,
  // so an item naming gw1 would overwrite gw1's series, histogram, trace
  // summaries or sketch. Each report below spoofs gw1 in one section.
  const orc8r::Metricsd& metrics = orc8r_.metrics();
  orc8r::HistogramSnapshot hist;
  hist.gateway_id = "gw1";
  hist.name = "attach_s";
  hist.bounds = {0.1, 1.0};
  hist.counts = {1, 2, 3};
  hist.sum = 4.2;
  obs::TraceSummary summary;
  summary.root_op = "attach";
  summary.gateway_id = "gw1";
  summary.trace_id = 7;
  obs::sketch::SubscriberSketches sketches;
  sketches.record(obs::sketch::SubscriberMetric::kAttachFailures,
                  "IMSI001010000000001", 3, 0xe1);
  std::vector<orc8r::TelemetryReport> spoofed(4);
  for (orc8r::TelemetryReport& report : spoofed) report.gateway_id = "gw0";
  spoofed[0].samples.push_back(
      orc8r::MetricSample{"gw1", "active_sessions", 3.0, 0});
  spoofed[1].histograms.push_back(hist);
  spoofed[2].summaries.push_back(summary);
  spoofed[3].sketch = sketches.snapshot("gw1", 0);

  int rejected = 0;
  for (const orc8r::TelemetryReport& report : spoofed) {
    client_node_.call(orc8r::kMetricsService, orc8r::kReportMetrics,
                      orc8r::encode_telemetry_report(report),
                      5 * sim::kSecond, [&](rpc::Result<rpc::Bytes> result) {
                        if (!result.ok()) ++rejected;
                      });
  }
  kernel_.run_until(5 * sim::kSecond);

  EXPECT_EQ(rejected, 4);
  EXPECT_EQ(orc8r_.stats().metric_reports, 0u);
  EXPECT_EQ(orc8r_.ingest().stats().submitted, 0u);
  EXPECT_FALSE(metrics.latest("gw1", "active_sessions").has_value());
  EXPECT_EQ(metrics.histogram_count("attach_s"), 0u);
  EXPECT_EQ(metrics.trace_summaries_ingested(), 0u);
  EXPECT_EQ(metrics.sketch_reports_ingested(), 0u);
  // One drop per spoofed section, except samples (never a metricsd drop).
  using Kind = orc8r::Metricsd::DropKind;
  EXPECT_EQ(metrics.samples_dropped(Kind::kMetric), 0u);
  EXPECT_EQ(metrics.samples_dropped(Kind::kHistogram), 1u);
  EXPECT_EQ(metrics.samples_dropped(Kind::kTraceSummary), 1u);
  EXPECT_EQ(metrics.samples_dropped(Kind::kSketch), 1u);
}

TEST_F(TelemetryReportTest, EventsCannotSpeakForAnotherGateway) {
  // gw0's report carries events its encoder was handed as gw1's: the events
  // section has no gateway ids, so they land as gw0's. gw1's event store and
  // attach-success SLI (the evidence statusd's downtime attribution reads)
  // stay untouched.
  orc8r::TelemetryReport report;
  report.gateway_id = "gw0";
  for (const char* type : {"attach_success", "attach_reject", "log"}) {
    obs::Event e;
    e.gateway_id = "gw1";
    e.type = type;
    e.severity = obs::EventSeverity::kError;
    report.events.push_back(e);
  }
  bool accepted = false;
  client_node_.call(orc8r::kMetricsService, orc8r::kReportMetrics,
                    orc8r::encode_telemetry_report(report), 5 * sim::kSecond,
                    [&](rpc::Result<rpc::Bytes> result) {
                      accepted = result.ok();
                    });
  kernel_.run_until(5 * sim::kSecond);

  ASSERT_TRUE(accepted);
  EXPECT_EQ(orc8r_.events().size(), 3u);
  for (const obs::Event& e : orc8r_.events()) EXPECT_EQ(e.gateway_id, "gw0");
  const orc8r::Metricsd& metrics = orc8r_.metrics();
  EXPECT_FALSE(metrics.latest("gw1", "sli_attach_success_rate").has_value());
  EXPECT_EQ(metrics.latest("gw0", "sli_attach_success_rate").value_or(-1),
            0.5);
}

}  // namespace
}  // namespace magma
