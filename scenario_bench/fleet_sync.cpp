// fleet_sync: a fleet of RAN-less AGWs against one orchestrator holding
// thousands of subscribers, with magmad on its default cadences (poll 30 s,
// checkin 60 s, metrics 15 s, checkpoint 60 s). Subscriber and policy
// writes arrive through the orchestrator API open loop at a fixed rate.
// The streamer, store, ingest, RPC, reliable channel and magmad
// apply/checkpoint do the work; crypto and the datapath idle.
#include <algorithm>
#include <deque>

#include "core/network.h"
#include "workload.h"

namespace magma::scenario {
namespace {

struct FleetSize {
  int agws = 150;
  int subscribers = 3000;
  double writes_per_s = 2;
  double new_subscriber_share = 0.15;
  double policy_write_share = 0.05;
  sim::Duration slice = 180 * sim::kMillisecond;
  int slices = 1000;
  int sampled_subscribers = 20;
  sim::Duration boot_spread = 60 * sim::kSecond;
};

constexpr const char* kPolicies[] = {"unlimited", "bronze", "silver", "gold"};

core::Policy tier_policy(const char* name, std::uint64_t dl_bps) {
  core::Policy p = core::rate_limited_policy(dl_bps, dl_bps / 2);
  p.name = name;
  return p;
}

class FleetSync final : public Workload {
 public:
  FleetSync(std::uint64_t seed, bool quick)
      : net_(core::NetworkConfig{.seed = seed}), rng_(seed ^ 0xf1ee7ull) {
    if (quick) {
      size_.agws = 10;
      size_.subscribers = 300;
      size_.slice = 100 * sim::kMillisecond;
    }
  }

  core::Network& network() override { return net_; }
  const std::vector<ran::EnodeB*>& enbs() const override { return enbs_; }
  sim::Duration slice() const override { return size_.slice; }
  int slices() const override { return size_.slices; }

  void setup(SetupSpans& spans) override {
    spans.begin("setup.provision");
    net_.add_policy(tier_policy("bronze", 5'000'000));
    net_.add_policy(tier_policy("silver", 20'000'000));
    net_.add_policy(tier_policy("gold", 100'000'000));
    for (int i = 0; i < size_.subscribers; ++i) {
      imsis_.push_back(
          net_.provision_subscriber(kPolicies[rng_.uniform_int(4)]).imsi);
    }
    spans.end();

    // Gateways boot one by one across the longest magmad cadence, so the
    // fleet's periodic loops are evenly phased as in a real deployment.
    // Each finds the full desired state waiting: its first poll is the
    // initial full sync.
    spans.begin("setup.sync");
    const sim::Duration gap = size_.boot_spread / size_.agws;
    for (int a = 0; a < size_.agws; ++a) {
      agws_.push_back(&net_.add_agw(agw::virtual_xeon(4)));
      net_.run_for(gap);
    }
    for (int i = 0; i < 120 && !all_synced(); ++i) {
      net_.run_for(500 * sim::kMillisecond);
    }
    spans.end();
    generating_ = true;
    schedule_write();
  }

  void begin_measure() override {
    measuring_ = true;
    totals(attempted_before_, failed_before_);
  }

  void after_slice() override {
    if (pending_.empty()) return;
    std::uint64_t min_synced = UINT64_MAX;
    for (agw::AccessGateway* g : agws_) {
      min_synced = std::min(min_synced, g->magmad().synced_version());
    }
    const sim::TimePoint now = net_.kernel().now();
    while (!pending_.empty() && pending_.front().version <= min_synced) {
      lag_s_.push_back(sim::to_seconds(now - pending_.front().written));
      pending_.pop_front();
    }
  }

  void end_measure() override {
    measuring_ = false;
    // Writes still unsynced at the end of the window count with their
    // lag so far: a stalled fleet cannot hide behind the window edge.
    const sim::TimePoint now = net_.kernel().now();
    for (const Pending& p : pending_) {
      lag_s_.push_back(sim::to_seconds(now - p.written));
    }
    pending_.clear();
    totals(attempted_, failed_);
    attempted_ -= attempted_before_;
    failed_ -= failed_before_;
  }

  void drain() override {
    generating_ = false;
    // One poll interval plus RPC slack lets every gateway pull the last
    // write; the checks below then demand exact convergence.
    net_.run_for(40 * sim::kSecond);
  }

  Outcome outcome() override {
    Outcome out;
    out.failed_what =
        "polls, checkins, metric reports, checkpoints (measured phase)";
    out.attempted = attempted_;
    out.failed = failed_;
    out.metrics.push_back({"sim_sync_lag_p50_s", "s", quantile(lag_s_, 0.5),
                           lag_s_.size()});
    out.metrics.push_back({"sim_sync_lag_p99_s", "s", quantile(lag_s_, 0.99),
                           lag_s_.size()});
    out.metrics.push_back(
        {"failed_ratio", "ratio",
         attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_),
         attempted_});

    const orc8r::OrchestratorStats& o = net_.orchestrator().stats();
    Digest d;
    d.add("writes", writes_);
    d.add("attempted", attempted_);
    d.add("failed", failed_);
    d.add("lag_p50", quantile(lag_s_, 0.5));
    d.add("lag_p99", quantile(lag_s_, 0.99));
    d.add("lag_samples", static_cast<std::uint64_t>(lag_s_.size()));
    d.add("config_version", net_.orchestrator().config_version());
    d.add("orc.full_pushes", o.full_pushes);
    d.add("orc.delta_pushes", o.delta_pushes);
    d.add("orc.noop_polls", o.noop_polls);
    d.add("orc.full_serializations", o.full_serializations);
    d.add("orc.delta_entries_sent", o.delta_entries_sent);
    d.add("orc.checkins", o.checkins);
    d.add("orc.checkpoints_stored", o.checkpoints_stored);
    d.add("orc.metric_reports", o.metric_reports);
    d.add("ingest.processed", net_.orchestrator().ingest().stats().processed);
    d.add("events", net_.kernel().executed_events());
    for (agw::AccessGateway* g : agws_) {
      const agw::MagmadStats& s = g->magmad().stats();
      d.add("magmad.applied", s.config_syncs_applied);
      d.add("magmad.deltas", s.delta_entries_applied);
      d.add("magmad.checkpoints", s.checkpoints_shipped);
      d.add("magmad.sheds", s.telemetry_sheds);
    }
    out.digest = d.value();
    return out;
  }

  void check(Checks& checks) override {
    checks.expect(writes_ > 0, "fleet_sync: orchestrator writes were made");
    checks.expect(all_synced(),
                  "fleet_sync: after the drain every gateway's synced "
                  "version equals the orchestrator's config version");
    bool match = !written_.empty();
    const std::size_t stride =
        std::max<std::size_t>(1, written_.size() / size_.sampled_subscribers);
    for (std::size_t i = 0; i < written_.size(); i += stride) {
      const auto want = net_.orchestrator().get_subscriber(written_[i]);
      if (!want.has_value()) {
        match = false;
        continue;
      }
      for (agw::AccessGateway* g : agws_) {
        const auto have = g->subscriberdb().get(written_[i]);
        match = match && have.has_value() &&
                have->policy_name == want->policy_name && have->k == want->k &&
                have->opc == want->opc;
      }
    }
    checks.expect(match,
                  "fleet_sync: sampled written subscribers match in every "
                  "gateway's subscriberdb");
    checks.expect(net_.orchestrator().stats().store_decode_errors == 0,
                  "fleet_sync: store_decode_errors == 0");
    checks.expect(failed_ == 0,
                  "fleet_sync: no sync, checkin, metric report or checkpoint "
                  "failed and ingest shed nothing");
  }

 private:
  struct Pending {
    std::uint64_t version = 0;
    sim::TimePoint written = 0;
  };

  // Cumulative control-plane operations and their failures, fleet-wide.
  void totals(std::uint64_t& attempted, std::uint64_t& failed) {
    attempted = 0;
    failed = net_.orchestrator().ingest().stats().shed;
    for (agw::AccessGateway* g : agws_) {
      const agw::MagmadStats& s = g->magmad().stats();
      attempted += s.config_syncs_applied + s.config_polls_noop +
                   s.sync_failures + s.checkins_ok + s.checkin_failures +
                   s.metric_reports_sent + s.metric_reports_lost +
                   s.checkpoints_shipped + s.checkpoint_failures;
      failed += s.sync_failures + s.checkin_failures + s.metric_reports_lost +
                s.checkpoint_failures;
    }
  }

  bool all_synced() {
    const std::uint64_t want = net_.orchestrator().config_version();
    for (agw::AccessGateway* g : agws_) {
      if (g->magmad().synced_version() != want) return false;
    }
    return true;
  }

  void schedule_write() {
    net_.kernel().schedule(sim::from_seconds(1.0 / size_.writes_per_s),
                           [this]() { write(); });
  }

  // One operator write through the orchestrator API.
  void write() {
    if (!generating_) return;
    schedule_write();
    orc8r::Orchestrator& orc = net_.orchestrator();
    const double kind = rng_.uniform();
    if (kind < size_.policy_write_share) {
      const std::uint64_t rate = 1'000'000 * (1 + rng_.uniform_int(200));
      orc.add_policy(tier_policy(kPolicies[1 + rng_.uniform_int(3)], rate));
    } else if (kind < size_.policy_write_share + size_.new_subscriber_share) {
      imsis_.push_back(
          net_.provision_subscriber(kPolicies[rng_.uniform_int(4)]).imsi);
      written_.push_back(imsis_.back());
    } else {
      const common::Imsi& imsi = imsis_[rng_.uniform_int(imsis_.size())];
      std::optional<agw::SubscriberData> sub = orc.get_subscriber(imsi);
      if (sub.has_value()) {
        sub->policy_name = kPolicies[rng_.uniform_int(4)];
        orc.add_subscriber(*sub);
        written_.push_back(imsi);
      }
    }
    ++writes_;
    if (measuring_) {
      pending_.push_back(Pending{orc.config_version(), net_.kernel().now()});
    }
  }

  FleetSize size_;
  core::Network net_;
  sim::Rng rng_;
  std::vector<agw::AccessGateway*> agws_;
  std::vector<ran::EnodeB*> enbs_;  // no RAN in this workload
  std::vector<common::Imsi> imsis_;
  std::vector<common::Imsi> written_;
  std::deque<Pending> pending_;
  std::vector<double> lag_s_;
  bool generating_ = false;
  bool measuring_ = false;
  std::uint64_t writes_ = 0;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::uint64_t attempted_before_ = 0, failed_before_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_sync(std::uint64_t seed, bool quick) {
  return std::make_unique<FleetSync>(seed, quick);
}

}  // namespace magma::scenario
