// bulk_downlink: one AGW with one 10 Gbps cell. About a thousand UEs attach
// during setup; the measured phase is pure user plane — staggered CBR
// downlink flows in 10-20 ms batches for a mix of unlimited, tiered
// (meter-limited) and OCS-quota subscribers. Per-batch cost dominates:
// datapath lookups, meters, sessiond usage and quota, eNodeB delivery.

#include "core/network.h"
#include "core/workload.h"
#include "workload.h"

namespace magma::scenario {
namespace {

struct BulkSize {
  int ues = 1000;
  double attach_rate_per_s = 30;  // accessd sustains ~36/s on 8 vCPUs
  double min_rate_bps = 0.5e6;
  double max_rate_bps = 1.5e6;
  std::uint32_t packet_bytes = 1400;
  // Outlasts every tier crossing (16 s at the slowest rate), so the
  // measured phase sees one steady regime.
  sim::Duration warmup = 20 * sim::kSecond;
  sim::Duration slice = 40 * sim::kMillisecond;
  int slices = 1000;
};

constexpr const char* kTiered = "tiered";
constexpr const char* kQuota = "quota_billed";

class BulkDownlink final : public Workload {
 public:
  BulkDownlink(std::uint64_t seed, bool quick)
      : net_(core::NetworkConfig{.seed = seed, .with_ocs = true}),
        rng_(seed ^ 0xb01cull) {
    if (quick) {
      size_.ues = 100;
      size_.attach_rate_per_s = 30;
      size_.warmup = 2 * sim::kSecond;
      size_.slice = 5 * sim::kMillisecond;
    }
  }

  core::Network& network() override { return net_; }
  const std::vector<ran::EnodeB*>& enbs() const override { return enbs_; }
  sim::Duration slice() const override { return size_.slice; }
  int slices() const override { return size_.slices; }

  void setup(SetupSpans& spans) override {
    spans.begin("setup.provision");
    agw_ = &net_.add_agw(agw::virtual_xeon(8));
    ran::EnodebConfig big;
    big.max_active_ues = size_.ues + 64;
    big.dl_capacity_bps = 10e9;
    big.ul_capacity_bps = 10e9;
    enb_ = &net_.add_enodeb(*agw_, big);
    enbs_.push_back(enb_);
    // Tier 1 at 1 Mbps for the first 1 MB, then 0.5 Mbps: flows above
    // the tier rate lose their excess at the meter, by design.
    net_.add_policy(core::tiered_policy(1'000'000, 1'000'000, 500'000));
    net_.add_policy(core::quota_billed_policy(1 << 20));
    std::vector<agw::SubscriberData> subs;
    for (int i = 0; i < size_.ues; ++i) {
      // 40% unlimited, 30% tiered, 30% OCS quota.
      const int mix = i % 10;
      const bool quota = mix >= 7;
      subs.push_back(net_.provision_subscriber(
          mix < 4 ? "unlimited" : quota ? kQuota : kTiered));
      if (quota) {
        net_.ocs()->create_account(subs.back().imsi, 1ull << 50);
      }
    }
    for (const auto& sub : subs) ues_.push_back(&net_.add_ue_lte(sub));
    spans.end();

    spans.begin("setup.sync");
    net_.run_for(2 * sim::kSecond);  // S1 setup
    net_.sync_all_config();
    spans.end();

    spans.begin("setup.attach");
    ramp_ = std::make_unique<core::AttachRamp>(net_, ues_, *enb_,
                                               size_.attach_rate_per_s);
    for (int i = 0; i < 60 && ramp_->completed() < ues_.size(); ++i) {
      net_.run_for(sim::from_seconds(
          i == 0 ? static_cast<double>(size_.ues) / size_.attach_rate_per_s
                 : 1.0));
    }
    for (ran::UeLte* ue : ues_) {
      if (!ue->ip().has_value()) continue;
      const double rate = rng_.uniform(size_.min_rate_bps, size_.max_rate_bps);
      const sim::Duration interval =
          static_cast<sim::Duration>(10 + rng_.uniform_int(11)) *
          sim::kMillisecond;
      flows_.push_back(std::make_unique<core::DownlinkFlow>(
          net_, *agw_, *ue->ip(), rate, interval, size_.packet_bytes));
      flows_.back()->start(static_cast<sim::Duration>(
          rng_.uniform(0, sim::to_seconds(interval)) * sim::kSecond));
    }
    net_.run_for(size_.warmup);
    spans.end();
  }

  void begin_measure() override {
    measure_start_ = net_.kernel().now();
    offered_before_ = agw_->user_plane_stats().offered_bytes;
    overload_before_ = agw_->user_plane_stats().dropped_overload_bytes;
    radio_before_ = enb_->stats().dl_dropped_radio_bytes;
    rx_before_ = ue_rx_bytes();
  }

  void end_measure() override {
    measured_s_ = sim::to_seconds(net_.kernel().now() - measure_start_);
    offered_ = agw_->user_plane_stats().offered_bytes - offered_before_;
    dropped_ = agw_->user_plane_stats().dropped_overload_bytes -
               overload_before_ + enb_->stats().dl_dropped_radio_bytes -
               radio_before_;
    rx_ = ue_rx_bytes() - rx_before_;
  }

  void drain() override {
    for (auto& flow : flows_) flow->stop();
    net_.run_for(2 * sim::kSecond);
  }

  Outcome outcome() override {
    Outcome out;
    out.failed_what = "offered downlink bytes (measured phase)";
    out.attempted = offered_;
    out.failed = dropped_;
    out.metrics.push_back(
        {"sim_dl_goodput_mbps", "Mbps",
         measured_s_ > 0 ? static_cast<double>(rx_) * 8 / measured_s_ / 1e6
                         : 0.0,
         0});
    out.metrics.push_back(
        {"failed_ratio", "ratio",
         offered_ == 0 ? 0.0
                       : static_cast<double>(dropped_) /
                             static_cast<double>(offered_),
         offered_});
    std::vector<double> attach_ms;
    for (const core::AttachRecord& r : ramp_->records()) {
      if (r.done && r.outcome.success) {
        attach_ms.push_back(sim::to_seconds(r.outcome.latency) * 1e3);
      }
    }
    out.metrics.push_back({"sim_setup_attach_p50_ms", "ms",
                           quantile(attach_ms, 0.5), attach_ms.size()});

    const agw::UserPlaneStats& up = agw_->user_plane_stats();
    const datapath::PipelineStats& ps = agw_->pipelined().pipeline().stats();
    Digest d;
    d.add("offered", offered_);
    d.add("dropped", dropped_);
    d.add("rx", rx_);
    d.add("up.offered_batches", up.offered_batches);
    d.add("up.offered_bytes", up.offered_bytes);
    d.add("up.forwarded_bytes", up.forwarded_bytes);
    d.add("up.forwarded_packets", up.forwarded_packets);
    d.add("pipeline.meter_drops", ps.dropped_by_meter);
    d.add("pipeline.no_match", ps.dropped_no_match);
    d.add("pipeline.cache_hits", ps.cache_hits);
    d.add("pipeline.cache_misses", ps.cache_misses);
    d.add("sessiond.quota_requests", agw_->sessiond().stats().quota_requests);
    d.add("sessiond.tier_transitions",
          agw_->sessiond().stats().tier_transitions);
    d.add("enb.delivered", enb_->stats().dl_delivered_bytes);
    d.add("cpu.user_ns",
          static_cast<std::uint64_t>(agw_->cpu().stats().busy_ns[1]));
    d.add("events", net_.kernel().executed_events());
    d.add("attach_p50", quantile(attach_ms, 0.5));
    out.digest = d.value();
    return out;
  }

  void check(Checks& checks) override {
    checks.expect(ramp_->succeeded() == ues_.size(),
                  "bulk_downlink: every UE attached during setup");
    checks.expect(flows_.size() == ues_.size() && offered_ > 0,
                  "bulk_downlink: every UE carried a downlink flow");
    const agw::UserPlaneStats& up = agw_->user_plane_stats();
    const datapath::PipelineStats& ps = agw_->pipelined().pipeline().stats();
    // All injected packets share one size, so the pipeline's per-packet
    // drop counters convert to offered (inner) bytes exactly.
    const std::uint64_t wire =
        datapath::make_udp(common::Ipv4::from_octets(8, 8, 8, 8),
                           common::Ipv4::from_octets(172, 16, 0, 1), 443,
                           40000, size_.packet_bytes)
            .wire_size();
    const std::uint64_t accounted =
        up.forwarded_packets * wire + up.dropped_overload_bytes +
        (ps.dropped_by_meter + ps.dropped_no_match + ps.dropped_by_policy) *
            wire;
    checks.expect(up.offered_bytes == accounted,
                  "bulk_downlink: offered == forwarded + overload + meter + "
                  "no-match + policy drops");
    checks.expect(ps.dropped_by_meter > 0,
                  "bulk_downlink: tiered subscribers were metered");
    checks.expect(ps.dropped_no_match == 0 && ps.dropped_by_policy == 0,
                  "bulk_downlink: no packet missed its session rules");
    checks.expect(agw_->sessiond().stats().quota_requests > 0 &&
                      agw_->sessiond().stats().quota_denials == 0,
                  "bulk_downlink: OCS quota granted on demand");
    std::uint64_t rx_bytes = 0, rx_packets = 0;
    for (ran::UeLte* ue : ues_) {
      rx_bytes += ue->traffic().rx_bytes;
      rx_packets += ue->traffic().rx_packets;
    }
    checks.expect(rx_bytes == enb_->stats().dl_delivered_bytes,
                  "bulk_downlink: UE rx bytes sum to eNodeB delivered bytes");
    checks.expect(rx_packets == up.forwarded_packets,
                  "bulk_downlink: every forwarded packet reached its UE");
    checks.expect(up.dropped_overload_bytes == 0 &&
                      enb_->stats().dl_dropped_radio_bytes == 0 &&
                      enb_->stats().unknown_teid_drops == 0,
                  "bulk_downlink: no CPU-overload, radio or unknown-TEID "
                  "drops");
  }

 private:
  std::uint64_t ue_rx_bytes() const {
    std::uint64_t sum = 0;
    for (const ran::UeLte* ue : ues_) sum += ue->traffic().rx_bytes;
    return sum;
  }

  BulkSize size_;
  core::Network net_;
  sim::Rng rng_;
  agw::AccessGateway* agw_ = nullptr;
  ran::EnodeB* enb_ = nullptr;
  std::vector<ran::EnodeB*> enbs_;
  std::vector<ran::UeLte*> ues_;
  std::unique_ptr<core::AttachRamp> ramp_;
  std::vector<std::unique_ptr<core::DownlinkFlow>> flows_;
  sim::TimePoint measure_start_ = 0;
  double measured_s_ = 0;
  std::uint64_t offered_before_ = 0, overload_before_ = 0, radio_before_ = 0;
  std::uint64_t rx_before_ = 0;
  std::uint64_t offered_ = 0, dropped_ = 0, rx_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_bulk_downlink(std::uint64_t seed, bool quick) {
  return std::make_unique<BulkDownlink>(seed, quick);
}

}  // namespace magma::scenario
