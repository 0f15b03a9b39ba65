// attach_churn: eight AGWs, each with two eNodeBs and a pool of LTE UEs that
// cycle attach -> hold -> detach as an open-loop Poisson process in
// simulated time. A share of the cycles go ECM-IDLE and come back with a
// service request, another share hand over to the sibling cell. No bulk
// traffic: crypto, NAS/S1AP codecs, accessd, sessiond, mobilityd and
// pipelined rule install/remove do the work while the datapath idles.
#include <algorithm>

#include "core/network.h"
#include "workload.h"

namespace magma::scenario {
namespace {

// Classify (uplink, downlink) plus enforcement (meters or block pairs).
constexpr std::size_t kMaxRulesPerSession = 8;

struct ChurnSize {
  int agws = 8;
  int ues_per_agw = 500;
  double cycles_per_s = 10;  // per AGW; accessd sustains ~36/s
  double mean_hold_s = 4;
  double max_hold_s = 20;
  double idle_share = 0.10;      // cycles that go idle + service request
  double handover_share = 0.10;  // cycles that hand over to the other cell
  sim::Duration boot_spread = 60 * sim::kSecond;
  sim::Duration warmup = 10 * sim::kSecond;
  sim::Duration slice = 100 * sim::kMillisecond;
  int slices = 1200;
};

class AttachChurn final : public Workload {
 public:
  AttachChurn(std::uint64_t seed, bool quick)
      : net_(core::NetworkConfig{.seed = seed}), rng_(seed ^ 0xa77ac4ull) {
    if (quick) {
      size_.agws = 2;
      size_.ues_per_agw = 100;
      size_.warmup = 5 * sim::kSecond;
      size_.slices = 1000;
      size_.slice = 20 * sim::kMillisecond;
    }
  }

  core::Network& network() override { return net_; }
  const std::vector<ran::EnodeB*>& enbs() const override { return enbs_; }
  sim::Duration slice() const override { return size_.slice; }
  int slices() const override { return size_.slices; }

  void setup(SetupSpans& spans) override {
    spans.begin("setup.provision");
    std::vector<agw::SubscriberData> subs;
    for (int i = 0; i < size_.agws * size_.ues_per_agw; ++i) {
      subs.push_back(net_.provision_subscriber());
    }
    for (std::size_t i = 0; i < subs.size(); ++i) {
      ues_.push_back(Ue{&net_.add_ue_lte(subs[i]),
                        static_cast<int>(i) / size_.ues_per_agw,
                        static_cast<int>(i % 2)});
    }
    spans.end();

    // AGWs boot one by one across the longest magmad cadence, so their
    // periodic loops (checkpoints above all) are spread out in time as in
    // a real deployment rather than firing in lockstep.
    spans.begin("setup.sync");
    const sim::Duration gap = size_.boot_spread / size_.agws;
    for (int a = 0; a < size_.agws; ++a) {
      Site site;
      site.agw = &net_.add_agw(agw::virtual_xeon(8));
      site.enb[0] = &net_.add_enodeb(*site.agw);
      site.enb[1] = &net_.add_enodeb(*site.agw);
      enbs_.push_back(site.enb[0]);
      enbs_.push_back(site.enb[1]);
      site.rng = sim::Rng(rng_.next_u64());
      sites_.push_back(site);
      net_.run_for(gap);
    }
    for (std::size_t u = 0; u < ues_.size(); ++u) {
      sites_[ues_[u].site].free.push_back(static_cast<int>(u));
    }
    net_.run_for(2 * sim::kSecond);  // S1 setup of the last site
    net_.sync_all_config();
    for (Site& site : sites_) {
      base_flow_entries_.push_back(
          site.agw->pipelined().pipeline().total_flow_entries());
    }
    spans.end();

    spans.begin("setup.attach");
    generating_ = true;
    for (int a = 0; a < size_.agws; ++a) schedule_arrival(a);
    net_.run_for(size_.warmup);
    spans.end();
  }

  void begin_measure() override {
    measuring_ = true;
  }

  void end_measure() override {
    measuring_ = false;
    // Invariants while the churn is in full swing.
    std::int64_t created = 0, ended = 0, active = 0;
    std::int64_t installed = 0, removed = 0;
    for (std::size_t a = 0; a < sites_.size(); ++a) {
      agw::AccessGateway& g = *sites_[a].agw;
      created +=
          static_cast<std::int64_t>(g.sessiond().stats().sessions_created);
      ended += static_cast<std::int64_t>(g.sessiond().stats().sessions_ended);
      active += static_cast<std::int64_t>(g.sessiond().active_sessions());
      installed +=
          static_cast<std::int64_t>(g.pipelined().stats().sessions_installed);
      removed +=
          static_cast<std::int64_t>(g.pipelined().stats().sessions_removed);
      // Rules per session vary (an idle session has no uplink rule), so
      // mid-churn the check is a band; after the drain it is exact.
      const std::size_t sessions = g.pipelined().session_count();
      const std::size_t extra =
          g.pipelined().pipeline().total_flow_entries() - base_flow_entries_[a];
      if (sessions != g.sessiond().active_sessions() || extra < sessions ||
          extra > kMaxRulesPerSession * sessions) {
        rules_bounded_ = false;
      }
    }
    mid_created_minus_ended_ = created - ended;
    mid_active_ = active;
    mid_installed_minus_removed_ = installed - removed;
  }

  void drain() override {
    generating_ = false;
    // Every started cycle ends within max_hold + detach settling; keep
    // going until none is in flight.
    for (int i = 0; i < 40 && in_flight_ > 0; ++i) {
      net_.run_for(2 * sim::kSecond);
    }
    net_.run_for(2 * sim::kSecond);
  }

  Outcome outcome() override {
    Outcome out;
    out.failed_what = "attaches (measured phase)";
    std::vector<double> latency_ms;
    std::uint64_t all_attempted = 0, all_ok = 0;
    for (const Attempt& a : attempts_) {
      ++all_attempted;
      if (a.done && a.success) ++all_ok;
      if (!a.in_window) continue;
      ++out.attempted;
      if (!a.done || !a.success) {
        ++out.failed;
        continue;
      }
      latency_ms.push_back(sim::to_seconds(a.latency) * 1e3);
    }
    out.metrics.push_back({"sim_attach_p50_ms", "ms",
                           quantile(latency_ms, 0.50), latency_ms.size()});
    out.metrics.push_back({"sim_attach_p99_ms", "ms",
                           quantile(latency_ms, 0.99), latency_ms.size()});
    out.metrics.push_back(
        {"failed_ratio", "ratio",
         out.attempted == 0 ? 0.0
                            : static_cast<double>(out.failed) /
                                  static_cast<double>(out.attempted),
         out.attempted});

    Digest d;
    d.add("attempts", all_attempted);
    d.add("attach_ok", all_ok);
    d.add("window_attempted", out.attempted);
    d.add("latency_p50", quantile(latency_ms, 0.50));
    d.add("latency_p99", quantile(latency_ms, 0.99));
    std::uint64_t latency_sum = 0;
    for (const Attempt& a : attempts_) {
      latency_sum += static_cast<std::uint64_t>(a.latency);
    }
    d.add("latency_sum_ns", latency_sum);
    d.add("idle_cycles", idle_cycles_);
    d.add("handovers", handovers_);
    d.add("handover_rejects", handover_rejects_);
    d.add("events", net_.kernel().executed_events());
    for (const Site& site : sites_) {
      agw::AccessGateway& g = *site.agw;
      const agw::AccessdStats& acc = g.accessd().stats();
      d.add("accessd.started", acc.attach_started[0]);
      d.add("accessd.completed", acc.attach_completed[0]);
      d.add("accessd.rejected", acc.attach_rejected[0]);
      d.add("accessd.detaches", acc.detaches);
      d.add("sessiond.created", g.sessiond().stats().sessions_created);
      d.add("sessiond.ended", g.sessiond().stats().sessions_ended);
      d.add("pipelined.installed", g.pipelined().stats().sessions_installed);
      d.add("lte.service_requests", g.lte().stats().service_requests);
      d.add("lte.path_switches", g.lte().stats().path_switches);
      d.add("cpu.control_ns",
            static_cast<std::uint64_t>(g.cpu().stats().busy_ns[0]));
      d.add("subscriberdb.vectors", g.subscriberdb().stats().vectors_generated);
    }
    out.digest = d.value();
    return out;
  }

  void check(Checks& checks) override {
    std::uint64_t incomplete = 0, failed = 0;
    for (const Attempt& a : attempts_) {
      if (!a.done) ++incomplete;
      else if (!a.success) ++failed;
    }
    checks.expect(!attempts_.empty(), "attach_churn: attaches were attempted");
    checks.expect(incomplete == 0 && failed == 0,
                  "attach_churn: every attempted attach completed "
                  "successfully");
    checks.expect(pool_exhausted_ == 0,
                  "attach_churn: the UE pool never ran dry (open loop kept "
                  "its schedule)");
    checks.expect(mid_created_minus_ended_ == mid_active_,
                  "attach_churn: sessions created - ended == active sessions");
    checks.expect(mid_installed_minus_removed_ == mid_active_,
                  "attach_churn: pipelined installed - removed == active "
                  "sessions");
    checks.expect(rules_bounded_,
                  "attach_churn: flow entries - base within [1, 8] rules per "
                  "active session mid-churn");
    bool drained = true;
    std::uint64_t overload = 0;
    for (std::size_t a = 0; a < sites_.size(); ++a) {
      agw::AccessGateway& g = *sites_[a].agw;
      drained = drained && g.sessiond().active_sessions() == 0 &&
                g.sessiond().stats().sessions_created ==
                    g.sessiond().stats().sessions_ended &&
                g.pipelined().pipeline().total_flow_entries() ==
                    base_flow_entries_[a];
      overload += g.accessd().stats().overload_rejections;
    }
    checks.expect(drained,
                  "attach_churn: after the last detach no session or flow "
                  "rule is left behind");
    checks.expect(overload == 0, "attach_churn: accessd never shed an attach");
  }

 private:
  struct Site {
    agw::AccessGateway* agw = nullptr;
    ran::EnodeB* enb[2] = {nullptr, nullptr};
    std::vector<int> free;  // indices into ues_ not in a cycle
    sim::Rng rng{0};
  };
  struct Ue {
    ran::UeLte* ue = nullptr;
    int site = 0;
    int home_enb = 0;
  };
  struct Attempt {
    bool in_window = false;
    bool done = false;
    bool success = false;
    sim::Duration latency = 0;
  };

  void schedule_arrival(int s) {
    const double gap = sites_[s].rng.exponential(1.0 / size_.cycles_per_s);
    net_.kernel().schedule(sim::from_seconds(gap), [this, s]() { arrive(s); });
  }

  void arrive(int s) {
    if (!generating_) return;
    schedule_arrival(s);
    Site& site = sites_[s];
    if (site.free.empty()) {
      ++pool_exhausted_;
      return;
    }
    const std::size_t pick = site.rng.uniform_int(site.free.size());
    const int u = site.free[pick];
    site.free[pick] = site.free.back();
    site.free.pop_back();
    start_cycle(u);
  }

  void start_cycle(int u) {
    ++in_flight_;
    const std::size_t attempt = attempts_.size();
    attempts_.push_back(Attempt{measuring_, false, false, 0});
    Ue& ue = ues_[u];
    ran::EnodeB& enb = *sites_[ue.site].enb[ue.home_enb];
    ue.ue->attach(enb, [this, u, attempt](const ran::AttachOutcome& o) {
      Attempt& a = attempts_[attempt];
      a.done = true;
      a.success = o.success;
      a.latency = o.latency;
      if (o.success) {
        hold(u);
      } else {
        end_cycle(u, 5 * sim::kSecond);
      }
    });
  }

  void hold(int u) {
    Site& site = sites_[ues_[u].site];
    const double hold_s =
        std::clamp(site.rng.exponential(size_.mean_hold_s), 1.0,
                   size_.max_hold_s);
    const sim::Duration hold = sim::from_seconds(hold_s);
    const double kind = site.rng.uniform();
    ran::UeLte* ue = ues_[u].ue;
    if (kind < size_.idle_share) {
      ++idle_cycles_;
      net_.kernel().schedule(hold / 3, [ue]() { ue->enter_idle(); });
      net_.kernel().schedule(2 * hold / 3, [ue]() { ue->service_request(); });
    } else if (kind < size_.idle_share + size_.handover_share) {
      net_.kernel().schedule(hold / 2, [this, u]() {
        Ue& x = ues_[u];
        ran::EnodeB& target = *sites_[x.site].enb[1 - x.home_enb];
        if (x.ue->handover_to(target)) {
          ++handovers_;
        } else {
          ++handover_rejects_;
        }
      });
    }
    net_.kernel().schedule(hold, [this, u]() {
      ues_[u].ue->detach(false);
      end_cycle(u, 2 * sim::kSecond);
    });
  }

  // The UE rejoins its site's free pool once the detach has settled.
  void end_cycle(int u, sim::Duration settle) {
    net_.kernel().schedule(settle, [this, u]() {
      sites_[ues_[u].site].free.push_back(u);
      --in_flight_;
    });
  }

  ChurnSize size_;
  core::Network net_;
  sim::Rng rng_;
  std::vector<Site> sites_;
  std::vector<ran::EnodeB*> enbs_;
  std::vector<Ue> ues_;
  std::vector<Attempt> attempts_;
  std::vector<std::size_t> base_flow_entries_;
  bool generating_ = false;
  bool measuring_ = false;
  std::int64_t in_flight_ = 0;
  std::uint64_t pool_exhausted_ = 0;
  std::uint64_t idle_cycles_ = 0;
  std::uint64_t handovers_ = 0;
  std::uint64_t handover_rejects_ = 0;
  // Mid-churn invariants recorded by end_measure(); distinct sentinels so
  // the checks fail if it never ran.
  std::int64_t mid_created_minus_ended_ = -1;
  std::int64_t mid_active_ = -2;
  std::int64_t mid_installed_minus_removed_ = -3;
  bool rules_bounded_ = true;
};

}  // namespace

std::unique_ptr<Workload> make_attach_churn(std::uint64_t seed, bool quick) {
  return std::make_unique<AttachChurn>(seed, quick);
}

}  // namespace magma::scenario
