// fleet_slo_availability — the fig.9-style SLO accounting bench.
//
// Runs a small fleet through a week-compressed outage scenario with
// *known* injected downtime — backhaul cuts on two gateways and a wedged
// magmad (service crash) on a third — and checks that the orc8r SLO layer
// reconstructs reality from the signals that already flow:
//
//   1. The statusd availability ledger, with its backdated down edges,
//      lands within 0.1% of the ground-truth injected availability, per
//      gateway AND for the fleet rollup (§5: AccessParks judged the
//      deployment by exactly this number — 99.7% average availability).
//   2. The multi-window burn-rate alert on sli_gateway_up fires while an
//      outage is burning budget and clears after recovery.
//   3. The downtime attribution join labels every injected interval with
//      the right non-unknown cause (backhaul vs service_crash).
//
// Prints the metricsd fleet availability rollup and the SLO report — the
// operator's answer to "what was my fleet's availability and why".
//
// Usage: fleet_slo_availability [--quick]
//   --quick : 24 simulated hours (ctest). Default: 7 simulated days.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "agw/agw.h"
#include "bench_util.h"
#include "core/network.h"
#include "obs/events.h"
#include "obs/slo/availability.h"
#include "orc8r/metricsd.h"
#include "orc8r/orchestrator.h"
#include "sim/time.h"

using namespace magma;

namespace {

constexpr int kFleet = 6;

struct TruthInterval {
  int gw = 0;
  sim::TimePoint start = 0;
  sim::TimePoint end = 0;
  obs::slo::DowntimeCause cause = obs::slo::DowntimeCause::kUnknown;
};

bool check(bool ok, const char* what, int& failures) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++failures;
  return ok;
}

bool burn_alert_firing(const orc8r::Metricsd& metricsd,
                       const std::string& gateway_id) {
  for (const auto& alert : metricsd.active_alerts()) {
    if (alert.rule == "slo_availability_burn" &&
        alert.gateway_id == gateway_id) {
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  benchutil::banner("fleet_slo_availability — SLO accounting vs ground truth",
                    "§5 'average network availability of 99.7%'");

  // Tight cadences keep the backdated-edge error (≤ one checkin interval
  // per edge) far inside the 0.1% budget even over the quick horizon.
  core::NetworkConfig config;
  config.magmad.checkin_interval = 15 * sim::kSecond;
  config.magmad.metrics_interval = 15 * sim::kSecond;
  core::Network net(config);
  for (int i = 0; i < kFleet; ++i) net.add_agw(agw::bare_metal_j3160());

  const sim::Duration horizon =
      quick ? 24 * sim::kHour : 7 * 24 * sim::kHour;
  std::printf("fleet: %d AGWs, checkin every %.0fs, horizon %s\n\n", kFleet,
              sim::to_seconds(config.magmad.checkin_interval),
              quick ? "24h (--quick)" : "7 days");

  int failures = 0;

  // ---- Injected fault schedule (ground truth) --------------------------
  // All faults land inside the first 20h so --quick exercises every one.
  std::vector<TruthInterval> truth;
  const auto at = [](double hours) {
    return static_cast<sim::TimePoint>(hours * 3600) * sim::kSecond;
  };

  // Settle past first contact so every gateway is observed and healthy.
  net.run_for(5 * sim::kMinute);

  const auto run_until = [&](sim::TimePoint t) {
    if (t > net.kernel().now()) net.run_for(t - net.kernel().now());
  };

  // gw0: backhaul cut 2h–4h.
  run_until(at(2));
  net.set_backhaul_up(net.agw(0), false);
  truth.push_back({0, at(2), at(4), obs::slo::DowntimeCause::kBackhaul});

  // Mid-outage probe: the availability burn alert must be firing for gw0
  // once both the 5-min and 1-h windows have burned past threshold.
  run_until(at(3));
  check(net.orchestrator().statusd().health("gw0") ==
            orc8r::GatewayHealth::kUnreachable,
        "statusd marked gw0 Unreachable mid-outage", failures);
  check(net.orchestrator().statusd().availability().is_down("gw0"),
        "ledger holds an open downtime interval for gw0", failures);
  check(burn_alert_firing(net.orchestrator().metrics(), "gw0"),
        "slo_availability_burn firing for gw0 mid-outage", failures);

  run_until(at(4));
  net.set_backhaul_up(net.agw(0), true);

  // gw1: backhaul cut 6h–6.5h.
  run_until(at(6));
  net.set_backhaul_up(net.agw(1), false);
  truth.push_back({1, at(6), at(6.5), obs::slo::DowntimeCause::kBackhaul});
  run_until(at(6.5));
  net.set_backhaul_up(net.agw(1), true);

  // gw0 recovered >2h ago: both burn windows have drained.
  check(!burn_alert_firing(net.orchestrator().metrics(), "gw0"),
        "slo_availability_burn cleared for gw0 after recovery", failures);

  // gw2: service crash at 9h — sessiond logs an ERROR, then magmad wedges
  // (every periodic loop stops doing work) until 9h45m. The ERROR event
  // waits out the wedge in gw2's buffer and rides the first report after
  // it, inside the attribution settle; the counters stay flat, so
  // attribution must pick service_crash over backhaul.
  run_until(at(9));
  net.agw(2).events().push(obs::Event{net.kernel().now(), "gw2",
                                      "service_crash", "sessiond",
                                      "sessiond terminated: assert failure",
                                      obs::EventSeverity::kError});
  net.run_for(10 * sim::kSecond);  // the wedge follows the crash
  net.agw(2).magmad().simulate_wedge(true);
  truth.push_back(
      {2, net.kernel().now(), at(9.75), obs::slo::DowntimeCause::kServiceCrash});
  run_until(at(9.75));
  net.agw(2).magmad().simulate_wedge(false);

  // gw0 again: backhaul cut 16h–17h (two intervals on one gateway).
  run_until(at(16));
  net.set_backhaul_up(net.agw(0), false);
  truth.push_back({0, at(16), at(17), obs::slo::DowntimeCause::kBackhaul});
  run_until(at(17));
  net.set_backhaul_up(net.agw(0), true);

  // Run out the horizon (covers the attribution settle after the last
  // recovery and drains every burn window).
  run_until(horizon);
  const sim::TimePoint now = net.kernel().now();

  const auto& ledger = net.orchestrator().statusd().availability();

  // ---- 1. Availability vs ground truth ---------------------------------
  std::printf("Availability vs injected ground truth (0.1%% budget):\n");
  double fleet_measured = 0;
  double fleet_truth = 0;
  for (int i = 0; i < kFleet; ++i) {
    const std::string id = "gw" + std::to_string(i);
    const sim::TimePoint seen = ledger.first_seen(id);
    double truth_down_s = 0;
    for (const auto& t : truth) {
      if (t.gw == i) truth_down_s += sim::to_seconds(t.end - t.start);
    }
    const double denom_s = sim::to_seconds(now - seen);
    const double truth_avail = 1.0 - truth_down_s / denom_s;
    const double measured = ledger.uptime_ratio(id, 0, now);
    fleet_measured += measured;
    fleet_truth += truth_avail;
    char what[128];
    std::snprintf(what, sizeof(what),
                  "%s measured %.4f%% vs truth %.4f%% (|err| %.4f%%)",
                  id.c_str(), measured * 100.0, truth_avail * 100.0,
                  std::fabs(measured - truth_avail) * 100.0);
    check(std::fabs(measured - truth_avail) <= 0.001, what, failures);
  }
  fleet_measured /= kFleet;
  fleet_truth /= kFleet;
  {
    char what[128];
    std::snprintf(what, sizeof(what),
                  "FLEET measured %.4f%% vs truth %.4f%% (|err| %.4f%%)",
                  fleet_measured * 100.0, fleet_truth * 100.0,
                  std::fabs(fleet_measured - fleet_truth) * 100.0);
    check(std::fabs(fleet_measured - fleet_truth) <= 0.001, what, failures);
  }

  // ---- 2. Downtime attribution -----------------------------------------
  std::printf("\nDowntime attribution:\n");
  for (int i = 0; i < kFleet; ++i) {
    const std::string id = "gw" + std::to_string(i);
    const auto* ivs = ledger.intervals(id);
    std::size_t expected = 0;
    for (const auto& t : truth) {
      if (t.gw == i) ++expected;
    }
    const std::size_t got = ivs != nullptr ? ivs->size() : 0;
    char what[128];
    std::snprintf(what, sizeof(what), "%s: %zu downtime interval(s), want %zu",
                  id.c_str(), got, expected);
    check(got == expected, what, failures);
  }
  for (const auto& t : truth) {
    const std::string id = "gw" + std::to_string(t.gw);
    const auto* ivs = ledger.intervals(id);
    const obs::slo::DowntimeInterval* match = nullptr;
    if (ivs != nullptr) {
      for (const auto& iv : *ivs) {
        // Backdating bounds the measured edge to within ~2 checkin
        // intervals of the injected cut.
        if (std::llabs(iv.start - t.start) <=
            2 * config.magmad.checkin_interval) {
          match = &iv;
          break;
        }
      }
    }
    char what[160];
    if (match == nullptr) {
      std::snprintf(what, sizeof(what),
                    "%s outage @%.0fh: interval found near injected start",
                    id.c_str(), sim::to_seconds(t.start) / 3600.0);
      check(false, what, failures);
      continue;
    }
    std::snprintf(what, sizeof(what), "%s outage @%.0fh labeled %s (%s)",
                  id.c_str(), sim::to_seconds(t.start) / 3600.0,
                  obs::slo::downtime_cause_name(match->cause),
                  match->detail.c_str());
    check(match->cause == t.cause, what, failures);
  }
  {
    const auto& stats = net.orchestrator().stats();
    char what[128];
    std::snprintf(what, sizeof(what),
                  "attribution join labeled %llu/%zu intervals (unattributed "
                  "%llu)",
                  static_cast<unsigned long long>(
                      stats.downtime_intervals_labeled),
                  truth.size(),
                  static_cast<unsigned long long>(stats.downtime_unattributed));
    check(stats.downtime_intervals_labeled == truth.size() &&
              stats.downtime_unattributed == 0,
          what, failures);
  }

  // ---- 3. Burn alert hygiene at horizon --------------------------------
  std::printf("\nAlert hygiene at horizon:\n");
  bool any_burn = false;
  for (const auto& alert : net.orchestrator().metrics().active_alerts()) {
    if (alert.rule.rfind("slo_", 0) == 0) any_burn = true;
  }
  check(!any_burn, "no slo_* burn alert still firing at horizon", failures);

  // ---- The operator's view ---------------------------------------------
  std::printf("\nFleet availability rollup (metricsd):\n%s",
              orc8r::format_availability(
                  net.orchestrator().availability_rollup(0, now))
                  .c_str());
  std::printf("\nSLO report:\n%s",
              obs::slo::format_slo_report(net.orchestrator().slo_report(0, now))
                  .c_str());

  std::printf("\n%s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
