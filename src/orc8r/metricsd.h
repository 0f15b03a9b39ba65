// metricsd — central telemetry collection (§3.1: "telemetry and logging"
// has "no equivalent defined" in 3GPP; Magma makes it a first-class
// responsibility, which §4.3.1 credits for much of the operational-cost
// reduction).
//
// AGWs report samples best-effort (§3.4: metrics state); metricsd stores
// time series and answers simple aggregate queries, playing the role of the
// paper's Prometheus. Lost reports are simply absent points.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "obs/histogram.h"
#include "obs/sketch/subscriber_sketches.h"
#include "obs/slo/availability.h"
#include "obs/tail_sampler.h"
#include "sim/time.h"

namespace magma::orc8r {

struct MetricSample {
  std::string gateway_id;
  std::string name;
  double value = 0;
  sim::TimePoint time = 0;
};

common::Bytes encode_metric_report(const std::vector<MetricSample>& samples);
common::Result<std::vector<MetricSample>> decode_metric_report(
    common::BytesView data);

// Histogram metric: gateways aggregate observations into log-spaced buckets
// locally and ship cumulative snapshots — metricsd never sees raw samples,
// so the reporting cost is O(buckets) regardless of attach rate.
struct HistogramSnapshot {
  std::string gateway_id;
  std::string name;
  std::vector<double> bounds;         // ascending bucket upper bounds
  std::vector<std::uint64_t> counts;  // bounds.size()+1, overflow last
  double sum = 0;
  sim::TimePoint time = 0;
  // Delta shipping: a delta snapshot carries only the buckets whose
  // cumulative count changed since the sender's last shipped snapshot, as
  // (bucket index, new cumulative count) pairs; bounds/counts stay empty.
  // Metricsd overlays the pairs onto its stored full snapshot for the same
  // (gateway, name) — the values are still cumulative, so a lost delta is
  // self-correcting as soon as those buckets change again (and magmad
  // re-ships full after any report loss regardless).
  bool delta = false;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> changed;
  // Optional per-bucket exemplars as (bucket index, trace id) pairs — one
  // recent trace that landed in that bucket, so a p99 query can be pivoted
  // to a pinned trace. Full snapshots carry every non-zero exemplar; delta
  // snapshots carry only buckets whose exemplar changed.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> exemplars;
};

common::Bytes encode_histogram_report(
    const std::vector<HistogramSnapshot>& snapshots);
common::Result<std::vector<HistogramSnapshot>> decode_histogram_report(
    common::BytesView data);

// One row of the fleet-wide "where does <op> latency go" table: the
// tail-sampled traces of a root operation, aggregated across gateways, with
// the total decomposed along the critical path into wait states. These are
// *tail* samples (each gateway's K slowest per window), so the table
// attributes the latency an operator is paged about, not the mean.
struct LatencyAttributionRow {
  std::string root_op;
  std::uint64_t traces = 0;
  double total_s = 0;  // summed root durations
  double max_s = 0;    // slowest single trace seen
  // Per-wait-state critical-path seconds, indexed by obs::WaitState; sums
  // to total_s (each summary's breakdown sums to its duration).
  std::array<double, obs::kWaitStateCount> component_s{};
};

// How an alert rule interprets its threshold.
enum class AlertKind : std::uint8_t {
  kThreshold = 0,  // fire on the sample's value vs threshold
  // Fire when the value *rises* by more than `threshold` vs the previous
  // sample from the same gateway (for monotonic counters like
  // transport_resets, where any growth is the page-worthy signal).
  kDelta = 1,
  // SRE-style multi-window burn rate over an SLI series (samples are good
  // fractions in [0, 1]). Fires only when BOTH the fast window's and the
  // slow window's burn rate — (1 - mean) / (1 - objective) — exceed
  // `threshold`: the fast window makes the alert react within minutes of an
  // outage, the slow window keeps a single bad sample from paging; clears
  // as soon as either window recovers, so the page ends minutes after the
  // incident does instead of waiting out the long window.
  kBurnRate = 2,
};

// Threshold alert rule (the "metrics, alerting, and monitoring" systems
// §3.2 says consume the northbound API — a minimal Prometheus-alertmanager
// stand-in).
struct AlertRule {
  std::string name;          // rule name (unique)
  std::string metric;        // metric it watches
  double threshold = 0;
  bool fire_above = true;    // fire when value > threshold (else <)
  AlertKind kind = AlertKind::kThreshold;
  // kBurnRate only: the SLO's good-fraction objective and the two windows.
  double objective = 0.999;
  sim::Duration fast_window = 5 * sim::kMinute;
  sim::Duration slow_window = sim::kHour;
};

struct ActiveAlert {
  std::string rule;
  std::string gateway_id;
  double value = 0;
  sim::TimePoint since = 0;
};

class Metricsd {
 public:
  void ingest(const MetricSample& sample);
  void ingest(const std::vector<MetricSample>& samples);

  // Cumulative histogram snapshot from a gateway: replaces that gateway's
  // previous snapshot of the same name (drops ignored snapshots with a
  // malformed bucket layout). Delta snapshots overlay the stored full
  // snapshot; a delta without a stored base (first report lost, or layout
  // change raced) is counted in histogram_delta_orphans and dropped — the
  // sender re-ships full after any loss.
  void ingest_histogram(const HistogramSnapshot& snapshot);
  void ingest_histograms(const std::vector<HistogramSnapshot>& snapshots);
  std::uint64_t histogram_delta_orphans() const {
    return histogram_delta_orphans_;
  }
  std::vector<std::string> histogram_names() const;
  // Buckets of `name` merged across gateways (empty if unknown).
  obs::Histogram merged_histogram(const std::string& name) const;
  // p50/p95/p99-style query over the merged buckets; 0 when absent.
  double histogram_quantile(const std::string& name, double q) const;
  std::uint64_t histogram_count(const std::string& name) const;
  // The metrics→trace pivot: trace id of one exemplar in (or below) the
  // quantile-q bucket of the merged histogram (0: none shipped yet).
  std::uint64_t histogram_exemplar(const std::string& name, double q) const;

  // --- per-subscriber sketches (cardinality-bounded telemetry) -------------
  // Cumulative sketch report from a gateway: replaces that gateway's
  // previous report (out-of-order replays older than the stored report are
  // dropped and counted against DropKind::kSketch).
  void ingest_sketch_report(obs::sketch::SketchReport report);
  std::uint64_t sketch_reports_ingested() const {
    return sketch_reports_ingested_;
  }
  std::size_t sketch_gateways() const { return sketches_.size(); }
  // Fleet-wide merge across gateways; error bounds carried explicitly (a
  // key one gateway evicted contributes that gateway's min-count).
  obs::sketch::SpaceSaving merged_top_subscribers(
      obs::sketch::SubscriberMetric metric) const;
  // Fleet-wide distinct active IMSIs (HLL register-max merge): since boot,
  // or over the gateways' last closed window.
  double fleet_active_subscribers(bool window = false) const;
  // Rendered top-K answer for "who are my worst subscribers by <metric>".
  std::string top_subscribers_report(obs::sketch::SubscriberMetric metric,
                                     std::size_t k) const;

  // Tail-sampled trace summaries (shipped by magmad on the metrics tick):
  // fold each into the per-root-op attribution table.
  void ingest_trace_summaries(const std::vector<obs::TraceSummary>& summaries);
  std::uint64_t trace_summaries_ingested() const {
    return trace_summaries_ingested_;
  }
  // The fleet-wide attribution table, root-op-ordered. Render with
  // format_latency_attribution() below.
  std::vector<LatencyAttributionRow> latency_attribution() const;

  // Per-series retention cap: each (metric name) series keeps at most this
  // many samples, oldest trimmed first (million-user soaks must not grow
  // metricsd without bound). Eviction is chunked — a series over the cap
  // drops its oldest half-cap at once, so length oscillates in
  // [cap/2, cap] and retention stays O(1) amortized per sample instead of
  // an O(cap) front-erase each. 0 disables the cap.
  void set_retention(std::size_t max_samples_per_series);
  std::uint64_t samples_dropped() const;
  // Per-kind drop accounting: every sample metricsd discards — retention
  // trims, malformed histograms, undecodable reports — lands in exactly one
  // kind, so silent telemetry truncation is itself a metric.
  enum class DropKind : std::uint8_t {
    kMetric = 0,        // retention-cap trims of plain samples
    kHistogram = 1,     // malformed layouts, orphaned deltas
    kTraceSummary = 2,  // undecodable trace-summary reports
    kSketch = 3,        // undecodable or stale sketch reports
  };
  static constexpr std::size_t kDropKindCount = 4;
  static const char* drop_kind_name(DropKind kind);
  std::uint64_t samples_dropped(DropKind kind) const {
    return dropped_[static_cast<std::size_t>(kind)];
  }
  // Ingest-adjacent layers (the orchestrator's decode path) report their
  // discards here so the gauge below covers the whole pipeline.
  void note_drop(DropKind kind, std::uint64_t n = 1) {
    dropped_[static_cast<std::size_t>(kind)] += n;
  }
  // Self-observation: ingest one `metricsd_samples_dropped` gauge sample
  // per kind (gateway_id = kind name), so the default kDelta rule pages on
  // any growth — a telemetry pipeline that drops data must say so in the
  // telemetry itself.
  void self_observe(sim::TimePoint now);

  // --- alerting ------------------------------------------------------------
  void add_alert_rule(AlertRule rule);
  void remove_alert_rule(const std::string& name);
  // Alerts currently firing (per gateway, latest sample crossing the
  // threshold; clears when a sample comes back within bounds).
  std::vector<ActiveAlert> active_alerts() const;
  const std::vector<AlertRule>& alert_rules() const { return rules_; }
  std::uint64_t alerts_fired() const { return alerts_fired_; }

  // All samples of `name` across gateways, time-ordered.
  std::vector<MetricSample> series(const std::string& name) const;
  // Latest value per gateway for `name`, summed (e.g. network-wide
  // active-subscriber count).
  double sum_latest(const std::string& name) const;
  std::optional<double> latest(const std::string& gateway_id,
                               const std::string& name) const;
  // Last value of `name` from `gateway_id` at or before `at` — what the
  // downtime-attribution join uses to read a cumulative counter "just
  // before the outage" vs "after recovery".
  std::optional<double> latest_at_or_before(const std::string& gateway_id,
                                            const std::string& name,
                                            sim::TimePoint at) const;
  // Sum of all values of `name` in [from, to) (e.g. bytes per hour).
  double sum_in_window(const std::string& name, sim::TimePoint from,
                       sim::TimePoint to) const;
  // Mean of all values of `name` in [from, to), across gateways — the SLI
  // aggregation slo_report uses. nullopt when the window holds no samples.
  std::optional<double> mean_in_window(const std::string& name,
                                       sim::TimePoint from,
                                       sim::TimePoint to) const;

  std::size_t total_samples() const { return total_; }
  std::vector<std::string> metric_names() const;

 private:
  void evaluate_alerts(const MetricSample& sample);

  // name -> time-ordered samples.
  std::map<std::string, std::vector<MetricSample>> by_name_;
  std::size_t total_ = 0;
  std::size_t max_per_series_ = 100000;
  std::array<std::uint64_t, kDropKindCount> dropped_{};

  // (gateway, name) -> latest cumulative snapshot.
  std::map<std::pair<std::string, std::string>, obs::Histogram> histograms_;
  std::uint64_t histogram_delta_orphans_ = 0;

  // gateway -> latest cumulative sketch report.
  std::map<std::string, obs::sketch::SketchReport> sketches_;
  std::uint64_t sketch_reports_ingested_ = 0;

  // root op -> aggregated tail-trace attribution.
  std::map<std::string, LatencyAttributionRow> attribution_;
  std::uint64_t trace_summaries_ingested_ = 0;

  std::vector<AlertRule> rules_;
  // (rule name, gateway) -> alert
  std::map<std::pair<std::string, std::string>, ActiveAlert> firing_;
  // (metric, gateway) -> previous value, for kDelta rules.
  std::map<std::pair<std::string, std::string>, double> last_value_;
  // (rule name, gateway) -> sliding slow-window SLI samples, for kBurnRate
  // rules. The deque covers the slow window with a running sum (O(1) slow
  // mean per sample); the fast mean is a reverse scan over its newest tail,
  // which at sane SLI cadences is a handful of entries.
  struct BurnState {
    std::deque<std::pair<sim::TimePoint, double>> samples;
    double sum = 0;
  };
  std::map<std::pair<std::string, std::string>, BurnState> burn_;
  std::uint64_t alerts_fired_ = 0;
};

// One magmad metrics tick's telemetry, shipped as a single best-effort
// Report RPC. On the wire: the gateway id, then four length-prefixed
// sections, each holding its own codec's bytes (encode_metric_report,
// encode_histogram_report, obs::encode_trace_summaries,
// obs::sketch::encode_sketch_report); a zero-length sketch section means no
// sketch.
struct TelemetryReport {
  std::string gateway_id;
  std::vector<MetricSample> samples;
  std::vector<HistogramSnapshot> histograms;
  std::vector<obs::TraceSummary> summaries;
  std::optional<obs::sketch::SketchReport> sketch;

  bool empty() const {
    return samples.empty() && histograms.empty() && summaries.empty() &&
           !sketch.has_value();
  }
};

common::Bytes encode_telemetry_report(const TelemetryReport& report);
// Rejects the whole report when the envelope or any section is corrupt, or
// when any sample, histogram, trace summary or sketch names a gateway other
// than the envelope's. When a section was rejected, `bad_section` (if given)
// receives the drop kind of that section's data (kMetric for the samples).
common::Result<TelemetryReport> decode_telemetry_report(
    common::BytesView data,
    std::optional<Metricsd::DropKind>* bad_section = nullptr);

// Default alerting for the transport gauges: pages on connection-reset
// growth, on SRTT sitting above 2× the engineered path baseline, and on
// transport_rto_at_cap growth (a control channel stuck at max_rto backoff).
// Installed by Orchestrator (and re-installed by core::Network with its
// configured baseline); idempotent by rule name.
void install_default_transport_rules(Metricsd& metricsd,
                                     double srtt_baseline_s);

// Human-readable rendering of the attribution table (one line per root op,
// mean and max duration plus per-state percentages) — what benches print as
// the "where does attach latency go" answer.
std::string format_latency_attribution(
    const std::vector<LatencyAttributionRow>& rows);

// One row of the fleet availability rollup: a gateway's uptime ratio over
// the report window with its downtime decomposed by attributed cause. The
// final row returned by availability_rollup is the "FLEET" aggregate (mean
// availability, summed downtime).
struct AvailabilityRow {
  std::string gateway_id;
  double availability = 1.0;
  double downtime_s = 0;
  std::uint64_t intervals = 0;
  std::array<double, obs::slo::kDowntimeCauseCount> cause_s{};
};

// Build the rollup from the statusd-owned ledger over [from, to).
std::vector<AvailabilityRow> availability_rollup(
    const obs::slo::AvailabilityLedger& ledger, sim::TimePoint from,
    sim::TimePoint to);

// Human-readable rendering, one line per gateway plus the FLEET row — the
// metricsd answer to "what was my fleet's availability and why".
std::string format_availability(const std::vector<AvailabilityRow>& rows);

// Default alerting over metricsd's own health: any growth of the per-kind
// `metricsd_samples_dropped` gauge pages — silent truncation of the
// telemetry pipeline is an outage of the observability plane itself.
// Installed by Orchestrator; idempotent by rule name.
void install_default_metricsd_rules(Metricsd& metricsd);

// Default SRE-style burn-rate alerting over the SLIs the orchestrator
// extracts from signals that already flow (gateway liveness, attach
// outcomes, config-sync freshness). Installed by Orchestrator; idempotent
// by rule name.
void install_default_slo_rules(Metricsd& metricsd);

}  // namespace magma::orc8r
