#include "orc8r/metricsd.h"

#include <algorithm>
#include <cstdio>

#include "obs/slo/slo.h"
#include "rpc/wire.h"

namespace magma::orc8r {

common::Bytes encode_metric_report(const std::vector<MetricSample>& samples) {
  rpc::Writer w;
  w.u64(samples.size());
  for (const MetricSample& s : samples) {
    w.str(s.gateway_id);
    w.str(s.name);
    w.f64(s.value);
    w.i64(s.time);
  }
  return std::move(w).take();
}

common::Result<std::vector<MetricSample>> decode_metric_report(
    common::BytesView data) {
  rpc::Reader r(data);
  const std::uint64_t count = r.u64();
  std::vector<MetricSample> samples;
  // The count is attacker-controlled wire data: never reserve it blindly
  // (each sample needs ≥20 bytes on the wire, so cap by what could fit).
  samples.reserve(std::min<std::uint64_t>(count, r.remaining() / 20 + 1));
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    MetricSample s;
    s.gateway_id = r.str();
    s.name = r.str();
    s.value = r.f64();
    s.time = r.i64();
    samples.push_back(std::move(s));
  }
  if (!r.ok() || !r.at_end()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt metric report"};
  }
  return samples;
}

common::Bytes encode_histogram_report(
    const std::vector<HistogramSnapshot>& snapshots) {
  rpc::Writer w;
  w.u64(snapshots.size());
  for (const HistogramSnapshot& s : snapshots) {
    w.str(s.gateway_id);
    w.str(s.name);
    // Snapshot kind: 0 = full (bounds + all counts), 1 = delta (changed
    // buckets only).
    w.u8(s.delta ? 1 : 0);
    if (s.delta) {
      w.u32(static_cast<std::uint32_t>(s.changed.size()));
      for (const auto& [index, count] : s.changed) {
        w.u32(index);
        w.u64(count);
      }
    } else {
      w.u32(static_cast<std::uint32_t>(s.bounds.size()));
      for (const double b : s.bounds) w.f64(b);
      for (const std::uint64_t c : s.counts) w.u64(c);
    }
    w.u32(static_cast<std::uint32_t>(s.exemplars.size()));
    for (const auto& [bucket, trace_id] : s.exemplars) {
      w.u32(bucket);
      w.u64(trace_id);
    }
    w.f64(s.sum);
    w.i64(s.time);
  }
  return std::move(w).take();
}

common::Result<std::vector<HistogramSnapshot>> decode_histogram_report(
    common::BytesView data) {
  rpc::Reader r(data);
  const std::uint64_t count = r.u64();
  std::vector<HistogramSnapshot> snapshots;
  // Each snapshot needs ≥ 36 bytes on the wire; never trust the count.
  snapshots.reserve(std::min<std::uint64_t>(count, r.remaining() / 36 + 1));
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    HistogramSnapshot s;
    s.gateway_id = r.str();
    s.name = r.str();
    const std::uint8_t kind = r.u8();
    if (kind > 1) {
      return common::Error{common::ErrorCode::kInvalidArgument,
                           "unknown histogram snapshot kind"};
    }
    if (kind == 1) {
      s.delta = true;
      const std::uint32_t entries = r.u32();
      // 12 wire bytes per (index, count) pair.
      if (static_cast<std::uint64_t>(entries) * 12 > r.remaining()) {
        return common::Error{common::ErrorCode::kInvalidArgument,
                             "oversized histogram delta"};
      }
      s.changed.reserve(entries);
      for (std::uint32_t e = 0; e < entries && r.ok(); ++e) {
        const std::uint32_t index = r.u32();
        const std::uint64_t value = r.u64();
        s.changed.emplace_back(index, value);
      }
    } else {
      const std::uint32_t buckets = r.u32();
      // Bounds + counts need 16 bytes per bucket: bound the allocation by
      // what the remaining payload could actually hold.
      if (static_cast<std::uint64_t>(buckets) * 16 > r.remaining()) {
        return common::Error{common::ErrorCode::kInvalidArgument,
                             "oversized histogram"};
      }
      s.bounds.reserve(buckets);
      for (std::uint32_t b = 0; b < buckets && r.ok(); ++b) {
        s.bounds.push_back(r.f64());
      }
      s.counts.reserve(buckets + 1);
      for (std::uint32_t c = 0; c < buckets + 1 && r.ok(); ++c) {
        s.counts.push_back(r.u64());
      }
      if (!std::is_sorted(s.bounds.begin(), s.bounds.end())) {
        return common::Error{common::ErrorCode::kInvalidArgument,
                             "unsorted histogram bounds"};
      }
    }
    const std::uint32_t exemplars = r.u32();
    // 12 wire bytes per (bucket, trace id) pair — the count is wire data.
    if (static_cast<std::uint64_t>(exemplars) * 12 > r.remaining()) {
      return common::Error{common::ErrorCode::kInvalidArgument,
                           "oversized exemplar list"};
    }
    s.exemplars.reserve(exemplars);
    for (std::uint32_t e = 0; e < exemplars && r.ok(); ++e) {
      const std::uint32_t bucket = r.u32();
      const std::uint64_t trace_id = r.u64();
      s.exemplars.emplace_back(bucket, trace_id);
    }
    s.sum = r.f64();
    s.time = r.i64();
    snapshots.push_back(std::move(s));
  }
  if (!r.ok() || !r.at_end()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt histogram report"};
  }
  return snapshots;
}

common::Bytes encode_telemetry_report(const TelemetryReport& report) {
  rpc::Writer w;
  w.str(report.gateway_id);
  w.bytes(encode_metric_report(report.samples));
  w.bytes(encode_histogram_report(report.histograms));
  w.bytes(obs::encode_trace_summaries(report.summaries));
  w.bytes(report.sketch.has_value()
              ? obs::sketch::encode_sketch_report(*report.sketch)
              : common::Bytes{});
  return std::move(w).take();
}

common::Result<TelemetryReport> decode_telemetry_report(
    common::BytesView data, std::optional<Metricsd::DropKind>* bad_section) {
  rpc::Reader r(data);
  TelemetryReport report;
  report.gateway_id = r.str();
  // Section lengths are wire data: Reader::bytes refuses a length past the
  // end of the buffer before allocating anything.
  const common::Bytes samples = r.bytes();
  const common::Bytes histograms = r.bytes();
  const common::Bytes summaries = r.bytes();
  const common::Bytes sketch = r.bytes();
  if (!r.ok() || !r.at_end()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt telemetry report"};
  }
  const auto reject = [bad_section](Metricsd::DropKind kind,
                                    const common::Error& error) {
    if (bad_section != nullptr) *bad_section = kind;
    return error;
  };
  // Metricsd stores every item under its own gateway id while ingest routes
  // and sheds on the envelope's: an item naming another gateway would let
  // one gateway overwrite another's series, histograms or sketch.
  const auto foreign = [&report](const auto& items) {
    return std::any_of(items.begin(), items.end(), [&report](const auto& i) {
      return i.gateway_id != report.gateway_id;
    });
  };
  const common::Error foreign_item{common::ErrorCode::kInvalidArgument,
                                   "telemetry item from another gateway"};
  auto decoded_samples = decode_metric_report(samples);
  if (!decoded_samples.ok()) {
    return reject(Metricsd::DropKind::kMetric, decoded_samples.error());
  }
  report.samples = std::move(decoded_samples).take();
  if (foreign(report.samples)) {
    return reject(Metricsd::DropKind::kMetric, foreign_item);
  }
  auto decoded_histograms = decode_histogram_report(histograms);
  if (!decoded_histograms.ok()) {
    return reject(Metricsd::DropKind::kHistogram, decoded_histograms.error());
  }
  report.histograms = std::move(decoded_histograms).take();
  if (foreign(report.histograms)) {
    return reject(Metricsd::DropKind::kHistogram, foreign_item);
  }
  auto decoded_summaries = obs::decode_trace_summaries(summaries);
  if (!decoded_summaries.ok()) {
    return reject(Metricsd::DropKind::kTraceSummary,
                  decoded_summaries.error());
  }
  report.summaries = std::move(decoded_summaries).take();
  if (foreign(report.summaries)) {
    return reject(Metricsd::DropKind::kTraceSummary, foreign_item);
  }
  if (!sketch.empty()) {
    auto decoded_sketch = obs::sketch::decode_sketch_report(sketch);
    if (!decoded_sketch.ok()) {
      return reject(Metricsd::DropKind::kSketch, decoded_sketch.error());
    }
    if (decoded_sketch.value().gateway_id != report.gateway_id) {
      return reject(Metricsd::DropKind::kSketch, foreign_item);
    }
    report.sketch = std::move(decoded_sketch).take();
  }
  return report;
}

void Metricsd::ingest_histogram(const HistogramSnapshot& snapshot) {
  if (snapshot.delta) {
    auto it = histograms_.find({snapshot.gateway_id, snapshot.name});
    if (it == histograms_.end()) {
      ++histogram_delta_orphans_;  // no base to overlay; sender re-ships full
      note_drop(DropKind::kHistogram);
      return;
    }
    std::vector<std::uint64_t> counts = it->second.counts();
    for (const auto& [index, count] : snapshot.changed) {
      if (index >= counts.size()) {
        ++histogram_delta_orphans_;  // layout drifted under the delta
        note_drop(DropKind::kHistogram);
        return;
      }
      counts[index] = count;
    }
    obs::Histogram h(std::vector<double>{});
    if (!h.assign(it->second.bounds(), std::move(counts), snapshot.sum)) {
      note_drop(DropKind::kHistogram);
      return;
    }
    // Deltas carry only *changed* exemplars: start from the stored ones.
    const std::vector<std::uint64_t>& kept = it->second.exemplars();
    for (std::size_t b = 0; b < kept.size(); ++b) h.set_exemplar(b, kept[b]);
    for (const auto& [bucket, trace_id] : snapshot.exemplars) {
      h.set_exemplar(bucket, trace_id);
    }
    it->second = std::move(h);
    return;
  }
  obs::Histogram h(std::vector<double>{});
  if (!h.assign(snapshot.bounds, snapshot.counts, snapshot.sum)) {
    note_drop(DropKind::kHistogram);
    return;
  }
  for (const auto& [bucket, trace_id] : snapshot.exemplars) {
    h.set_exemplar(bucket, trace_id);
  }
  histograms_.insert_or_assign({snapshot.gateway_id, snapshot.name},
                               std::move(h));
}

void Metricsd::ingest_histograms(
    const std::vector<HistogramSnapshot>& snapshots) {
  for (const HistogramSnapshot& s : snapshots) ingest_histogram(s);
}

std::vector<std::string> Metricsd::histogram_names() const {
  std::vector<std::string> names;
  for (const auto& [key, _] : histograms_) {
    if (names.empty() || names.back() != key.second) {
      names.push_back(key.second);
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

obs::Histogram Metricsd::merged_histogram(const std::string& name) const {
  obs::Histogram merged(std::vector<double>{});
  bool first = true;
  for (const auto& [key, h] : histograms_) {
    if (key.second != name) continue;
    if (first) {
      merged = h;
      first = false;
    } else {
      merged.merge(h);  // layout mismatch: that gateway's buckets skipped
    }
  }
  return merged;
}

double Metricsd::histogram_quantile(const std::string& name, double q) const {
  return merged_histogram(name).quantile(q);
}

std::uint64_t Metricsd::histogram_count(const std::string& name) const {
  return merged_histogram(name).count();
}

std::uint64_t Metricsd::histogram_exemplar(const std::string& name,
                                           double q) const {
  return merged_histogram(name).exemplar_near_quantile(q);
}

void Metricsd::ingest_sketch_report(obs::sketch::SketchReport report) {
  auto it = sketches_.find(report.gateway_id);
  if (it != sketches_.end() && it->second.time > report.time) {
    // A replayed or reordered report older than what we hold would roll the
    // cumulative sketches backwards.
    note_drop(DropKind::kSketch);
    return;
  }
  ++sketch_reports_ingested_;
  sketches_.insert_or_assign(report.gateway_id, std::move(report));
}

obs::sketch::SpaceSaving Metricsd::merged_top_subscribers(
    obs::sketch::SubscriberMetric metric) const {
  const std::size_t idx = static_cast<std::size_t>(metric);
  obs::sketch::SpaceSaving merged;
  bool first = true;
  for (const auto& [gw, report] : sketches_) {
    if (first) {
      merged = report.topk[idx];
      first = false;
    } else {
      merged.merge(report.topk[idx]);
    }
  }
  return merged;
}

double Metricsd::fleet_active_subscribers(bool window) const {
  obs::sketch::HyperLogLog merged;
  bool first = true;
  for (const auto& [gw, report] : sketches_) {
    const obs::sketch::HyperLogLog& h =
        window ? report.active_window : report.active_total;
    if (first) {
      merged = h;
      first = false;
    } else {
      merged.merge(h);
    }
  }
  return first ? 0.0 : merged.estimate();
}

std::string Metricsd::top_subscribers_report(
    obs::sketch::SubscriberMetric metric, std::size_t k) const {
  return obs::sketch::format_top_subscribers(
      metric, merged_top_subscribers(metric).top(), k, sketches_.size());
}

void Metricsd::ingest_trace_summaries(
    const std::vector<obs::TraceSummary>& summaries) {
  for (const obs::TraceSummary& s : summaries) {
    LatencyAttributionRow& row = attribution_[s.root_op];
    row.root_op = s.root_op;
    ++row.traces;
    const double duration_s = sim::to_seconds(s.duration);
    row.total_s += duration_s;
    row.max_s = std::max(row.max_s, duration_s);
    for (std::size_t i = 0; i < obs::kWaitStateCount; ++i) {
      row.component_s[i] += sim::to_seconds(s.breakdown[i]);
    }
    ++trace_summaries_ingested_;
  }
}

std::vector<LatencyAttributionRow> Metricsd::latency_attribution() const {
  std::vector<LatencyAttributionRow> rows;
  rows.reserve(attribution_.size());
  for (const auto& [_, row] : attribution_) rows.push_back(row);
  return rows;
}

std::string format_latency_attribution(
    const std::vector<LatencyAttributionRow>& rows) {
  std::string out;
  for (const LatencyAttributionRow& row : rows) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%-16s traces=%llu mean=%.1fms max=%.1fms |",
                  row.root_op.c_str(),
                  static_cast<unsigned long long>(row.traces),
                  row.traces > 0 ? 1e3 * row.total_s /
                                       static_cast<double>(row.traces)
                                 : 0.0,
                  1e3 * row.max_s);
    out += line;
    for (std::size_t i = 0; i < obs::kWaitStateCount; ++i) {
      if (row.component_s[i] <= 0) continue;
      std::snprintf(line, sizeof(line), " %s %.1f%%",
                    obs::wait_state_name(static_cast<obs::WaitState>(i)),
                    row.total_s > 0 ? 100.0 * row.component_s[i] / row.total_s
                                    : 0.0);
      out += line;
    }
    out += '\n';
  }
  return out;
}

void Metricsd::set_retention(std::size_t max_samples_per_series) {
  max_per_series_ = max_samples_per_series;
  if (max_per_series_ == 0) return;
  for (auto& [_, series] : by_name_) {
    if (series.size() > max_per_series_) {
      const std::size_t excess = series.size() - max_per_series_;
      series.erase(series.begin(),
                   series.begin() + static_cast<std::ptrdiff_t>(excess));
      note_drop(DropKind::kMetric, excess);
    }
  }
}

std::uint64_t Metricsd::samples_dropped() const {
  std::uint64_t total = 0;
  for (const std::uint64_t d : dropped_) total += d;
  return total;
}

const char* Metricsd::drop_kind_name(DropKind kind) {
  switch (kind) {
    case DropKind::kMetric: return "metric";
    case DropKind::kHistogram: return "histogram";
    case DropKind::kTraceSummary: return "trace_summary";
    case DropKind::kSketch: return "sketch";
  }
  return "unknown";
}

void Metricsd::self_observe(sim::TimePoint now) {
  for (std::size_t i = 0; i < kDropKindCount; ++i) {
    MetricSample sample;
    // The kind plays the gateway dimension so each kind is its own series
    // for the kDelta growth rule.
    sample.gateway_id = drop_kind_name(static_cast<DropKind>(i));
    sample.name = "metricsd_samples_dropped";
    sample.value = static_cast<double>(dropped_[i]);
    sample.time = now;
    ingest(sample);
  }
}

void Metricsd::add_alert_rule(AlertRule rule) {
  remove_alert_rule(rule.name);
  rules_.push_back(std::move(rule));
}

void Metricsd::remove_alert_rule(const std::string& name) {
  std::erase_if(rules_, [&](const AlertRule& r) { return r.name == name; });
  std::erase_if(firing_, [&](const auto& kv) { return kv.first.first == name; });
  std::erase_if(burn_, [&](const auto& kv) { return kv.first.first == name; });
}

std::vector<ActiveAlert> Metricsd::active_alerts() const {
  std::vector<ActiveAlert> out;
  out.reserve(firing_.size());
  for (const auto& [_, alert] : firing_) out.push_back(alert);
  return out;
}

void Metricsd::evaluate_alerts(const MetricSample& sample) {
  const auto series_key = std::make_pair(sample.name, sample.gateway_id);
  const auto prev_it = last_value_.find(series_key);
  for (const AlertRule& rule : rules_) {
    if (rule.metric != sample.name) continue;
    const auto key = std::make_pair(rule.name, sample.gateway_id);
    bool breached = false;
    double alert_value = sample.value;
    if (rule.kind == AlertKind::kDelta) {
      // Growth vs the previous sample from this gateway; the first sample
      // of a series establishes the baseline and never fires.
      if (prev_it != last_value_.end()) {
        const double delta = sample.value - prev_it->second;
        breached = rule.fire_above ? delta > rule.threshold
                                   : delta < rule.threshold;
      }
    } else if (rule.kind == AlertKind::kBurnRate) {
      // Slide the per-(rule, gateway) slow window; the fast window is its
      // newest tail. Both burns must exceed the threshold to fire — and
      // either recovering clears (see AlertKind docs).
      BurnState& state = burn_[key];
      state.samples.emplace_back(sample.time, sample.value);
      state.sum += sample.value;
      const sim::TimePoint slow_cut = sample.time - rule.slow_window;
      while (!state.samples.empty() &&
             state.samples.front().first <= slow_cut) {
        state.sum -= state.samples.front().second;
        state.samples.pop_front();
      }
      const double slow_mean =
          state.sum / static_cast<double>(state.samples.size());
      const sim::TimePoint fast_cut = sample.time - rule.fast_window;
      double fast_sum = 0;
      std::size_t fast_n = 0;
      for (auto rit = state.samples.rbegin();
           rit != state.samples.rend() && rit->first > fast_cut; ++rit) {
        fast_sum += rit->second;
        ++fast_n;
      }
      // fast_n >= 1: the sample just pushed is inside its own fast window.
      const double fast_burn =
          obs::slo::burn_rate(fast_sum / static_cast<double>(fast_n),
                              rule.objective);
      const double slow_burn = obs::slo::burn_rate(slow_mean, rule.objective);
      breached = fast_burn > rule.threshold && slow_burn > rule.threshold;
      alert_value = fast_burn;
    } else {
      breached = rule.fire_above ? sample.value > rule.threshold
                                 : sample.value < rule.threshold;
    }
    auto it = firing_.find(key);
    if (breached) {
      if (it == firing_.end()) {
        firing_[key] =
            ActiveAlert{rule.name, sample.gateway_id, alert_value,
                        sample.time};
        ++alerts_fired_;
      } else {
        it->second.value = alert_value;  // still firing; refresh value
      }
    } else if (it != firing_.end()) {
      firing_.erase(it);  // recovered
    }
  }
  last_value_[series_key] = sample.value;
}

void Metricsd::ingest(const MetricSample& sample) {
  evaluate_alerts(sample);
  auto& series = by_name_[sample.name];
  // Reports arrive roughly time-ordered; keep the invariant strictly.
  if (!series.empty() && series.back().time > sample.time) {
    auto pos = std::upper_bound(
        series.begin(), series.end(), sample,
        [](const MetricSample& a, const MetricSample& b) {
          return a.time < b.time;
        });
    series.insert(pos, sample);
  } else {
    series.push_back(sample);
  }
  ++total_;
  if (max_per_series_ != 0 && series.size() > max_per_series_) {
    // Amortized retention: trimming one sample per ingest is an O(cap)
    // front-erase every time once a series fills — quadratic over a long
    // run (the 7-day availability bench lives at the cap for days). Trim a
    // half-cap chunk instead: the series length oscillates in
    // [cap/2, cap] and eviction amortizes to O(1) per sample.
    const std::size_t chunk = std::max<std::size_t>(1, max_per_series_ / 2);
    const std::size_t evict = std::min(chunk, series.size());
    series.erase(series.begin(),
                 series.begin() + static_cast<std::ptrdiff_t>(evict));
    note_drop(DropKind::kMetric, evict);
  }
}

void Metricsd::ingest(const std::vector<MetricSample>& samples) {
  for (const MetricSample& s : samples) ingest(s);
}

std::vector<MetricSample> Metricsd::series(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? std::vector<MetricSample>{} : it->second;
}

double Metricsd::sum_latest(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return 0;
  std::map<std::string, double> latest;
  for (const MetricSample& s : it->second) latest[s.gateway_id] = s.value;
  double sum = 0;
  for (const auto& [_, v] : latest) sum += v;
  return sum;
}

std::optional<double> Metricsd::latest(const std::string& gateway_id,
                                       const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
    if (rit->gateway_id == gateway_id) return rit->value;
  }
  return std::nullopt;
}

std::optional<double> Metricsd::latest_at_or_before(
    const std::string& gateway_id, const std::string& name,
    sim::TimePoint at) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  const std::vector<MetricSample>& series = it->second;
  MetricSample probe;
  probe.time = at;
  auto pos = std::upper_bound(series.begin(), series.end(), probe,
                              [](const MetricSample& a, const MetricSample& b) {
                                return a.time < b.time;
                              });
  while (pos != series.begin()) {
    --pos;
    if (pos->gateway_id == gateway_id) return pos->value;
  }
  return std::nullopt;
}

double Metricsd::sum_in_window(const std::string& name, sim::TimePoint from,
                               sim::TimePoint to) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return 0;
  double sum = 0;
  for (const MetricSample& s : it->second) {
    if (s.time >= from && s.time < to) sum += s.value;
  }
  return sum;
}

std::optional<double> Metricsd::mean_in_window(const std::string& name,
                                               sim::TimePoint from,
                                               sim::TimePoint to) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  double sum = 0;
  std::size_t n = 0;
  for (const MetricSample& s : it->second) {
    if (s.time >= from && s.time < to) {
      sum += s.value;
      ++n;
    }
  }
  if (n == 0) return std::nullopt;
  return sum / static_cast<double>(n);
}

void install_default_transport_rules(Metricsd& metricsd,
                                     double srtt_baseline_s) {
  // transport_resets is a monotonic counter: any growth between two reports
  // means a control-channel incarnation died (max-retries exhausted) — the
  // ROADMAP's "page when transport_resets grows".
  metricsd.add_alert_rule(AlertRule{"transport_resets_growth",
                                    "transport_resets", 0.0, true,
                                    AlertKind::kDelta});
  // SRTT persistently above 2× the engineered path baseline means the
  // backhaul degraded (congestion, reroute via satellite, bufferbloat).
  metricsd.add_alert_rule(AlertRule{"transport_srtt_high", "transport_srtt_s",
                                    2.0 * srtt_baseline_s, true,
                                    AlertKind::kThreshold});
  // transport_rto_at_cap counts retransmission timers that hit max_rto:
  // growth means the gateway's control channel is backed off as far as it
  // can go — the link is effectively dead even if resets haven't fired yet.
  metricsd.add_alert_rule(AlertRule{"transport_rto_at_cap_growth",
                                    "transport_rto_at_cap", 0.0, true,
                                    AlertKind::kDelta});
}

std::vector<std::string> Metricsd::metric_names() const {
  std::vector<std::string> names;
  names.reserve(by_name_.size());
  for (const auto& [name, _] : by_name_) names.push_back(name);
  return names;
}

std::vector<AvailabilityRow> availability_rollup(
    const obs::slo::AvailabilityLedger& ledger, sim::TimePoint from,
    sim::TimePoint to) {
  std::vector<AvailabilityRow> rows;
  AvailabilityRow fleet;
  fleet.gateway_id = "FLEET";
  double availability_sum = 0;
  for (const std::string& gw : ledger.tracked()) {
    AvailabilityRow row;
    row.gateway_id = gw;
    row.availability = ledger.uptime_ratio(gw, from, to);
    row.downtime_s = ledger.downtime_seconds(gw, from, to);
    if (const auto* intervals = ledger.intervals(gw)) {
      for (const obs::slo::DowntimeInterval& interval : *intervals) {
        const sim::TimePoint end =
            interval.end < 0 ? to : std::min(interval.end, to);
        const sim::TimePoint start = std::max(interval.start, from);
        if (end <= start) continue;  // no overlap with the report window
        ++row.intervals;
        row.cause_s[static_cast<std::size_t>(interval.cause)] +=
            sim::to_seconds(end - start);
      }
    }
    availability_sum += row.availability;
    fleet.downtime_s += row.downtime_s;
    fleet.intervals += row.intervals;
    for (std::size_t i = 0; i < obs::slo::kDowntimeCauseCount; ++i) {
      fleet.cause_s[i] += row.cause_s[i];
    }
    rows.push_back(std::move(row));
  }
  if (!rows.empty()) {
    fleet.availability = availability_sum / static_cast<double>(rows.size());
  }
  rows.push_back(std::move(fleet));
  return rows;
}

std::string format_availability(const std::vector<AvailabilityRow>& rows) {
  std::string out;
  for (const AvailabilityRow& row : rows) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%-16s avail=%.4f%% down=%.1fs intervals=%llu |",
                  row.gateway_id.c_str(), 100.0 * row.availability,
                  row.downtime_s,
                  static_cast<unsigned long long>(row.intervals));
    out += line;
    for (std::size_t i = 0; i < obs::slo::kDowntimeCauseCount; ++i) {
      if (row.cause_s[i] <= 0) continue;
      std::snprintf(
          line, sizeof(line), " %s %.1f%%",
          obs::slo::downtime_cause_name(
              static_cast<obs::slo::DowntimeCause>(i)),
          row.downtime_s > 0 ? 100.0 * row.cause_s[i] / row.downtime_s : 0.0);
      out += line;
    }
    out += '\n';
  }
  return out;
}

void install_default_metricsd_rules(Metricsd& metricsd) {
  // The self-observed drop gauge is cumulative per kind; any rise between
  // two self_observe ticks means the pipeline truncated telemetry since the
  // last look.
  metricsd.add_alert_rule(AlertRule{"metricsd_samples_dropped_growth",
                                    "metricsd_samples_dropped", 0.0, true,
                                    AlertKind::kDelta});
}

void install_default_slo_rules(Metricsd& metricsd) {
  // 14.4 is the SRE-book "2% of a 30-day budget in one hour" page threshold;
  // with the fast window at 5 min and the slow at 1 h (the AlertRule
  // defaults), a full outage fires within minutes and a lone bad sample
  // never does.
  AlertRule availability;
  availability.name = "slo_availability_burn";
  availability.metric = "sli_gateway_up";
  availability.threshold = 14.4;
  availability.kind = AlertKind::kBurnRate;
  availability.objective = 0.999;
  metricsd.add_alert_rule(std::move(availability));

  AlertRule attach;
  attach.name = "slo_attach_success_burn";
  attach.metric = "sli_attach_success_rate";
  attach.threshold = 14.4;
  attach.kind = AlertKind::kBurnRate;
  attach.objective = 0.99;
  metricsd.add_alert_rule(std::move(attach));

  // Config-sync staleness is a slower-moving signal (the config tick is
  // 30 s): page at a gentler burn so a couple of lost polls don't.
  AlertRule config_sync;
  config_sync.name = "slo_config_sync_burn";
  config_sync.metric = "sli_config_sync_fresh";
  config_sync.threshold = 6.0;
  config_sync.kind = AlertKind::kBurnRate;
  config_sync.objective = 0.95;
  metricsd.add_alert_rule(std::move(config_sync));
}

}  // namespace magma::orc8r
