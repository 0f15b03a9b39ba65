#include "agw/magmad.h"

#include <algorithm>

#include "common/log.h"
#include "obs/host_profiler.h"
#include "rpc/wire.h"

namespace magma::agw {

Magmad::Magmad(sim::Kernel& kernel, std::string gateway_id,
               rpc::RpcNode* orc8r, SubscriberDb& subscribers,
               PolicyDb& policies,
               std::function<common::Bytes()> checkpoint_source,
               std::function<orc8r::TelemetryReport()> telemetry_source,
               MagmadConfig config, obs::EventBuffer* events,
               std::function<std::vector<obs::ServiceStatus>()> status_source)
    : kernel_(kernel),
      gateway_id_(std::move(gateway_id)),
      orc8r_(orc8r),
      subscribers_(subscribers),
      policies_(policies),
      checkpoint_source_(std::move(checkpoint_source)),
      telemetry_source_(std::move(telemetry_source)),
      config_(config),
      events_(events),
      status_source_(std::move(status_source)) {}

void Magmad::set_status(obs::Service303* status) {
  status_ = status;
  obs::svc_phase(status_, reachable_ ? "connected" : "headless");
}

void Magmad::set_reachable(bool up) {
  reachable_ = up;
  obs::svc_phase(status_, up ? "connected" : "headless");
}

void Magmad::start() {
  if (started_ || orc8r_ == nullptr) return;
  started_ = true;
  run_loop(config_.config_poll_interval, &Magmad::config_tick);
  run_loop(config_.checkin_interval, &Magmad::checkin_tick);
  run_loop(config_.metrics_interval, &Magmad::metrics_tick);
  run_loop(config_.checkpoint_interval, &Magmad::checkpoint_tick);
  if (events_ != nullptr) {
    run_loop(config_.event_flush_interval, &Magmad::event_tick);
  }
}

void Magmad::run_loop(sim::Duration interval,
                      sim::Duration (Magmad::*tick)()) {
  const sim::Duration next = wedged_ ? interval : (this->*tick)();
  kernel_.schedule(next,
                   [this, interval, tick]() { run_loop(interval, tick); });
}

void Magmad::apply(const orc8r::DesiredState& state) {
  MAGMA_HOST_SCOPE("magmad", "apply_full");
  subscribers_.replace_all(state.subscribers);
  policies_.replace_all(state.policies);
  synced_version_ = state.version;
  ++stats_.config_syncs_applied;
}

bool Magmad::apply_delta(const orc8r::DesiredUpdate& update) {
  MAGMA_HOST_SCOPE("magmad", "apply_delta");
  for (const orc8r::DeltaEntry& e : update.entries) {
    if (e.kind == orc8r::DeltaEntry::Kind::kSubscriber) {
      if (e.remove) {
        subscribers_.remove(common::Imsi{e.key});
      } else {
        auto sub = SubscriberData::deserialize(e.blob);
        if (!sub.ok()) return false;
        subscribers_.upsert(std::move(sub).take());
      }
    } else {
      if (e.remove) {
        policies_.remove(e.key);
      } else {
        auto policy = core::Policy::deserialize(e.blob);
        if (!policy.ok()) return false;
        policies_.upsert(std::move(policy).take());
      }
    }
    ++stats_.delta_entries_applied;
  }
  synced_version_ = update.version;
  synced_epoch_ = update.epoch;
  ++stats_.config_delta_syncs;
  ++stats_.config_syncs_applied;
  return true;
}

void Magmad::handle_update(const orc8r::DesiredUpdate& update,
                           const std::function<void(bool)>& done) {
  switch (update.mode) {
    case orc8r::SyncMode::kNoop:
      ++stats_.config_polls_noop;
      if (done) done(false);
      return;
    case orc8r::SyncMode::kFull: {
      auto state = orc8r::DesiredState::deserialize(update.full);
      if (!state.ok()) {
        ++stats_.sync_failures;
        obs::svc_error(status_, "config sync: " + state.error().message);
        if (done) done(false);
        return;
      }
      // The orchestrator is the source of truth: a full sync is applied
      // even when its version goes backwards (restart with an older or
      // rebuilt store) — converging on the authoritative state beats
      // wedging on stale-but-newer local state.
      if (synced_epoch_ != 0 && update.epoch != synced_epoch_) {
        ++stats_.epoch_resyncs;
      }
      if (update.epoch == synced_epoch_ && update.version < synced_version_) {
        ++stats_.sync_regressions;
      }
      apply(state.value());
      synced_version_ = update.version;
      synced_epoch_ = update.epoch;
      ++stats_.config_full_syncs;
      if (done) done(true);
      return;
    }
    case orc8r::SyncMode::kDelta: {
      if (update.epoch != synced_epoch_) {
        // Deltas from another incarnation must never splice onto our
        // state; discard and force a full resync.
        ++stats_.sync_failures;
        synced_version_ = 0;
        synced_epoch_ = 0;
        obs::svc_error(status_, "config sync: delta from foreign epoch");
        if (done) done(false);
        return;
      }
      if (!apply_delta(update)) {
        // A corrupt entry may have been half-applied; resetting the synced
        // state makes the next poll a full sync — the idempotent
        // replace_all repairs whatever the partial delta left behind.
        ++stats_.sync_failures;
        synced_version_ = 0;
        synced_epoch_ = 0;
        obs::svc_error(status_, "config sync: corrupt delta entry");
        if (done) done(false);
        return;
      }
      if (done) done(true);
      return;
    }
  }
  if (done) done(false);
}

void Magmad::sync_config_now(std::function<void(bool)> done) {
  if (orc8r_ == nullptr) {
    if (done) done(false);
    return;
  }
  orc8r::GetUpdatesRequest req;
  req.gateway_id = gateway_id_;
  req.have_version = synced_version_;
  req.have_epoch = synced_epoch_;
  obs::svc_request(status_);
  orc8r_->call(
      orc8r::kStreamerService, orc8r::kGetUpdates, req.serialize(),
      config_.sync_rpc_deadline, [this, done](rpc::Result<rpc::Bytes> result) {
        if (!result.ok()) {
          ++stats_.sync_failures;
          if (result.error().code == rpc::ErrorCode::kDeadlineExceeded) {
            obs::svc_deadline(status_);
          }
          obs::svc_error(status_, "config sync: " + result.error().message);
          set_reachable(false);
          if (done) done(false);
          return;
        }
        set_reachable(true);
        auto update = orc8r::DesiredUpdate::deserialize(result.value());
        if (!update.ok()) {
          ++stats_.sync_failures;
          obs::svc_error(status_, "config sync: " + update.error().message);
          if (done) done(false);
          return;
        }
        handle_update(update.value(), done);
      });
}

sim::Duration Magmad::config_tick() {
  sync_config_now();
  return config_.config_poll_interval;
}

sim::Duration Magmad::checkin_tick() {
  rpc::Writer w;
  w.str(gateway_id_);
  w.str("agw");
  // The heartbeat carries the gateway's Service303 snapshot — orc8r statusd
  // keys gateway health off these arriving on time.
  w.bytes(obs::encode_gateway_status(
      status_source_ ? status_source_() : std::vector<obs::ServiceStatus>{}));
  obs::svc_request(status_);
  orc8r_->call(orc8r::kBootstrapperService, orc8r::kCheckin,
               std::move(w).take(), config_.rpc_deadline,
               [this](rpc::Result<rpc::Bytes> result) {
                 if (result.ok()) {
                   ++stats_.checkins_ok;
                   set_reachable(true);
                 } else {
                   ++stats_.checkin_failures;
                   if (result.error().code ==
                       rpc::ErrorCode::kDeadlineExceeded) {
                     obs::svc_deadline(status_);
                   }
                   obs::svc_error(status_,
                                  "checkin: " + result.error().message);
                   set_reachable(false);
                 }
               });
  return config_.checkin_interval;
}

bool Magmad::shed_telemetry() {
  if (orc8r_->transport_backlog() < config_.telemetry_backpressure) {
    return false;
  }
  ++stats_.telemetry_sheds;
  return true;
}

std::vector<orc8r::HistogramSnapshot> Magmad::prepare_histogram_report(
    std::vector<orc8r::HistogramSnapshot> full) {
  std::vector<orc8r::HistogramSnapshot> out;
  out.reserve(full.size());
  for (orc8r::HistogramSnapshot& snapshot : full) {
    auto it = last_shipped_counts_.find(snapshot.name);
    if (it == last_shipped_counts_.end() ||
        it->second.size() != snapshot.counts.size()) {
      // First sight of this histogram (or a bucket-layout change): ship the
      // full snapshot so metricsd has a base for later deltas.
      ++stats_.histogram_full_snapshots;
      stats_.histogram_buckets_shipped += snapshot.counts.size();
      last_shipped_counts_[snapshot.name] = snapshot.counts;
      last_shipped_exemplars_[snapshot.name] = snapshot.exemplars;
      out.push_back(std::move(snapshot));
      continue;
    }
    std::vector<std::pair<std::uint32_t, std::uint64_t>> changed;
    for (std::size_t i = 0; i < snapshot.counts.size(); ++i) {
      if (snapshot.counts[i] != it->second[i]) {
        changed.emplace_back(static_cast<std::uint32_t>(i),
                             snapshot.counts[i]);
      }
    }
    // Exemplars ride the same delta: only (bucket, trace id) pairs that
    // changed since the last shipped report.
    std::vector<std::pair<std::uint32_t, std::uint64_t>>& last_ex =
        last_shipped_exemplars_[snapshot.name];
    std::vector<std::pair<std::uint32_t, std::uint64_t>> changed_exemplars;
    for (const auto& pair : snapshot.exemplars) {
      if (std::find(last_ex.begin(), last_ex.end(), pair) == last_ex.end()) {
        changed_exemplars.push_back(pair);
      }
    }
    if (changed.empty() && changed_exemplars.empty()) {
      // Nothing observed since the last report — ship nothing at all.
      ++stats_.histogram_unchanged_skips;
      continue;
    }
    ++stats_.histogram_delta_snapshots;
    stats_.histogram_buckets_shipped += changed.size();
    it->second = snapshot.counts;
    last_ex = snapshot.exemplars;
    orc8r::HistogramSnapshot delta;
    delta.gateway_id = std::move(snapshot.gateway_id);
    delta.name = std::move(snapshot.name);
    delta.sum = snapshot.sum;
    delta.time = snapshot.time;
    delta.delta = true;
    delta.changed = std::move(changed);
    delta.exemplars = std::move(changed_exemplars);
    out.push_back(std::move(delta));
  }
  return out;
}

sim::Duration Magmad::metrics_tick() {
  if (shed_telemetry()) return config_.metrics_interval;
  orc8r::TelemetryReport report = telemetry_source_();
  report.gateway_id = gateway_id_;
  report.histograms = prepare_histogram_report(std::move(report.histograms));
  if (report.empty()) return config_.metrics_interval;
  const std::size_t summaries = report.summaries.size();
  // Best effort (§3.4 metrics state): one attempt, short deadline, losses
  // tolerated. Histograms and the sketch are cumulative, so the next
  // report supersedes a lost one.
  obs::svc_request(status_);
  orc8r_->call(orc8r::kMetricsService, orc8r::kReportMetrics,
               orc8r::encode_telemetry_report(report), config_.rpc_deadline,
               [this, summaries](rpc::Result<rpc::Bytes> result) {
                 if (result.ok()) {
                   ++stats_.metric_reports_sent;
                   stats_.trace_summaries_shipped += summaries;
                 } else {
                   ++stats_.metric_reports_lost;
                   // Metricsd may have missed the base the histogram deltas
                   // were built on — re-ship everything full next tick.
                   last_shipped_counts_.clear();
                   last_shipped_exemplars_.clear();
                 }
               });
  return config_.metrics_interval;
}

sim::Duration Magmad::event_tick() {
  // Backpressure-paced drain: ship batches until the buffer is empty or the
  // channel already holds telemetry_backpressure unacked messages. Each
  // batch sent occupies one slot, so the loop self-limits — a deep
  // post-outage buffer catches up a few batches per tick at a rate the
  // congestion window can absorb, while a congested channel sheds entirely
  // and events wait in the bounded buffer (a long backlog only ever costs
  // buffer memory, never channel occupancy).
  while (events_->size() > 0 && !shed_telemetry()) {
    std::vector<obs::Event> batch = events_->take(config_.event_batch_max);
    if (batch.empty()) break;
    const std::size_t count = batch.size();
    // Parent the shipping RPC under the first traced event so the eventd
    // leg shows up in that attach's span tree — and span-link every other
    // traced event in the batch onto the shipping span, so a batch carrying
    // N traces connects all N to this one RPC instead of only the first.
    obs::TraceContext parent{};
    for (const obs::Event& e : batch) {
      if (e.trace.valid()) {
        parent = e.trace;
        break;
      }
    }
    obs::TraceContext ship{};
    obs::Tracer* tracer = orc8r_->tracer();
    if (tracer != nullptr && parent.valid()) {
      ship = tracer->begin("ship_events", "magmad", gateway_id_,
                           obs::SpanKind::kInternal, parent);
      for (const obs::Event& e : batch) {
        if (e.trace.valid()) obs::link_span(tracer, ship, e.trace);
      }
    }
    {
      const obs::Tracer::Scope scope(tracer, ship.valid() ? ship : parent);
      // Best effort, like metrics: one attempt, losses counted, nothing
      // re-queued (re-queueing under backhaul loss would just churn the
      // bounded buffer).
      orc8r_->call(orc8r::kEventService, orc8r::kLogEvents,
                   obs::encode_event_report(batch), config_.rpc_deadline,
                   [this, count](rpc::Result<rpc::Bytes> result) {
                     if (result.ok()) {
                       stats_.events_shipped += count;
                     } else {
                       stats_.events_lost += count;
                     }
                   });
    }
    obs::end_span(tracer, ship);
  }
  // Catch-up cadence: a buffer that still holds events (deep post-outage
  // backlog, or a congested channel we are shedding around) is re-checked
  // every second — a cheap local poll, no channel occupancy — instead of
  // waiting out the full flush interval.
  return events_->empty()
             ? config_.event_flush_interval
             : std::min(config_.event_flush_interval, sim::kSecond);
}

sim::Duration Magmad::checkpoint_tick() {
  if (shed_telemetry()) return config_.checkpoint_interval;
  rpc::Writer w;
  w.str(gateway_id_);
  w.bytes(checkpoint_source_());
  obs::svc_request(status_);
  orc8r_->call(orc8r::kStateService, orc8r::kReportCheckpoint,
               std::move(w).take(), config_.rpc_deadline,
               [this](rpc::Result<rpc::Bytes> result) {
                 if (result.ok()) {
                   ++stats_.checkpoints_shipped;
                 } else {
                   ++stats_.checkpoint_failures;
                 }
               });
  return config_.checkpoint_interval;
}

}  // namespace magma::agw
