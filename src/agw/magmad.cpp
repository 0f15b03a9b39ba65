#include "agw/magmad.h"

#include <algorithm>

#include "common/log.h"
#include "obs/host_profiler.h"
#include "rpc/wire.h"

namespace magma::agw {

namespace {
// Events drained into one report. attach_churn emits ~150 attach events per
// gateway per 15 s tick; anything beyond the cap waits for the next tick.
constexpr std::size_t kEventsPerReport = 512;
}  // namespace

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
}

void Magmad::run_loop(sim::Duration interval,
                      sim::Duration (Magmad::*tick)()) {
  const sim::Duration next = wedged_ ? interval : (this->*tick)();
  kernel_.schedule(next,
                   [this, interval, tick]() { run_loop(interval, tick); });
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

void Magmad::fail_sync(const std::string& why, bool forget_version) {
  ++stats_.sync_failures;
  obs::svc_error(status_, "config sync: " + why);
  if (forget_version) {
    synced_version_ = 0;
    synced_epoch_ = 0;
  }
}

void Magmad::handle_update(const orc8r::DesiredUpdate& update) {
  switch (update.mode) {
    case orc8r::SyncMode::kNoop:
      ++stats_.config_polls_noop;
      return;
    case orc8r::SyncMode::kFull: {
      auto state = orc8r::DesiredState::deserialize(update.full);
      if (!state.ok()) return fail_sync(state.error().message);
      // The orchestrator is the source of truth: a full sync is applied
      // even when its version goes backwards (restart with an older or
      // rebuilt store) — converging on the authoritative state beats
      // wedging on stale-but-newer local state.
      if (synced_epoch_ != 0 && update.epoch != synced_epoch_) {
        ++stats_.epoch_resyncs;
        // A replacement orchestrator holds no checkpoint of ours.
        acked_checkpoint_.reset();
      }
      {
        MAGMA_HOST_SCOPE("magmad", "apply_full");
        subscribers_.replace_all(state.value().subscribers);
        policies_.replace_all(state.value().policies);
      }
      synced_version_ = update.version;
      synced_epoch_ = update.epoch;
      ++stats_.config_full_syncs;
      ++stats_.config_syncs_applied;
      return;
    }
    case orc8r::SyncMode::kDelta:
      // Deltas from another incarnation must never splice onto our state.
      if (update.epoch != synced_epoch_) {
        return fail_sync("delta from foreign epoch", true);
      }
      // A corrupt entry may have been half-applied; the full resync's
      // idempotent replace_all repairs whatever it left behind.
      if (!apply_delta(update)) fail_sync("corrupt delta entry", true);
      return;
  }
}

void Magmad::sync_config_now() {
  if (orc8r_ == nullptr) return;
  orc8r::GetUpdatesRequest req;
  req.gateway_id = gateway_id_;
  req.have_version = synced_version_;
  req.have_epoch = synced_epoch_;
  obs::svc_request(status_);
  orc8r_->call(
      orc8r::kStreamerService, orc8r::kGetUpdates, req.serialize(),
      config_.sync_rpc_deadline, [this](rpc::Result<rpc::Bytes> result) {
        if (!result.ok()) {
          if (result.error().code == rpc::ErrorCode::kDeadlineExceeded) {
            obs::svc_deadline(status_);
          }
          fail_sync(result.error().message);
          set_reachable(false);
          return;
        }
        set_reachable(true);
        auto update = orc8r::DesiredUpdate::deserialize(result.value());
        if (!update.ok()) return fail_sync(update.error().message);
        handle_update(update.value());
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
  if (events_ != nullptr) report.events = events_->take(kEventsPerReport);
  if (report.empty()) return config_.metrics_interval;
  const std::size_t summaries = report.summaries.size();
  // Parent the send under the first traced event so the orchestrator leg
  // shows up in that attach's span tree, and span-link every other traced
  // event onto the shipping span, so a report carrying N traces connects
  // all N to this one RPC instead of only the first.
  obs::TraceContext parent{};
  for (const obs::Event& e : report.events) {
    if (e.trace.valid()) {
      parent = e.trace;
      break;
    }
  }
  obs::TraceContext ship{};
  obs::Tracer* tracer = orc8r_->tracer();
  if (tracer != nullptr && parent.valid()) {
    ship = tracer->begin("ship_report", "magmad", gateway_id_,
                         obs::SpanKind::kInternal, parent);
    for (const obs::Event& e : report.events) {
      if (e.trace.valid()) obs::link_span(tracer, ship, e.trace);
    }
  }
  {
    const obs::Tracer::Scope scope(tracer, ship.valid() ? ship : parent);
    // Best effort (§3.4 metrics state): one attempt, short deadline, losses
    // tolerated. Histograms and the sketch are cumulative, so the next
    // report supersedes a lost one; a lost report's events are gone
    // (re-queueing under backhaul loss would just churn the bounded buffer).
    obs::svc_request(status_);
    orc8r_->call(orc8r::kMetricsService, orc8r::kReportMetrics,
                 orc8r::encode_telemetry_report(report), config_.rpc_deadline,
                 [this, summaries](rpc::Result<rpc::Bytes> result) {
                   if (result.ok()) {
                     ++stats_.metric_reports_sent;
                     stats_.trace_summaries_shipped += summaries;
                   } else {
                     ++stats_.metric_reports_lost;
                     // Metricsd may have missed the base the histogram
                     // deltas were built on — re-ship everything full next
                     // tick.
                     last_shipped_counts_.clear();
                     last_shipped_exemplars_.clear();
                   }
                 });
  }
  obs::end_span(tracer, ship);
  return config_.metrics_interval;
}

sim::Duration Magmad::checkpoint_tick() {
  common::Bytes image = checkpoint_source_();
  // The orchestrator already stores an image equal to this one.
  if (acked_checkpoint_ == image) return config_.checkpoint_interval;
  if (shed_telemetry()) return config_.checkpoint_interval;
  rpc::Writer w;
  w.str(gateway_id_);
  w.bytes(image);
  obs::svc_request(status_);
  orc8r_->call(orc8r::kStateService, orc8r::kReportCheckpoint,
               std::move(w).take(), config_.rpc_deadline,
               [this, image = std::move(image)](
                   rpc::Result<rpc::Bytes> result) mutable {
                 if (result.ok()) {
                   ++stats_.checkpoints_shipped;
                   acked_checkpoint_ = std::move(image);
                 } else {
                   // The orchestrator may hold this image, the acked one or
                   // none: ship whatever the next tick finds.
                   ++stats_.checkpoint_failures;
                   acked_checkpoint_.reset();
                 }
               });
  return config_.checkpoint_interval;
}

}  // namespace magma::agw
