#include "agw/agw.h"

#include "common/log.h"
#include "common/pool.h"
#include "rpc/wire.h"

namespace magma::agw {

AgwProfile bare_metal_j3160() {
  AgwProfile profile;
  profile.name = "bare-metal-j3160";
  profile.cpu.cores = 4;
  profile.cpu.speed_ghz = 1.6;
  profile.cpu.user_plane_cores = -1;  // flexible
  profile.accessd.workers = 1;        // the single-threaded MME of Figure 6
  return profile;
}

AgwProfile virtual_xeon(int vcpus, int user_plane_cores) {
  AgwProfile profile;
  profile.name = "virtual-xeon-" + std::to_string(vcpus) + "c";
  profile.cpu.cores = vcpus;
  profile.cpu.speed_ghz = 2.6;
  profile.cpu.user_plane_cores = user_plane_cores;
  // The VM build parallelizes attach processing across vCPUs, keeping one
  // vCPU's worth for the other services (§4.2: a 4 vCPU virtual AGW
  // supports 16 attaches/second — 3 workers x 2.6 GHz / 0.5 = 15.6/s).
  profile.accessd.workers = user_plane_cores < 0
                                ? std::max(1, vcpus - 1)
                                : std::max(1, vcpus - user_plane_cores);
  return profile;
}

AccessGateway::AccessGateway(sim::Kernel& kernel, common::GatewayId id,
                             AgwProfile profile, sim::Rng rng)
    : kernel_(kernel),
      id_(std::move(id)),
      profile_(profile),
      rng_(rng),
      cpu_(kernel, profile.cpu),
      subscriberdb_([this]() { return rng_.next_u64(); }),
      mobilityd_(profile.ip_block) {
  pipelined_.pipeline().set_local_address(profile_.address);
  sessiond_ = std::make_unique<Sessiond>(kernel_, pipelined_, nullptr);
  accessd_ = std::make_unique<Accessd>(kernel_, &cpu_, subscriberdb_,
                                       policydb_, mobilityd_, *sessiond_,
                                       profile_.accessd);
  // Health plane: every service registers with the gateway's Service303
  // registry; magmad ships the snapshot inside each checkin.
  svc_subscriberdb_ = &status_.register_service("subscriberdb");
  svc_mobilityd_ = &status_.register_service("mobilityd");
  svc_pipelined_ = &status_.register_service("pipelined");
  svc_sessiond_ = &status_.register_service("sessiond");
  svc_accessd_ = &status_.register_service("accessd");
  svc_magmad_ = &status_.register_service("magmad");
  obs::svc_phase(svc_magmad_, "headless");  // until connect_orchestrator
  subscriberdb_.set_status(svc_subscriberdb_);
  mobilityd_.set_status(svc_mobilityd_);
  pipelined_.set_status(svc_pipelined_);
  sessiond_->set_status(svc_sessiond_);
  accessd_->set_status(svc_accessd_);
  // Per-subscriber heavy hitters: attach failures and bearer drops from
  // accessd, bytes/quota rejections and session liveness from sessiond.
  accessd_->set_subscriber_sketches(&subscriber_sketches_);
  sessiond_->set_subscriber_sketches(&subscriber_sketches_);
  // Continuous profiler: attribute user-plane forwarding per direction.
  label_forward_[static_cast<int>(datapath::Direction::kUplink)] =
      cpu_.intern_label("pipelined", "forward_ul");
  label_forward_[static_cast<int>(datapath::Direction::kDownlink)] =
      cpu_.intern_label("pipelined", "forward_dl");
  lte_frontend_ = std::make_unique<LteFrontend>(kernel_, *accessd_,
                                                *sessiond_, profile_.address);
  nr_frontend_ = std::make_unique<NrFrontend>(kernel_, *accessd_, *sessiond_,
                                              profile_.address);
  wifi_frontend_ =
      std::make_unique<WifiFrontend>(kernel_, *accessd_, *sessiond_);
  // Ship WARN/ERROR log lines as structured events. The logger is global,
  // so every gateway of a multi-AGW simulation records process-wide
  // warnings under its own id — the orchestrator dedups by message if it
  // cares; losing attribution beats losing the warning.
  log_hook_id_ = common::Logger::instance().add_event_hook(
      [this](common::LogLevel level, std::string_view component,
             std::string_view message) {
        obs::Event event;
        event.time = kernel_.now();
        event.gateway_id = id_.value;
        event.type = "log";
        event.source = std::string(component);
        event.message = std::string(message);
        event.severity = level >= common::LogLevel::kError
                             ? obs::EventSeverity::kError
                             : obs::EventSeverity::kWarn;
        event.trace = obs::current_context(tracer_);
        events_.push(std::move(event));
      });
  start_service_loops();
}

AccessGateway::~AccessGateway() {
  common::Logger::instance().remove_event_hook(log_hook_id_);
  if (tracer_ != nullptr && finish_hook_id_ != 0) {
    tracer_->remove_finish_hook(finish_hook_id_);
  }
}

void AccessGateway::set_tracer(obs::Tracer* tracer) {
  if (tracer_ == tracer) return;
  if (tracer_ != nullptr && finish_hook_id_ != 0) {
    tracer_->remove_finish_hook(finish_hook_id_);
    finish_hook_id_ = 0;
  }
  tail_sampler_.reset();  // bound to the old tracer's ring
  tracer_ = tracer;
  // Spans are opt-in per task, but wait attribution (runq/cpu charges onto
  // whatever span submitted the work) should follow every charge.
  cpu_.set_wait_tracer(tracer_);
  accessd_->set_observability(tracer_, id_.value);
  sessiond_->set_observability(tracer_, id_.value);
  lte_frontend_->set_observability(tracer_, id_.value, &events_);
  if (orc8r_node_ != nullptr) orc8r_node_->set_tracer(tracer_, id_.value);
  if (ocs_node_ != nullptr) ocs_node_->set_tracer(tracer_, id_.value);
  if (tracer_ == nullptr) return;
  tail_sampler_ =
      std::make_unique<obs::TailSampler>(kernel_, *tracer_);
  tail_sampler_->set_node_filter(id_.value);
  // Aggregate every finished stage span of this gateway into a latency
  // histogram; magmad ships the buckets with each metrics tick.
  finish_hook_id_ = tracer_->add_finish_hook([this](
                                                 const obs::SpanRecord& span) {
    if (span.node != id_.value || span.kind != obs::SpanKind::kInternal) {
      return;
    }
    // Each bucket keeps the latest landing span as its exemplar and pins
    // that trace (refcounted) so a p99 query at metricsd can pivot to a
    // retained trace — today only errors would pin it. Pin-new before
    // unpin-old keeps the refcount nonzero when both are the same trace.
    obs::Histogram& hist =
        latency_hist_["span_" + span.service + "_" + span.name + "_s"];
    const std::uint64_t displaced =
        hist.observe(sim::to_seconds(span.duration()), span.trace_id);
    if (span.trace_id != 0) {
      tracer_->pin(span.trace_id);
      tracer_->unpin(displaced);
    }
  });
}

void AccessGateway::start_service_loops() {
  kernel_.schedule(Sessiond::kPollInterval, [this]() {
    sessiond_->poll_usage();
    start_service_loops();
  });
}

void AccessGateway::connect_orchestrator(net::Channel& channel,
                                         MagmadConfig magmad_config) {
  control_transport_ = dynamic_cast<net::ReliableChannel*>(&channel);
  orc8r_node_ = std::make_unique<rpc::RpcNode>(kernel_, channel,
                                               id_.value + "-orc8r-client");
  if (tracer_ != nullptr) orc8r_node_->set_tracer(tracer_, id_.value);
  orc8r_node_->set_wait_attribution(&cpu_);
  magmad_ = std::make_unique<Magmad>(
      kernel_, id_.value, orc8r_node_.get(), subscriberdb_, policydb_,
      [this]() { return checkpoint(); },
      [this]() {
        orc8r::TelemetryReport report;
        report.samples = telemetry_snapshot();
        report.histograms = histogram_snapshot();
        if (tail_sampler_ != nullptr) {
          report.summaries = tail_sampler_->drain_ready();
        }
        report.sketch = subscriber_sketches_.snapshot(id_.value, kernel_.now());
        return report;
      },
      magmad_config, &events_, [this]() { return status_.snapshot(); });
  magmad_->set_status(svc_magmad_);
}

void AccessGateway::connect_ocs(net::Channel& channel) {
  ocs_node_ = std::make_unique<rpc::RpcNode>(kernel_, channel,
                                             id_.value + "-ocs-client");
  if (tracer_ != nullptr) ocs_node_->set_tracer(tracer_, id_.value);
  ocs_node_->set_wait_attribution(&cpu_);
  sessiond_->set_ocs(ocs_node_.get());
}

// ---------------------------------------------------------------------------
// User plane
// ---------------------------------------------------------------------------

void AccessGateway::ingress_from_ran(datapath::PacketBatch batch) {
  ingress(std::move(batch), datapath::Direction::kUplink);
}

void AccessGateway::ingress_from_internet(datapath::PacketBatch batch) {
  ingress(std::move(batch), datapath::Direction::kDownlink);
}

void AccessGateway::ingress(datapath::PacketBatch batch,
                            datapath::Direction dir) {
  ++up_stats_.offered_batches;
  const std::uint64_t bytes = batch.bytes();
  const std::uint64_t count = batch.count;
  up_stats_.offered_bytes += bytes;

  if (user_queue_depth_ >= profile_.user_queue_max) {
    up_stats_.dropped_overload_bytes += bytes;
    return;
  }

  const double cost =
      static_cast<double>(count) * profile_.user_cost_per_packet;
  ++user_queue_depth_;
  const bool accepted = cpu_.submit(
      sim::WorkClass::kUser, label_forward_[static_cast<int>(dir)], cost,
      [this, batch = std::move(batch), dir, count]() mutable {
        --user_queue_depth_;
        datapath::PipelineResult result = pipelined_.pipeline().process_batch(
            std::move(batch), dir, kernel_.now());
        if (result.verdict == datapath::Verdict::kForwarded &&
            result.out_port == datapath::kPortLocal) {
          // Downlink for an ECM-IDLE UE: trigger paging (§3.1 — the AGW is
          // the mobility anchor; this never leaves the gateway).
          const auto imsi = mobilityd_.reverse_lookup(result.packet.ip.dst);
          if (imsi.has_value()) lte_frontend_->page(*imsi);
          return;
        }
        if (result.verdict == datapath::Verdict::kForwarded) {
          // out_count can be below the ingress count: meters drop the
          // non-conforming tail of a batch inside the pipeline.
          const std::uint64_t out_bytes =
              result.out_count *
              static_cast<std::uint64_t>(result.packet.wire_size());
          up_stats_.forwarded_bytes += out_bytes;
          up_stats_.forwarded_packets += result.out_count;
          if (egress_) {
            egress_(result.out_port, datapath::PacketBatch{
                                         std::move(result.packet),
                                         result.out_count});
          }
        }
      });
  if (!accepted) {
    --user_queue_depth_;
    up_stats_.dropped_overload_bytes += bytes;
  }
}

// ---------------------------------------------------------------------------
// Fault tolerance
// ---------------------------------------------------------------------------

common::Bytes AccessGateway::checkpoint() const {
  rpc::Writer w;
  // The UE address block is part of the gateway's identity: a backup
  // instance must keep handing out (and honouring) the same addresses.
  w.u32(profile_.ip_block.base.addr);
  w.u8(profile_.ip_block.prefix_len);
  w.bytes(subscriberdb_.snapshot());
  w.bytes(policydb_.snapshot());
  w.bytes(sessiond_->checkpoint());
  return std::move(w).take();
}

common::Status AccessGateway::restore(common::BytesView image) {
  rpc::Reader r(image);
  IpBlock block;
  block.base.addr = r.u32();
  block.prefix_len = r.u8();
  const common::Bytes subs = r.bytes();
  const common::Bytes policies = r.bytes();
  const common::Bytes sessions = r.bytes();
  if (!r.ok() || !r.at_end() || block.prefix_len > 32) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt AGW checkpoint"};
  }
  if (auto status = subscriberdb_.restore(subs); !status.ok()) return status;
  if (auto status = policydb_.restore(policies); !status.ok()) return status;
  if (auto status = sessiond_->restore(sessions); !status.ok()) return status;
  // Take over the failed instance's address space and its assignments.
  profile_.ip_block = block;
  mobilityd_ = Mobilityd(block);
  mobilityd_.set_status(svc_mobilityd_);
  for (const common::Imsi& imsi : sessiond_->active_imsis()) {
    const SessionRecord* session = sessiond_->find(imsi);
    if (session != nullptr) {
      mobilityd_.adopt(imsi, session->flows.ue_ip).ok();
    }
  }
  return common::Status::Ok();
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

std::vector<orc8r::MetricSample> AccessGateway::telemetry_snapshot() {
  const sim::TimePoint now = kernel_.now();
  std::vector<orc8r::MetricSample> samples;
  auto gauge = [&](const std::string& name, double value) {
    samples.push_back(orc8r::MetricSample{id_.value, name, value, now});
  };
  gauge("active_sessions", static_cast<double>(sessiond_->active_sessions()));
  const std::uint64_t forwarded = up_stats_.forwarded_bytes;
  gauge("forwarded_bytes_delta",
        static_cast<double>(forwarded - last_reported_forwarded_bytes_));
  last_reported_forwarded_bytes_ = forwarded;
  gauge("cpu_control_busy_s",
        sim::to_seconds(
            cpu_.stats().busy_ns[static_cast<int>(sim::WorkClass::kControl)]));
  gauge("cpu_user_busy_s",
        sim::to_seconds(
            cpu_.stats().busy_ns[static_cast<int>(sim::WorkClass::kUser)]));
  // Continuous profiler: cumulative on-CPU seconds per service and per
  // core (the fig6/fig7 per-service breakdown, shipped continuously).
  for (const auto& [service, seconds] : cpu_.service_busy_seconds()) {
    gauge("cpu_service_busy_s_" + service, seconds);
  }
  // Off-CPU counterpart: cumulative wait (run-queue + blocked-on-RPC +
  // timer) per service, so fleet dashboards can plot on-CPU vs off-CPU per
  // service without shipping every label.
  {
    std::map<std::string, double> wait_s;
    for (const sim::TaskLabelStats& label : cpu_.labels()) {
      wait_s[label.service] +=
          sim::to_seconds(label.queue_wait_ns + label.rpc_wait_ns +
                          label.timer_wait_ns);
    }
    for (const auto& [service, seconds] : wait_s) {
      if (seconds > 0) gauge("cpu_service_wait_s_" + service, seconds);
    }
  }
  // Backhaul health as seen from this gateway: transmit-queue depth and
  // cumulative drops per direction (uplink = toward the orchestrator).
  if (backhaul_ul_ != nullptr) {
    gauge("link_queue_depth_ul",
          static_cast<double>(backhaul_ul_->queue_depth()));
    gauge("link_dropped_packets_ul",
          static_cast<double>(backhaul_ul_->stats().packets_dropped));
  }
  if (backhaul_dl_ != nullptr) {
    gauge("link_queue_depth_dl",
          static_cast<double>(backhaul_dl_->queue_depth()));
    gauge("link_dropped_packets_dl",
          static_cast<double>(backhaul_dl_->stats().packets_dropped));
  }
  {
    const std::vector<sim::Duration> per_core = cpu_.core_busy_ns();
    for (std::size_t core = 0; core < per_core.size(); ++core) {
      gauge("cpu_core" + std::to_string(core) + "_busy_s",
            sim::to_seconds(per_core[core]));
    }
  }
  // Host observability: how hard the simulator itself is working on behalf
  // of this run. Events/queue depth come from the shared kernel; the alloc
  // counter is process-wide (global operator-new hook) — both are real-host
  // facts that never feed back into sim behavior.
  gauge("sim_events_dispatched", static_cast<double>(kernel_.executed_events()));
  gauge("sim_event_queue_hwm",
        static_cast<double>(kernel_.stats().queue_hwm));
  gauge("host_alloc_bytes",
        static_cast<double>(obs::HostProfiler::process_alloc_bytes()));
  // Freelist-discipline guards: a closure too fat for the kernel's inline
  // event storage, or a pool overflowing to the heap, is a host perf
  // regression — both ship as cumulative gauges with default growth alerts.
  gauge("sim_closure_heap_fallbacks",
        static_cast<double>(kernel_.stats().closure_heap_fallbacks));
  gauge("pool_heap_fallbacks",
        static_cast<double>(common::total_pool_heap_fallbacks()));
  const AccessdStats& acc = accessd_->stats();
  gauge("attaches_completed",
        static_cast<double>(acc.attach_completed[0] + acc.attach_completed[1] +
                            acc.attach_completed[2]));
  gauge("accessd_overload_rejections",
        static_cast<double>(acc.overload_rejections));
  gauge("accessd_queued_work", static_cast<double>(accessd_->queued_work()));
  if (control_transport_ != nullptr) {
    // Transport health of the orchestrator control channel (§3.1: control
    // traffic must survive degraded backhaul; a too-short RTO shows up here
    // as spurious retransmissions at the far end and retransmissions at
    // ours).
    const net::ReliableStats& t = control_transport_->stats();
    gauge("transport_srtt_s", sim::to_seconds(t.srtt));
    gauge("transport_rto_s", sim::to_seconds(t.rto));
    gauge("transport_retransmissions", static_cast<double>(t.retransmissions));
    gauge("transport_fast_retransmits",
          static_cast<double>(t.fast_retransmits));
    gauge("transport_spurious_retransmits",
          static_cast<double>(t.spurious_retransmits));
    gauge("transport_send_failures", static_cast<double>(t.failures));
    gauge("transport_resets", static_cast<double>(t.resets));
    // Congestion/SACK health: a satellite gateway pushing config shows a
    // cwnd-limited flight here; growth of rto_at_cap means the channel is
    // pinned at max_rto (the backhaul is effectively down — alertable).
    gauge("transport_cwnd", static_cast<double>(t.cwnd));
    gauge("transport_ssthresh", static_cast<double>(t.ssthresh));
    gauge("transport_flight_size", static_cast<double>(t.flight_size));
    gauge("transport_sack_retransmits",
          static_cast<double>(t.sack_retransmits));
    gauge("transport_rto_at_cap", static_cast<double>(t.rto_at_cap));
    gauge("transport_reorder_backlog",
          static_cast<double>(control_transport_->reorder_backlog()));
    gauge("transport_send_backlog",
          static_cast<double>(control_transport_->send_backlog()));
    gauge("magmad_telemetry_sheds",
          static_cast<double>(magmad_->stats().telemetry_sheds));
    gauge("magmad_histogram_buckets_shipped",
          static_cast<double>(magmad_->stats().histogram_buckets_shipped));
    gauge("magmad_trace_summaries_shipped",
          static_cast<double>(magmad_->stats().trace_summaries_shipped));
  }
  return samples;
}

std::vector<orc8r::HistogramSnapshot> AccessGateway::histogram_snapshot()
    const {
  std::vector<orc8r::HistogramSnapshot> snapshots;
  snapshots.reserve(latency_hist_.size() + 2);
  auto add = [&](const std::string& name, const obs::Histogram& hist) {
    orc8r::HistogramSnapshot snap;
    snap.gateway_id = id_.value;
    snap.name = name;
    snap.bounds = hist.bounds();
    snap.counts = hist.counts();
    const std::vector<std::uint64_t>& exemplars = hist.exemplars();
    for (std::size_t b = 0; b < exemplars.size(); ++b) {
      if (exemplars[b] != 0) {
        snap.exemplars.emplace_back(static_cast<std::uint32_t>(b),
                                    exemplars[b]);
      }
    }
    snap.sum = hist.sum();
    snap.time = kernel_.now();
    snapshots.push_back(std::move(snap));
  };
  for (const auto& [name, hist] : latency_hist_) add(name, hist);
  // Profiler run-queue wait distributions (how long work sat runnable
  // before a core picked it up — the queueing half of Figure 6's latency).
  if (cpu_.queue_wait(sim::WorkClass::kControl).count() > 0) {
    add("cpu_runq_wait_control_s", cpu_.queue_wait(sim::WorkClass::kControl));
  }
  if (cpu_.queue_wait(sim::WorkClass::kUser).count() > 0) {
    add("cpu_runq_wait_user_s", cpu_.queue_wait(sim::WorkClass::kUser));
  }
  return snapshots;
}

}  // namespace magma::agw
