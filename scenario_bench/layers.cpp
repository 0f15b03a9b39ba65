#include "layers.h"

#include <cstdio>

namespace magma::scenario {
namespace {

std::string label_key(const std::string& subsystem, const std::string& op,
                      const char* field) {
  return "label:" + subsystem + "/" + op + ":" + field;
}

double get(const Counters& c, const std::string& key) {
  const auto it = c.find(key);
  return it == c.end() ? 0.0 : it->second;
}

std::string count_base(const char* what, double n) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%.0f", what, n);
  return buf;
}

}  // namespace

Counters collect_counters(Workload& workload,
                          const obs::HostProfiler* profiler) {
  Counters c;
  core::Network& net = workload.network();
  const sim::Kernel& kernel = net.kernel();
  c["kernel.events"] = static_cast<double>(kernel.executed_events());
  c["kernel.queue_hwm"] = static_cast<double>(kernel.stats().queue_hwm);
  c["kernel.closure_heap_fallbacks"] =
      static_cast<double>(kernel.stats().closure_heap_fallbacks);

  for (std::size_t i = 0; i < net.agw_count(); ++i) {
    agw::AccessGateway& g = net.agw(i);
    const sim::CpuStats& cpu = g.cpu().stats();
    c["cpu.control_busy_s"] += sim::to_seconds(cpu.busy_ns[0]);
    c["cpu.user_busy_s"] += sim::to_seconds(cpu.busy_ns[1]);
    const agw::AccessdStats& acc = g.accessd().stats();
    for (int r = 0; r < 3; ++r) {
      c["accessd.attach_started"] += static_cast<double>(acc.attach_started[r]);
      c["accessd.attach_rejected"] +=
          static_cast<double>(acc.attach_rejected[r]);
    }
    c["accessd.overload_rejections"] +=
        static_cast<double>(acc.overload_rejections);
    c["accessd.detaches"] += static_cast<double>(acc.detaches);
    c["sessiond.sessions_created"] +=
        static_cast<double>(g.sessiond().stats().sessions_created);
    c["sessiond.quota_requests"] +=
        static_cast<double>(g.sessiond().stats().quota_requests);
    c["pipelined.sessions_installed"] +=
        static_cast<double>(g.pipelined().stats().sessions_installed);
    c["pipelined.sessions_removed"] +=
        static_cast<double>(g.pipelined().stats().sessions_removed);
    c["agw.up_offered_batches"] +=
        static_cast<double>(g.user_plane_stats().offered_batches);
    c["agw.up_dropped_overload_bytes"] +=
        static_cast<double>(g.user_plane_stats().dropped_overload_bytes);
    const datapath::Pipeline& pipe = g.pipelined().pipeline();
    c["datapath.cache_hits"] += static_cast<double>(pipe.stats().cache_hits);
    c["datapath.cache_misses"] +=
        static_cast<double>(pipe.stats().cache_misses);
    c["datapath.flow_entries"] +=
        static_cast<double>(pipe.total_flow_entries());
    const agw::MagmadStats& m = g.magmad().stats();
    c["magmad.checkpoints_shipped"] +=
        static_cast<double>(m.checkpoints_shipped);
    c["magmad.telemetry_sheds"] += static_cast<double>(m.telemetry_sheds);
    c["magmad.sync_failures"] += static_cast<double>(m.sync_failures);
    c["net.retransmits"] +=
        static_cast<double>(net.control_stats_orc8r(g).retransmissions +
                            net.control_stats_agw(g).retransmissions);
  }

  const orc8r::Orchestrator& orc = net.orchestrator();
  c["streamer.full_serializations"] =
      static_cast<double>(orc.stats().full_serializations);
  c["streamer.delta_entries_sent"] =
      static_cast<double>(orc.stats().delta_entries_sent);
  c["orc8r.checkpoints_stored"] =
      static_cast<double>(orc.stats().checkpoints_stored);
  c["ingest.shed"] = static_cast<double>(orc.ingest().stats().shed);
  c["store.version"] = static_cast<double>(orc.config_version());
  c["store.wal_records"] =
      static_cast<double>(net.orchestrator().store().wal_records());

  for (const ran::EnodeB* enb : workload.enbs()) {
    c["ran.dl_dropped_radio_bytes"] +=
        static_cast<double>(enb->stats().dl_dropped_radio_bytes);
    c["ran.rrc_rejects_capacity"] +=
        static_cast<double>(enb->stats().rrc_rejects_capacity);
  }

  if (profiler != nullptr) {
    for (const obs::HostLabelStats& s : profiler->snapshot()) {
      if (s.subsystem.empty()) continue;
      c[label_key(s.subsystem, s.op, "calls")] = static_cast<double>(s.calls);
      c[label_key(s.subsystem, s.op, "self_ns")] =
          static_cast<double>(s.self_ns);
      c[label_key(s.subsystem, s.op, "total_ns")] =
          static_cast<double>(s.total_ns);
      c[label_key(s.subsystem, s.op, "allocs")] =
          static_cast<double>(s.alloc_count);
    }
  }
  return c;
}

std::vector<LayerMetric> derive_layer_metrics(
    const Counters& before, const Counters& after,
    const std::map<std::string, double>& setup_ms, const UntracedHost& host,
    double speed) {
  std::vector<LayerMetric> out;
  auto delta = [&](const std::string& key) {
    return get(after, key) - get(before, key);
  };
  auto count = [&](const std::string& name, const std::string& key,
                   const std::string& unit = "count", bool listed = true) {
    out.push_back({name, unit, listed, delta(key), ""});
  };
  // Self time of profiler labels over the measured phase (or, with
  // `whole_rep`, since the repetition started). n/a when never entered.
  auto self_ms = [&](const std::string& name,
                     std::vector<std::pair<std::string, std::string>> labels,
                     bool listed, bool whole_rep = false) {
    double ns = 0, calls = 0;
    for (const auto& [sub, op] : labels) {
      const std::string self = label_key(sub, op, "self_ns");
      const std::string n = label_key(sub, op, "calls");
      ns += whole_rep ? get(after, self) : delta(self);
      calls += whole_rep ? get(after, n) : delta(n);
    }
    std::optional<double> value;
    if (calls > 0) value = ns * speed / 1e6;
    out.push_back({name, "ms", listed, value, count_base("calls", calls)});
  };
  auto ratio = [&](const std::string& name, const std::string& unit,
                   double num, double den, const char* base, bool listed) {
    std::optional<double> value;
    if (den > 0) value = num / den;
    out.push_back({name, unit, listed, value, count_base(base, den)});
  };

  const double events = delta("kernel.events");
  // sim
  count("sim.events", "kernel.events");
  ratio("sim.host_ns_per_event", "ns", host.run_s * 1e9, events, "events",
        true);
  out.push_back({"sim.queue_hwm", "count", true, get(after, "kernel.queue_hwm"),
                 "whole repetition"});
  count("sim.closure_heap_fallbacks", "kernel.closure_heap_fallbacks");
  self_ms("sim.dispatch_self_ms", {{"kernel", "dispatch"}}, true);
  self_ms("sim.link_transmit_self_ms", {{"sim.link", "transmit"}}, true);
  // Simulated seconds, a model property: report-only, since a class of
  // CPU that a workload never uses reads exactly 0 on every run.
  count("sim.cpu_control_busy_s", "cpu.control_busy_s", "sim_s", false);
  count("sim.cpu_user_busy_s", "cpu.user_busy_s", "sim_s", false);

  // agw: accessd
  count("accessd.attach_started", "accessd.attach_started");
  count("accessd.attach_rejected", "accessd.attach_rejected");
  count("accessd.overload_rejections", "accessd.overload_rejections");
  count("accessd.detaches", "accessd.detaches");
  // crypto and proto have no host label: their cost sits in kernel
  // dispatch self time, reported per attach.
  ratio("accessd.dispatch_us_per_attach", "us",
        delta(label_key("kernel", "dispatch", "self_ns")) * speed / 1e3,
        delta("accessd.attach_started"), "attaches", false);

  // agw: sessiond, pipelined, user plane
  count("sessiond.sessions_created", "sessiond.sessions_created");
  count("sessiond.quota_requests", "sessiond.quota_requests");
  count("pipelined.sessions_installed", "pipelined.sessions_installed");
  count("pipelined.sessions_removed", "pipelined.sessions_removed");
  count("agw.up_offered_batches", "agw.up_offered_batches");
  count("agw.up_dropped_overload_bytes", "agw.up_dropped_overload_bytes", "B");

  // datapath
  const double lookups =
      delta("datapath.cache_hits") + delta("datapath.cache_misses");
  out.push_back({"datapath.batches", "count", true, lookups, ""});
  self_ms("datapath.process_batch_self_ms", {{"datapath", "process_batch"}},
          false);
  ratio("datapath.ns_per_batch", "ns",
        delta(label_key("datapath", "process_batch", "total_ns")) * speed,
        delta(label_key("datapath", "process_batch", "calls")), "batches",
        false);
  self_ms("datapath.slow_walk_self_ms", {{"datapath", "slow_walk"}}, false);
  ratio("datapath.cache_hit_ratio", "ratio", delta("datapath.cache_hits"),
        lookups, "lookups", false);
  out.push_back({"datapath.flow_entries", "count", true,
                 get(after, "datapath.flow_entries"),
                 "at the end of the measured phase"});

  // agw: magmad. Full syncs happen during setup, so apply_full spans the
  // whole repetition.
  self_ms("magmad.apply_full_self_ms", {{"magmad", "apply_full"}}, true, true);
  self_ms("magmad.apply_delta_self_ms", {{"magmad", "apply_delta"}}, false);
  count("magmad.checkpoints_shipped", "magmad.checkpoints_shipped");
  count("magmad.telemetry_sheds", "magmad.telemetry_sheds");
  count("magmad.sync_failures", "magmad.sync_failures");

  // orc8r
  self_ms("streamer.desired_update_self_ms", {{"streamer", "desired_update"}},
          false);
  self_ms("streamer.serialize_full_self_ms", {{"streamer", "serialize_full"}},
          true, true);
  out.push_back({"streamer.full_serializations", "count", true,
                 get(after, "streamer.full_serializations"),
                 "whole repetition"});
  count("streamer.delta_entries_sent", "streamer.delta_entries_sent");
  self_ms("orc8r.checkin_self_ms", {{"orc8r", "checkin"}}, false);
  count("orc8r.checkpoints_stored", "orc8r.checkpoints_stored");
  self_ms("ingest.pump_self_ms", {{"ingest", "pump"}}, false);
  count("ingest.shed", "ingest.shed");

  // store
  count("store.writes", "store.version");
  count("store.wal_records", "store.wal_records");

  // rpc and net
  const double rpc_calls = delta(label_key("rpc", "dispatch", "calls"));
  out.push_back({"rpc.calls", "count", true, rpc_calls, "server dispatches"});
  self_ms("rpc.encode_self_ms",
          {{"rpc", "call_encode"}, {"rpc", "encode_response"}}, true);
  self_ms("rpc.dispatch_self_ms", {{"rpc", "dispatch"}}, true);
  self_ms("rpc.decode_self_ms", {{"rpc", "decode_response"}}, true);
  double rpc_allocs = 0;
  for (const char* op :
       {"call_encode", "dispatch", "encode_response", "decode_response"}) {
    rpc_allocs += delta(label_key("rpc", op, "allocs"));
  }
  ratio("rpc.allocs_per_call", "count", rpc_allocs, rpc_calls, "calls", true);
  self_ms("net.transmit_self_ms", {{"net.channel", "transmit_data"}}, true);
  self_ms("net.on_segment_self_ms", {{"net.channel", "on_segment"}}, true);
  count("net.retransmits", "net.retransmits");

  // ran
  count("ran.dl_dropped_radio_bytes", "ran.dl_dropped_radio_bytes", "B");
  count("ran.rrc_rejects_capacity", "ran.rrc_rejects_capacity");

  // obs / host: process-wide, from the untraced repetitions.
  out.push_back({"host.allocs", "count", true, host.allocs, ""});
  out.push_back({"host.alloc_bytes", "B", true, host.alloc_bytes, ""});
  ratio("host.allocs_per_event", "count", host.allocs, events, "events", true);
  out.push_back({"trace.overhead_ratio", "x", true, host.overhead_ratio,
                 "traced run_s / untraced run_s"});

  // core: benchmark-side setup spans
  for (const char* stage : {"setup.provision", "setup.sync", "setup.attach"}) {
    const auto it = setup_ms.find(stage);
    std::optional<double> value;
    if (it != setup_ms.end()) value = it->second;
    out.push_back({std::string(stage) + "_ms", "ms",
                   std::string(stage) != "setup.attach", value,
                   "untraced repetitions"});
  }
  return out;
}

}  // namespace magma::scenario
