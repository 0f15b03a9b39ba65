// Southbound ingest queue for the orchestrator.
//
// Every AGW in the fleet pushes checkins and telemetry reports (samples,
// histograms, trace summaries, sketch) at the orchestrator; applying a report
// inline in the RPC handler means a burst of reports lands on the control
// plane all at once. This generalizes the bounded-work-queue pattern accessd
// uses for attach processing: reports are decoded (and answered) inline, but
// the *apply* — the statusd/metricsd mutation — is enqueued on one FIFO and
// drained a bounded batch per pump tick. Each gateway may hold at most
// kGatewayQueueMax pending applies; a report from a gateway at its cap is
// shed (counted, never queued) — the same loss-tolerant posture as the
// metrics path itself (§3.4): a shed report's data is simply absent, and the
// next report self-corrects. Other gateways' reports still queue.
//
// Determinism: one FIFO and pumps that are ordinary kernel events — the same
// fleet replays the same ingest order every run.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>

#include "sim/kernel.h"
#include "sim/time.h"

namespace magma::orc8r {

struct IngestStats {
  std::uint64_t submitted = 0;
  std::uint64_t processed = 0;
  std::uint64_t shed = 0;  // rejected at a full per-gateway cap
  // High-water marks: most applies pending for a single gateway and deepest
  // total backlog ever seen (the gauges that size the bounds).
  std::uint64_t max_gateway_queue = 0;
  std::uint64_t max_pending = 0;
};

class IngestQueue {
 public:
  // Pending applies per gateway before sheds start. One checkin interval
  // (60 s) brings ~5 (a checkin plus four 15 s telemetry reports); 64
  // absorbs a pump stall of over a dozen intervals before anything is lost.
  static constexpr std::size_t kGatewayQueueMax = 64;
  static constexpr std::size_t kBatchPerPump = 64;  // applies per pump tick
  static constexpr sim::Duration kPumpInterval = 5 * sim::kMillisecond;

  explicit IngestQueue(sim::Kernel& kernel) : kernel_(kernel) {}
  IngestQueue(const IngestQueue&) = delete;  // pumps capture `this`
  IngestQueue& operator=(const IngestQueue&) = delete;

  // Enqueue `apply` behind everything already queued. False: the gateway
  // already has kGatewayQueueMax applies pending and the report was shed
  // (caller should count it and answer the gateway anyway — southbound
  // reports are best-effort, a retry would just re-shed).
  bool submit(const std::string& gateway_id, std::function<void()> apply);

  std::size_t pending() const { return queue_.size(); }
  const IngestStats& stats() const { return stats_; }

 private:
  struct Item {
    std::string gateway_id;
    std::function<void()> apply;
  };

  void pump();

  sim::Kernel& kernel_;
  std::deque<Item> queue_;
  // Pending applies per gateway (entries erased at zero).
  std::unordered_map<std::string, std::size_t> gateway_pending_;
  bool pump_scheduled_ = false;
  IngestStats stats_;
};

}  // namespace magma::orc8r
