// Structured events shipped AGW → orchestrator (best-effort).
//
// The log.h header has always noted that "Magma's real AGW ships logs to
// the orchestrator"; this makes it true for the reproduction. WARN/ERROR
// log lines and notable control-plane milestones (attach success/reject)
// become Events, buffered in a bounded ring on the gateway, and drained by
// magmad into each metrics tick's telemetry report. Loss-tolerant by design:
// a backhaul outage drops events (counted) and never blocks the gateway —
// the same posture as metrics (§3.4 "metrics state").
//
// Events carry the TraceContext active when they were emitted, so the
// orchestrator can anchor its ingest span into the originating attach trace.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace magma::obs {

enum class EventSeverity : std::uint8_t { kInfo = 0, kWarn = 1, kError = 2 };

struct Event {
  sim::TimePoint time = 0;
  std::string gateway_id;
  std::string type;    // "log", "attach_success", "attach_reject", ...
  std::string source;  // emitting component/service
  std::string message;
  EventSeverity severity = EventSeverity::kInfo;
  TraceContext trace{};  // context active at emission ({} if none)
};

// The events section of a telemetry report. The wire carries no per-event
// gateway id: the decoder stamps `gateway_id` (the report envelope's) onto
// every event, so a gateway cannot speak for another.
common::Bytes encode_event_report(const std::vector<Event>& events);
common::Result<std::vector<Event>> decode_event_report(
    common::BytesView data, const std::string& gateway_id);

// Bounded FIFO of pending events. Overflow drops the *oldest* event (the
// newest is the one an operator debugging an outage needs) and counts it.
class EventBuffer {
 public:
  explicit EventBuffer(std::size_t capacity = 1024) : capacity_(capacity) {}

  void push(Event event);
  // Remove and return up to `max_count` events, oldest first.
  std::vector<Event> take(std::size_t max_count);

  std::size_t size() const { return buffer_.size(); }
  bool empty() const { return buffer_.empty(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t pushed() const { return pushed_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::size_t capacity_;
  std::deque<Event> buffer_;
  std::uint64_t pushed_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace magma::obs
