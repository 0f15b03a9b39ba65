#include "obs/events.h"

#include <algorithm>

#include "rpc/wire.h"

namespace magma::obs {

common::Bytes encode_event_report(const std::vector<Event>& events) {
  rpc::Writer w;
  w.u64(events.size());
  for (const Event& e : events) {
    w.i64(e.time);
    w.str(e.type);
    w.str(e.source);
    w.str(e.message);
    w.u8(static_cast<std::uint8_t>(e.severity));
    w.u64(e.trace.trace_id);
    w.u64(e.trace.span_id);
  }
  return std::move(w).take();
}

common::Result<std::vector<Event>> decode_event_report(
    common::BytesView data, const std::string& gateway_id) {
  rpc::Reader r(data);
  const std::uint64_t count = r.u64();
  // Attacker-controlled count: each event needs ≥ 37 bytes on the wire
  // (time, three length prefixes, severity, trace context).
  if (!r.ok() || count > r.remaining() / 37) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt event report"};
  }
  std::vector<Event> events;
  events.reserve(count);
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    Event e;
    e.time = r.i64();
    e.gateway_id = gateway_id;
    e.type = r.str();
    e.source = r.str();
    e.message = r.str();
    const std::uint8_t severity = r.u8();
    if (severity > static_cast<std::uint8_t>(EventSeverity::kError)) {
      return common::Error{common::ErrorCode::kInvalidArgument,
                           "bad event severity"};
    }
    e.severity = static_cast<EventSeverity>(severity);
    e.trace.trace_id = r.u64();
    e.trace.span_id = r.u64();
    events.push_back(std::move(e));
  }
  if (!r.ok() || !r.at_end()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt event report"};
  }
  return events;
}

void EventBuffer::push(Event event) {
  ++pushed_;
  if (capacity_ == 0) {
    ++dropped_;
    return;
  }
  if (buffer_.size() >= capacity_) {
    buffer_.pop_front();
    ++dropped_;
  }
  buffer_.push_back(std::move(event));
}

std::vector<Event> EventBuffer::take(std::size_t max_count) {
  const std::size_t n = std::min(max_count, buffer_.size());
  std::vector<Event> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::move(buffer_.front()));
    buffer_.pop_front();
  }
  return out;
}

}  // namespace magma::obs
