// Observability primitives: tracer spans/propagation, latency histograms
// and structured events.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/events.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "sim/kernel.h"

namespace magma::obs {
namespace {

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Tracer, RootSpanStartsFreshTrace) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  const TraceContext a = tracer.begin("a", "svc", "node");
  const TraceContext b = tracer.begin("b", "svc", "node");
  EXPECT_TRUE(a.valid());
  EXPECT_NE(a.trace_id, b.trace_id);  // no current context: distinct traces
  tracer.end(a);
  tracer.end(b);
  EXPECT_EQ(tracer.finished().size(), 2u);
}

TEST(Tracer, ScopeMakesImplicitParent) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  const TraceContext root = tracer.begin("root", "svc", "node");
  {
    const Tracer::Scope scope(&tracer, root);
    EXPECT_EQ(tracer.current().span_id, root.span_id);
    const TraceContext child = tracer.begin("child", "svc", "node");
    EXPECT_EQ(child.trace_id, root.trace_id);
    tracer.end(child);
  }
  EXPECT_FALSE(tracer.current().valid());
  tracer.end(root);

  const auto spans = tracer.trace_spans(root.trace_id);
  ASSERT_EQ(spans.size(), 2u);
  // Start-ordered: root first, child parented on it.
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[1].parent_span_id, root.span_id);
}

TEST(Tracer, ExplicitParentCrossesScopes) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  const TraceContext root = tracer.begin("root", "svc", "a");
  const TraceContext remote = tracer.begin("remote", "svc", "b",
                                           SpanKind::kServer, root);
  EXPECT_EQ(remote.trace_id, root.trace_id);
  tracer.end(remote);
  tracer.end(root);
  EXPECT_EQ(tracer.trace_spans(root.trace_id).size(), 2u);
}

TEST(Tracer, SpanTimesComeFromKernel) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  TraceContext span{};
  kernel.schedule(10 * sim::kMillisecond,
                  [&]() { span = tracer.begin("op", "svc", "node"); });
  kernel.schedule(25 * sim::kMillisecond, [&]() { tracer.end(span); });
  kernel.run_until(sim::kSecond);
  ASSERT_EQ(tracer.finished().size(), 1u);
  const SpanRecord& rec = tracer.finished().front();
  EXPECT_EQ(rec.start, 10 * sim::kMillisecond);
  EXPECT_EQ(rec.duration(), 15 * sim::kMillisecond);
}

TEST(Tracer, TagsAttachOnlyToOpenSpans) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  const TraceContext span = tracer.begin("op", "svc", "node");
  tracer.tag(span, "k", "v");
  tracer.end(span);
  tracer.tag(span, "late", "ignored");
  tracer.end(span);  // double-end: no-op
  ASSERT_EQ(tracer.finished().size(), 1u);
  const SpanRecord& rec = tracer.finished().front();
  ASSERT_EQ(rec.tags.size(), 1u);
  EXPECT_EQ(rec.tags[0].first, "k");
}

TEST(Tracer, FinishHooksSeeEverySpanAndRetentionDropsOldest) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  tracer.set_retention(2);
  int hook_calls = 0;
  const std::uint64_t id =
      tracer.add_finish_hook([&](const SpanRecord&) { ++hook_calls; });
  for (int i = 0; i < 5; ++i) {
    tracer.end(tracer.begin("op" + std::to_string(i), "svc", "node"));
  }
  EXPECT_EQ(hook_calls, 5);
  EXPECT_EQ(tracer.finished().size(), 2u);  // ring keeps the newest two
  EXPECT_EQ(tracer.finished().back().name, "op4");
  EXPECT_EQ(tracer.spans_dropped(), 3u);
  tracer.remove_finish_hook(id);
  tracer.end(tracer.begin("after", "svc", "node"));
  EXPECT_EQ(hook_calls, 5);
}

TEST(Tracer, NullSafeHelpers) {
  const TraceContext ctx = begin_span(nullptr, "op", "svc", "node");
  EXPECT_FALSE(ctx.valid());
  end_span(nullptr, ctx);                    // must not crash
  tag_span(nullptr, ctx, "k", "v");          // must not crash
  EXPECT_FALSE(current_context(nullptr).valid());
  const Tracer::Scope scope(nullptr, ctx);   // must not crash
}

TEST(Tracer, SpanLinksRecordCausallyRelatedTraces) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  // Three independent traces (batched events); one shipping span links them.
  const TraceContext e0 = tracer.begin("attach", "accessd", "gw0");
  const TraceContext e1 = tracer.begin("detach", "accessd", "gw0");
  tracer.end(e0);
  tracer.end(e1);

  const TraceContext ship = tracer.begin("ship_events", "magmad", "gw0");
  tracer.link(ship, e0);
  tracer.link(ship, e1);
  tracer.link(ship, TraceContext{});   // invalid target: no-op
  tracer.link(TraceContext{}, e0);     // invalid span: no-op
  link_span(nullptr, ship, e0);        // null-safe helper
  tracer.end(ship);
  tracer.link(ship, e0);  // closed span: no-op

  const auto spans = tracer.trace_spans(ship.trace_id);
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].links.size(), 2u);
  EXPECT_EQ(spans[0].links[0].trace_id, e0.trace_id);
  EXPECT_EQ(spans[0].links[0].span_id, e0.span_id);
  EXPECT_EQ(spans[0].links[1].trace_id, e1.trace_id);
}

TEST(Tracer, ErrorTagPinsTraceAgainstEviction) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  tracer.set_retention(3);

  const TraceContext failed = tracer.begin("attach", "accessd", "gw0");
  tracer.tag(failed, "error", "auth rejected");
  tracer.end(failed);
  EXPECT_TRUE(tracer.trace_pinned(failed.trace_id));

  // A flood of healthy spans evicts around the pinned failure trace.
  for (int i = 0; i < 10; ++i) {
    tracer.end(tracer.begin("ok" + std::to_string(i), "svc", "gw0"));
  }
  EXPECT_EQ(tracer.finished().size(), 3u);
  ASSERT_EQ(tracer.trace_spans(failed.trace_id).size(), 1u);
  EXPECT_TRUE(tracer.trace_spans(failed.trace_id)[0].error);
  EXPECT_EQ(tracer.finished().back().name, "ok9");
}

TEST(Tracer, PinCapReleasesOldestPinFirst) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  TraceContext first{};
  TraceContext second{};
  for (std::size_t i = 0; i < Tracer::kMaxPinnedTraces + 1; ++i) {
    const TraceContext span = tracer.begin("op", "svc", "gw0");
    if (i == 0) first = span;
    if (i == 1) second = span;
    tracer.tag(span, "error", "boom");
    tracer.end(span);
  }
  EXPECT_EQ(tracer.pinned_traces(), Tracer::kMaxPinnedTraces);
  EXPECT_FALSE(tracer.trace_pinned(first.trace_id));
  EXPECT_TRUE(tracer.trace_pinned(second.trace_id));
}

TEST(Tracer, AddWaitAccumulatesOnOpenSpansOnly) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  const TraceContext span = tracer.begin("op", "svc", "gw0");
  tracer.add_wait(span, WaitState::kCpu, 10);
  tracer.add_wait(span, WaitState::kCpu, 5);
  tracer.add_wait(span, WaitState::kRunq, -3);  // non-positive: no-op
  tracer.add_wait(TraceContext{}, WaitState::kCpu, 5);  // invalid: no-op
  tracer.end(span);
  tracer.add_wait(span, WaitState::kTimer, 7);  // closed: no-op
  add_span_wait(nullptr, span, WaitState::kCpu, 5);  // null-safe helper

  ASSERT_EQ(tracer.finished().size(), 1u);
  const SpanRecord& rec = tracer.finished()[0];
  EXPECT_EQ(rec.wait(WaitState::kCpu), 15);
  EXPECT_EQ(rec.wait(WaitState::kRunq), 0);
  EXPECT_EQ(rec.wait(WaitState::kTimer), 0);
}

TEST(Tracer, SamplerPinsAreSeparateFromErrorPins) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  const TraceContext span = tracer.begin("op", "svc", "gw0");
  tracer.tag(span, "error", "boom");
  tracer.end(span);
  ASSERT_TRUE(tracer.error_pinned(span.trace_id));

  // A sampler pin on the same trace: releasing it leaves the error pin.
  tracer.pin(span.trace_id);
  EXPECT_EQ(tracer.tail_pinned_traces(), 1u);
  tracer.unpin(span.trace_id);
  EXPECT_EQ(tracer.tail_pinned_traces(), 0u);
  EXPECT_TRUE(tracer.error_pinned(span.trace_id));
  EXPECT_TRUE(tracer.trace_pinned(span.trace_id));

  // A pure sampler pin protects against eviction without an error anywhere.
  tracer.set_retention(2);
  const TraceContext kept = tracer.begin("kept", "svc", "gw0");
  tracer.end(kept);
  tracer.pin(kept.trace_id);
  EXPECT_FALSE(tracer.error_pinned(kept.trace_id));
  for (int i = 0; i < 6; ++i) {
    tracer.end(tracer.begin("flood", "svc", "gw0"));
  }
  EXPECT_FALSE(tracer.trace_spans(kept.trace_id).empty());
  tracer.pin(0);  // invalid trace id: no-op
  EXPECT_EQ(tracer.tail_pinned_traces(), 1u);
}

TEST(Tracer, RetentionBoundWinsWhenEverythingIsPinned) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  tracer.set_retention(2);
  for (int i = 0; i < 5; ++i) {
    const TraceContext span = tracer.begin("op" + std::to_string(i),
                                           "svc", "gw0");
    tracer.tag(span, "error", "boom");
    tracer.end(span);
  }
  // All finished spans belong to pinned traces; the ring bound still holds.
  EXPECT_EQ(tracer.finished().size(), 2u);
  EXPECT_EQ(tracer.finished().back().name, "op4");
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, CountSumMean) {
  Histogram h;
  h.observe(0.010);
  h.observe(0.020);
  h.observe(0.030);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.060);
  EXPECT_DOUBLE_EQ(h.mean(), 0.020);
}

TEST(Histogram, QuantileBracketsObservations) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.observe(0.010);  // all in one bucket
  const double p50 = h.quantile(0.5);
  // Geometric interpolation inside the bucket: the answer stays within the
  // bucket that holds 10 ms (log-spaced, 5/decade ⇒ ≤ 59% width).
  EXPECT_GT(p50, 0.006);
  EXPECT_LT(p50, 0.016);
}

TEST(Histogram, QuantileOrdersMixedObservations) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.observe(0.001);
  for (int i = 0; i < 10; ++i) h.observe(1.0);
  EXPECT_LT(h.quantile(0.5), 0.01);
  EXPECT_GT(h.quantile(0.99), 0.5);
  EXPECT_DOUBLE_EQ(Histogram().quantile(0.5), 0.0);  // empty
}

TEST(Histogram, MergeRequiresMatchingLayout) {
  Histogram a;
  Histogram b;
  a.observe(0.1);
  b.observe(0.2);
  ASSERT_TRUE(a.merge(b));
  EXPECT_EQ(a.count(), 2u);
  Histogram other(Histogram::log_bounds(1e-3, 10.0, 3));
  EXPECT_FALSE(a.merge(other));
  EXPECT_EQ(a.count(), 2u);  // untouched on mismatch
}

TEST(Histogram, AssignValidatesLayout) {
  Histogram h;
  EXPECT_TRUE(h.assign({1.0, 2.0}, {1, 2, 3}, 6.0));
  EXPECT_EQ(h.count(), 6u);
  EXPECT_FALSE(h.assign({1.0, 2.0}, {1, 2}, 0.0));      // counts too short
  EXPECT_FALSE(h.assign({2.0, 1.0}, {1, 2, 3}, 0.0));   // unsorted bounds
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

TEST(EventBuffer, DropsOldestOnOverflow) {
  EventBuffer buffer(2);
  for (int i = 0; i < 4; ++i) {
    Event e;
    e.type = "e" + std::to_string(i);
    buffer.push(std::move(e));
  }
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.pushed(), 4u);
  EXPECT_EQ(buffer.dropped(), 2u);
  const auto taken = buffer.take(10);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].type, "e2");  // oldest two were dropped
  EXPECT_EQ(taken[1].type, "e3");
  EXPECT_TRUE(buffer.empty());
}

TEST(EventBuffer, TakeRespectsMaxCount) {
  EventBuffer buffer(10);
  for (int i = 0; i < 5; ++i) buffer.push(Event{});
  EXPECT_EQ(buffer.take(3).size(), 3u);
  EXPECT_EQ(buffer.size(), 2u);
}

TEST(EventReport, CodecRoundTrip) {
  std::vector<Event> events(2);
  events[0].time = 123 * sim::kMillisecond;
  events[0].gateway_id = "gw0";
  events[0].type = "attach_success";
  events[0].source = "lte_frontend";
  events[0].message = "IMSI001010000000001";
  events[0].severity = EventSeverity::kInfo;
  events[0].trace = TraceContext{77, 78};
  events[1].severity = EventSeverity::kError;

  // No gateway id on the wire: the decoder stamps the envelope's.
  auto decoded = decode_event_report(encode_event_report(events), "gw7");
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), 2u);
  EXPECT_EQ(decoded.value()[0].gateway_id, "gw7");
  EXPECT_EQ(decoded.value()[1].gateway_id, "gw7");
  EXPECT_EQ(decoded.value()[0].time, 123 * sim::kMillisecond);
  EXPECT_EQ(decoded.value()[0].type, "attach_success");
  EXPECT_EQ(decoded.value()[0].trace.trace_id, 77u);
  EXPECT_EQ(decoded.value()[0].trace.span_id, 78u);
  EXPECT_EQ(decoded.value()[1].severity, EventSeverity::kError);
}

TEST(EventReport, CodecRejectsGarbage) {
  EXPECT_FALSE(decode_event_report(common::to_bytes("nope"), "gw0").ok());
}

}  // namespace
}  // namespace magma::obs
