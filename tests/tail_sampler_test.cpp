// Tail-based trace sampling and the critical-path walk it feeds: slowest-K
// retention under ring pressure, error-pin interaction, window rollover,
// zero-duration roots, and the exact-sum decomposition invariant.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "obs/critical_path.h"
#include "obs/tail_sampler.h"
#include "obs/trace.h"
#include "sim/kernel.h"
#include "sim/time.h"

namespace magma::obs {
namespace {

// Run a root span of `duration` to completion, starting now.
TraceContext finish_root(sim::Kernel& kernel, Tracer& tracer,
                         sim::Duration duration,
                         const std::string& op = "attach",
                         const std::string& node = "gw0",
                         bool error = false) {
  const TraceContext root = tracer.begin(op, "lte_frontend", node);
  if (error) tracer.tag(root, "error", "boom");
  kernel.run_until(kernel.now() + duration);
  tracer.end(root);
  return root;
}

// ---------------------------------------------------------------------------
// TailSampler
// ---------------------------------------------------------------------------

TEST(TailSampler, KeepsSlowestKPerOpAndDisplacesFaster) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  TailSamplerConfig config;
  config.keep_per_op = 2;
  config.window = sim::kMinute;
  TailSampler sampler(kernel, tracer, config);

  const TraceContext t10 = finish_root(kernel, tracer, 10 * sim::kMillisecond);
  const TraceContext t80 = finish_root(kernel, tracer, 80 * sim::kMillisecond);
  const TraceContext t30 = finish_root(kernel, tracer, 30 * sim::kMillisecond);
  const TraceContext t50 = finish_root(kernel, tracer, 50 * sim::kMillisecond);
  const TraceContext t20 = finish_root(kernel, tracer, 20 * sim::kMillisecond);

  // 10 and 80 fill K; 30 displaces 10; 50 displaces 30; 20 bounces.
  EXPECT_EQ(sampler.held(), 2u);
  EXPECT_TRUE(tracer.trace_pinned(t80.trace_id));
  EXPECT_TRUE(tracer.trace_pinned(t50.trace_id));
  EXPECT_FALSE(tracer.trace_pinned(t10.trace_id));
  EXPECT_FALSE(tracer.trace_pinned(t30.trace_id));
  EXPECT_FALSE(tracer.trace_pinned(t20.trace_id));
  EXPECT_EQ(sampler.stats().roots_seen, 5u);
  EXPECT_EQ(sampler.stats().kept, 4u);
  EXPECT_EQ(sampler.stats().displaced, 2u);
}

TEST(TailSampler, SlowTraceSurvivesRingPressureFastOneDoesNot) {
  // The acceptance scenario: a slow-but-successful trace outlives a flood
  // of fast traces in a tiny ring; an equally old fast trace ages out.
  sim::Kernel kernel;
  Tracer tracer(kernel);
  tracer.set_retention(8);
  TailSamplerConfig config;
  config.keep_per_op = 1;
  config.window = sim::kMinute;
  TailSampler sampler(kernel, tracer, config);

  const TraceContext fast = tracer.begin("attach", "lte_frontend", "gw0");
  const TraceContext slow = tracer.begin("attach", "lte_frontend", "gw0");
  kernel.run_until(10 * sim::kMillisecond);
  tracer.end(fast);
  kernel.run_until(900 * sim::kMillisecond);
  tracer.end(slow);

  for (int i = 0; i < 50; ++i) {
    finish_root(kernel, tracer, 10 * sim::kMillisecond);
  }

  EXPECT_FALSE(tracer.trace_spans(slow.trace_id).empty());
  EXPECT_TRUE(tracer.trace_spans(fast.trace_id).empty());
  EXPECT_EQ(tracer.finished().size(), 8u);
}

TEST(TailSampler, ErrorPinnedTracesNeverCountAgainstK) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  TailSamplerConfig config;
  config.keep_per_op = 1;
  config.window = sim::kMinute;
  TailSampler sampler(kernel, tracer, config);

  // The errored trace is the slowest by far — but it is already retained by
  // the error pin; the single tail slot must go to the slow *success*.
  const TraceContext failed = finish_root(kernel, tracer, 2 * sim::kSecond,
                                          "attach", "gw0", /*error=*/true);
  const TraceContext slow_ok =
      finish_root(kernel, tracer, 500 * sim::kMillisecond);
  const TraceContext fast_ok =
      finish_root(kernel, tracer, 100 * sim::kMillisecond);

  EXPECT_EQ(sampler.stats().skipped_error_pinned, 1u);
  EXPECT_EQ(sampler.held(), 1u);
  EXPECT_TRUE(tracer.error_pinned(failed.trace_id));
  EXPECT_TRUE(tracer.trace_pinned(slow_ok.trace_id));
  EXPECT_FALSE(tracer.trace_pinned(fast_ok.trace_id));

  // The window summary covers the success, not the errored trace.
  kernel.run_until(2 * sim::kMinute);
  const std::vector<TraceSummary> shipped = sampler.drain_ready();
  ASSERT_EQ(shipped.size(), 1u);
  EXPECT_EQ(shipped[0].trace_id, slow_ok.trace_id);
  // Shipping released the tail pin; the error pin is untouched.
  EXPECT_FALSE(tracer.trace_pinned(slow_ok.trace_id));
  EXPECT_TRUE(tracer.error_pinned(failed.trace_id));
}

TEST(TailSampler, WindowRolloverShipsAndUnpinsTheClosedWindow) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  TailSamplerConfig config;
  config.keep_per_op = 4;
  config.window = sim::kSecond;
  TailSampler sampler(kernel, tracer, config);

  const TraceContext w0 =
      finish_root(kernel, tracer, 100 * sim::kMillisecond);  // ends t=0.1
  EXPECT_EQ(sampler.held(), 1u);
  EXPECT_EQ(sampler.ready(), 0u);

  kernel.run_until(1200 * sim::kMillisecond);
  const TraceContext w1 =
      finish_root(kernel, tracer, 100 * sim::kMillisecond);  // ends t=1.3

  // The second root rolled the window: the first keep was summarized and
  // its pin released; the new keep holds the current window.
  EXPECT_EQ(sampler.stats().windows_closed, 1u);
  EXPECT_EQ(sampler.ready(), 1u);
  EXPECT_EQ(sampler.held(), 1u);
  EXPECT_FALSE(tracer.trace_pinned(w0.trace_id));
  EXPECT_TRUE(tracer.trace_pinned(w1.trace_id));

  // Drain mid-window returns only the closed window's summary.
  std::vector<TraceSummary> shipped = sampler.drain_ready();
  ASSERT_EQ(shipped.size(), 1u);
  EXPECT_EQ(shipped[0].trace_id, w0.trace_id);
  EXPECT_EQ(shipped[0].root_op, "attach");
  EXPECT_EQ(shipped[0].gateway_id, "gw0");
  EXPECT_EQ(shipped[0].duration, 100 * sim::kMillisecond);
  // No instrumented layer charged this root, so the whole decomposition is
  // unattributed self-time — and it still sums to the duration.
  EXPECT_EQ(shipped[0].breakdown[static_cast<std::size_t>(WaitState::kOther)],
            shipped[0].duration);

  // An idle gateway still ships: once the current window's time has fully
  // passed, drain closes it without waiting for a newer root.
  kernel.run_until(3 * sim::kSecond);
  shipped = sampler.drain_ready();
  ASSERT_EQ(shipped.size(), 1u);
  EXPECT_EQ(shipped[0].trace_id, w1.trace_id);
  EXPECT_EQ(sampler.stats().windows_closed, 2u);
  EXPECT_EQ(sampler.held(), 0u);
}

// Window close gathers every kept trace's spans in one pass over the ring;
// each summary must match the per-trace critical_path(tracer, id) walk.
// The traces interleave in the ring, and siblings begin at the same
// instant, so both the grouping and the (start, span_id) order matter.
TEST(TailSampler, WindowCloseSummariesMatchPerTraceCriticalPath) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  TailSamplerConfig config;
  config.keep_per_op = 3;
  config.window = sim::kSecond;
  TailSampler sampler(kernel, tracer, config);

  std::vector<TraceContext> roots;
  for (int i = 0; i < 3; ++i) {
    roots.push_back(tracer.begin("attach", "lte_frontend", "gw0"));
    roots.push_back(tracer.begin("detach", "lte_frontend", "gw0"));
  }
  kernel.run_until(10 * sim::kMillisecond);
  std::vector<TraceContext> children;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    children.push_back(tracer.begin("begin_attach", "accessd", "gw0",
                                    SpanKind::kInternal, roots[i]));
    children.push_back(tracer.begin("rpc", "accessd", "gw0",
                                    SpanKind::kClient, roots[i]));
  }
  for (std::size_t i = 0; i < children.size(); ++i) {
    kernel.run_until(kernel.now() + static_cast<sim::Duration>(i + 1) *
                                        sim::kMillisecond);
    tracer.add_wait(children[i], WaitState::kCpu,
                    static_cast<sim::Duration>(i % 3) * sim::kMillisecond);
    tracer.end(children[(i * 5) % children.size()]);
  }
  for (std::size_t i = 0; i < roots.size(); ++i) {
    kernel.run_until(kernel.now() + static_cast<sim::Duration>(7 * i + 3) *
                                        sim::kMillisecond);
    tracer.end(roots[i]);
  }
  ASSERT_EQ(sampler.held(), roots.size());

  std::map<std::uint64_t, CriticalPathResult> expected;
  for (const TraceContext& root : roots) {
    expected[root.trace_id] = critical_path(tracer, root.trace_id);
    ASSERT_TRUE(expected[root.trace_id].valid);
  }

  kernel.run_until(3 * sim::kSecond);
  const std::vector<TraceSummary> shipped = sampler.drain_ready();
  ASSERT_EQ(shipped.size(), roots.size());
  for (const TraceSummary& s : shipped) {
    const CriticalPathResult& cp = expected.at(s.trace_id);
    EXPECT_EQ(s.root_op, cp.root_name);
    EXPECT_EQ(s.root_service, cp.root_service);
    EXPECT_EQ(s.start, cp.root_start);
    EXPECT_EQ(s.duration, cp.total);
    EXPECT_EQ(s.breakdown, cp.breakdown);
    EXPECT_EQ(s.gateway_id, "gw0");
  }
}

TEST(TailSampler, ZeroDurationRootsAreKeptWithoutDividingByZero) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  TailSamplerConfig config;
  config.keep_per_op = 2;
  config.window = sim::kSecond;
  TailSampler sampler(kernel, tracer, config);

  // Three instantaneous roots: the first two fill K, the third is not
  // strictly slower than the fastest keep and bounces.
  for (int i = 0; i < 3; ++i) {
    tracer.end(tracer.begin("noop", "svc", "gw0"));
  }
  EXPECT_EQ(sampler.held(), 2u);
  EXPECT_EQ(sampler.stats().kept, 2u);
  EXPECT_EQ(sampler.stats().displaced, 0u);

  kernel.run_until(2 * sim::kSecond);
  const std::vector<TraceSummary> shipped = sampler.drain_ready();
  ASSERT_EQ(shipped.size(), 2u);
  for (const TraceSummary& s : shipped) {
    EXPECT_EQ(s.duration, 0);
    for (const sim::Duration d : s.breakdown) EXPECT_EQ(d, 0);
  }
}

TEST(TailSampler, ReadyCapDropsOldestSummaries) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  TailSamplerConfig config;
  config.keep_per_op = 1;
  config.window = sim::kSecond;
  config.max_ready = 1;
  TailSampler sampler(kernel, tracer, config);

  const TraceContext first =
      finish_root(kernel, tracer, 10 * sim::kMillisecond);
  kernel.run_until(1100 * sim::kMillisecond);
  const TraceContext second =
      finish_root(kernel, tracer, 10 * sim::kMillisecond);
  kernel.run_until(2200 * sim::kMillisecond);
  const TraceContext third =
      finish_root(kernel, tracer, 10 * sim::kMillisecond);
  (void)first;
  (void)third;

  // Two windows closed against a one-slot ready queue: the oldest summary
  // was dropped and counted.
  EXPECT_EQ(sampler.stats().windows_closed, 2u);
  EXPECT_EQ(sampler.stats().ready_dropped, 1u);
  const std::vector<TraceSummary> shipped = sampler.drain_ready();
  ASSERT_EQ(shipped.size(), 1u);
  EXPECT_EQ(shipped[0].trace_id, second.trace_id);
}

TEST(TailSampler, NodeFilterSamplesOnlyOwnRoots) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  TailSampler sampler(kernel, tracer, {});
  sampler.set_node_filter("gw0");

  finish_root(kernel, tracer, 10 * sim::kMillisecond, "attach", "gw1");
  EXPECT_EQ(sampler.stats().roots_seen, 0u);
  EXPECT_EQ(sampler.held(), 0u);

  finish_root(kernel, tracer, 10 * sim::kMillisecond, "attach", "gw0");
  EXPECT_EQ(sampler.stats().roots_seen, 1u);
  EXPECT_EQ(sampler.held(), 1u);
}

TEST(TailSampler, DestructorReleasesItsPins) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  TraceContext kept{};
  {
    TailSampler sampler(kernel, tracer, {});
    kept = finish_root(kernel, tracer, 10 * sim::kMillisecond);
    EXPECT_TRUE(tracer.trace_pinned(kept.trace_id));
  }
  EXPECT_FALSE(tracer.trace_pinned(kept.trace_id));
  EXPECT_EQ(tracer.tail_pinned_traces(), 0u);
}

// ---------------------------------------------------------------------------
// Critical path
// ---------------------------------------------------------------------------

TEST(CriticalPath, BreakdownSumsToRootAndClassifiesSelfTime) {
  sim::Kernel kernel;
  Tracer tracer(kernel);

  const TraceContext root = tracer.begin("attach", "lte_frontend", "gw0");
  kernel.run_until(100 * sim::kMillisecond);
  const TraceContext child =
      tracer.begin("begin_attach", "accessd", "gw0", SpanKind::kInternal, root);
  kernel.run_until(500 * sim::kMillisecond);
  tracer.add_wait(child, WaitState::kCpu, 300 * sim::kMillisecond);
  tracer.add_wait(child, WaitState::kRunq, 100 * sim::kMillisecond);
  tracer.end(child);
  kernel.run_until(sim::kSecond);
  tracer.end(root);

  const CriticalPathResult cp = critical_path(tracer, root.trace_id);
  ASSERT_TRUE(cp.valid);
  EXPECT_EQ(cp.root_name, "attach");
  EXPECT_EQ(cp.total, sim::kSecond);
  EXPECT_EQ(cp.component(WaitState::kCpu), 300 * sim::kMillisecond);
  EXPECT_EQ(cp.component(WaitState::kRunq), 100 * sim::kMillisecond);
  // The root's uncovered, uncharged 600 ms stays unattributed.
  EXPECT_EQ(cp.component(WaitState::kOther), 600 * sim::kMillisecond);
  sim::Duration sum = 0;
  for (const sim::Duration d : cp.breakdown) sum += d;
  EXPECT_EQ(sum, cp.total);

  ASSERT_EQ(cp.path.size(), 2u);
  EXPECT_EQ(cp.path[0].name, "attach");
  EXPECT_EQ(cp.path[1].name, "begin_attach");
  EXPECT_EQ(cp.path[1].duration, 400 * sim::kMillisecond);
}

TEST(CriticalPath, ClientGapAroundServerChildIsLinkTransit) {
  sim::Kernel kernel;
  Tracer tracer(kernel);

  const TraceContext root = tracer.begin("attach", "lte_frontend", "gw0");
  kernel.run_until(100 * sim::kMillisecond);
  const TraceContext client =
      tracer.begin("rpc/Call", "rpc", "gw0", SpanKind::kClient, root);
  kernel.run_until(200 * sim::kMillisecond);
  const TraceContext server =
      tracer.begin("rpc/Call", "svc", "orc8r", SpanKind::kServer, client);
  kernel.run_until(600 * sim::kMillisecond);
  tracer.add_wait(server, WaitState::kCpu, 400 * sim::kMillisecond);
  tracer.end(server);
  kernel.run_until(700 * sim::kMillisecond);
  tracer.end(client);
  kernel.run_until(sim::kSecond);
  tracer.end(root);

  const CriticalPathResult cp = critical_path(tracer, root.trace_id);
  ASSERT_TRUE(cp.valid);
  // Server child explains 400 ms of CPU; the 200 ms the client spent around
  // it is the two one-way wire latencies.
  EXPECT_EQ(cp.component(WaitState::kCpu), 400 * sim::kMillisecond);
  EXPECT_EQ(cp.component(WaitState::kLinkTransit), 200 * sim::kMillisecond);
  EXPECT_EQ(cp.component(WaitState::kOther), 400 * sim::kMillisecond);
  EXPECT_EQ(cp.component(WaitState::kRpcWait), 0);
}

TEST(CriticalPath, ClientWithoutServerChildIsRpcWait) {
  sim::Kernel kernel;
  Tracer tracer(kernel);

  const TraceContext root = tracer.begin("attach", "lte_frontend", "gw0");
  const TraceContext client =
      tracer.begin("rpc/Call", "rpc", "gw0", SpanKind::kClient, root);
  kernel.run_until(300 * sim::kMillisecond);
  tracer.end(client);  // timed out: no server span ever appeared
  kernel.run_until(sim::kSecond);
  tracer.end(root);

  const CriticalPathResult cp = critical_path(tracer, root.trace_id);
  ASSERT_TRUE(cp.valid);
  EXPECT_EQ(cp.component(WaitState::kRpcWait), 300 * sim::kMillisecond);
  EXPECT_EQ(cp.component(WaitState::kLinkTransit), 0);
}

TEST(CriticalPath, OverlappingSiblingsDoNotDoubleCount) {
  sim::Kernel kernel;
  Tracer tracer(kernel);

  const TraceContext root = tracer.begin("attach", "lte_frontend", "gw0");
  kernel.run_until(100 * sim::kMillisecond);
  const TraceContext a =
      tracer.begin("a", "svc", "gw0", SpanKind::kInternal, root);
  kernel.run_until(300 * sim::kMillisecond);
  const TraceContext b =
      tracer.begin("b", "svc", "gw0", SpanKind::kInternal, root);
  kernel.run_until(500 * sim::kMillisecond);
  tracer.add_wait(a, WaitState::kCpu, 400 * sim::kMillisecond);
  tracer.end(a);
  kernel.run_until(700 * sim::kMillisecond);
  tracer.add_wait(b, WaitState::kCpu, 400 * sim::kMillisecond);
  tracer.end(b);
  kernel.run_until(sim::kSecond);
  tracer.end(root);

  const CriticalPathResult cp = critical_path(tracer, root.trace_id);
  ASSERT_TRUE(cp.valid);
  // a covers [0.1,0.5]; b overlaps it on [0.3,0.7] and only its clipped
  // [0.5,0.7] tail counts, scaled — union coverage is 600 ms, not 800.
  EXPECT_EQ(cp.component(WaitState::kCpu), 600 * sim::kMillisecond);
  EXPECT_EQ(cp.component(WaitState::kOther), 400 * sim::kMillisecond);
  sim::Duration sum = 0;
  for (const sim::Duration d : cp.breakdown) sum += d;
  EXPECT_EQ(sum, cp.total);
}

TEST(CriticalPath, EvictedRootFallsBackToEarliestOrphan) {
  // Hand-built records: the root span is gone (ring eviction), two of its
  // children survive. The earliest orphan stands in as the root and absorbs
  // the other's non-overlapping coverage.
  SpanRecord a;
  a.trace_id = 7;
  a.span_id = 2;
  a.parent_span_id = 1;  // evicted
  a.name = "first";
  a.start = 0;
  a.end = 400;
  a.wait_ns[static_cast<std::size_t>(WaitState::kCpu)] = 400;
  SpanRecord b;
  b.trace_id = 7;
  b.span_id = 3;
  b.parent_span_id = 1;  // evicted
  b.name = "second";
  b.start = 100;
  b.end = 300;

  const CriticalPathResult cp = critical_path({a, b});
  ASSERT_TRUE(cp.valid);
  EXPECT_EQ(cp.root_name, "first");
  EXPECT_EQ(cp.total, 400);
  sim::Duration sum = 0;
  for (const sim::Duration d : cp.breakdown) sum += d;
  EXPECT_EQ(sum, cp.total);
}

TEST(CriticalPath, EmptyAndUnknownTracesAreInvalid) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  EXPECT_FALSE(critical_path(tracer, 12345).valid);
  EXPECT_FALSE(critical_path(std::vector<SpanRecord>{}).valid);
  EXPECT_EQ(describe_breakdown(WaitVector{}), "(empty)");
}

}  // namespace
}  // namespace magma::obs
