// scenario_bench: runs one workload (attach_churn, bulk_downlink or
// fleet_sync) in repeated, independent repetitions with one seed, and prints
// its end-to-end metrics, simulated outcomes, correctness checks and — with
// --trace 1 — per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   scenario_bench --workload attach_churn --seed 7 --seconds 10 --trace 0
//
// Each repetition builds a fresh deployment, runs its setup, then a fixed
// simulated duration in fixed slices, each slice timed on the thread's CPU
// clock.
// Repetitions continue until --seconds of measured phase have run (at
// least three untraced ones). End-to-end figures are medians over the
// untraced repetitions. With --trace 1 every other repetition runs under
// obs::HostProfiler; per-layer metrics come from those, and the tracing
// overhead is the ratio of traced to untraced run_s. Host times in the
// result are corrected to a reference machine speed with an interleaved
// probe (speed_probe.h); the report prints the raw ones beside them. Every
// repetition must reproduce the same sim_digest, and every check must hold,
// or the exit code is 1.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "obs/host_profiler.h"
#include "speed_probe.h"
#include "workload.h"

using namespace magma;
using namespace magma::scenario;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU time of the calling thread. Slices are timed on this clock: on a
// shared host the thread is now and then descheduled for a few ms, which a
// wall clock would add to whichever ~1-3 ms slice it hit and so set the p99.
double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  std::string trace_out;  // JSON dump of spans and profiler labels
};

// Benchmark-side spans: setup stages, measured phase and drain of every
// repetition, on one host clock.
class SpanLog final : public SetupSpans {
 public:
  struct Span {
    int rep = 0;
    std::string name;
    std::string parent;
    double start_ms = 0;
    double end_ms = 0;
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void set_rep(int rep) { rep_ = rep; }
  void begin(const std::string& stage) override {
    open_.push_back(Span{rep_, stage, "setup", now_ms(), 0});
  }
  void end() override {
    Span span = open_.back();
    open_.pop_back();
    span.end_ms = now_ms();
    spans_.push_back(span);
  }
  void record(const std::string& name, const std::string& parent,
              Clock::time_point start, Clock::time_point end) {
    spans_.push_back(Span{rep_, name, parent, ms_since_origin(start),
                          ms_since_origin(end)});
  }
  std::map<std::string, double> stage_ms(int rep) const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      if (s.rep == rep && s.parent == "setup") {
        out[s.name] += s.end_ms - s.start_ms;
      }
    }
    return out;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double ms_since_origin(Clock::time_point t) const {
    return seconds_between(origin_, t) * 1e3;
  }
  double now_ms() const { return ms_since_origin(Clock::now()); }

  Clock::time_point origin_;
  int rep_ = 0;
  std::vector<Span> open_;
  std::vector<Span> spans_;
};

// Probe samples around setup, and one every kProbeEverySlices slices of the
// measured phase (outside the timed slices). run_s and the slice times are
// corrected by the median of the repetition's measured-phase samples.
constexpr int kSetupProbes = 3;
constexpr int kProbeEverySlices = 50;

struct Rep {
  bool traced = false;
  double setup_s = 0;  // raw host seconds
  double run_s = 0;
  double setup_speed = 1;  // host speed relative to the reference probe
  double run_speed = 1;
  double allocs = 0;
  double alloc_bytes = 0;
  double sim_measured_s = 0;
  std::vector<double> slice_ms;  // raw
  Counters before;
  Counters after;
  std::vector<obs::HostLabelStats> labels;
  Outcome outcome;
  Checks checks;
};

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "attach_churn") {
    return make_attach_churn(args.seed, args.quick);
  }
  if (args.workload == "bulk_downlink") {
    return make_bulk_downlink(args.seed, args.quick);
  }
  if (args.workload == "fleet_sync") {
    return make_fleet_sync(args.seed, args.quick);
  }
  return nullptr;
}

Rep run_rep(const Args& args, bool traced, SpanLog& spans) {
  Rep rep;
  rep.traced = traced;
  SpeedProbe setup_probe;
  SpeedProbe run_probe;
  for (int i = 0; i < kSetupProbes; ++i) setup_probe.sample();
  obs::HostProfiler profiler;
  const Clock::time_point t0 = Clock::now();
  if (traced) profiler.install();
  std::unique_ptr<Workload> w = make_workload(args);
  w->setup(spans);
  const Clock::time_point t1 = Clock::now();
  rep.setup_s = seconds_between(t0, t1);
  for (int i = 0; i < kSetupProbes; ++i) {
    run_probe.sample();
    setup_probe.sample();
  }
  rep.setup_speed = setup_probe.speed();

  const obs::HostProfiler* prof = traced ? &profiler : nullptr;
  rep.before = collect_counters(*w, prof);
  w->begin_measure();
  core::Network& net = w->network();
  const sim::Duration slice = w->slice();
  const int slices = w->slices();
  rep.slice_ms.assign(static_cast<std::size_t>(slices), 0.0);
  const sim::TimePoint sim_start = net.kernel().now();
  const std::uint64_t allocs0 = obs::HostProfiler::process_alloc_count();
  const std::uint64_t bytes0 = obs::HostProfiler::process_alloc_bytes();
  std::uint64_t probe_allocs = 0, probe_bytes = 0;
  double probe_s = 0;
  const Clock::time_point t2 = Clock::now();
  for (int i = 0; i < slices; ++i) {
    const double slice_start_ms = thread_cpu_ms();
    net.run_for(slice);
    rep.slice_ms[static_cast<std::size_t>(i)] =
        thread_cpu_ms() - slice_start_ms;
    w->after_slice();
    if ((i + 1) % kProbeEverySlices == 0) {
      const std::uint64_t a = obs::HostProfiler::process_alloc_count();
      const std::uint64_t b = obs::HostProfiler::process_alloc_bytes();
      probe_s += run_probe.sample();
      probe_allocs += obs::HostProfiler::process_alloc_count() - a;
      probe_bytes += obs::HostProfiler::process_alloc_bytes() - b;
    }
  }
  const Clock::time_point t3 = Clock::now();
  rep.allocs = static_cast<double>(obs::HostProfiler::process_alloc_count() -
                                   allocs0 - probe_allocs);
  rep.alloc_bytes = static_cast<double>(
      obs::HostProfiler::process_alloc_bytes() - bytes0 - probe_bytes);
  rep.run_s = seconds_between(t2, t3) - probe_s;
  rep.run_speed = run_probe.speed();
  rep.sim_measured_s = sim::to_seconds(net.kernel().now() - sim_start);
  spans.record("setup", "rep", t0, t1);
  spans.record("measure", "rep", t2, t3);
  w->end_measure();
  rep.after = collect_counters(*w, prof);
  if (traced) {
    rep.labels = profiler.snapshot();
    obs::HostProfiler::uninstall();
  }

  const Clock::time_point t4 = Clock::now();
  w->drain();
  rep.outcome = w->outcome();
  w->check(rep.checks);
  spans.record("drain_and_check", "rep", t4, Clock::now());
  return rep;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// Peak resident set of this process image. VmHWM, not getrusage's
// ru_maxrss: the latter survives execve, so it would report the launching
// process's footprint whenever that was larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--quick") {
      args.quick = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(v);
    } else if (a == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--trace-out") {
      args.trace_out = v;
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

void print_value(const char* name, std::optional<double> value,
                 const std::string& unit, const std::string& note) {
  if (value.has_value()) {
    std::printf("  %-34s %14.6g %-6s %s\n", name, *value, unit.c_str(),
                note.c_str());
  } else {
    std::printf("  %-34s %14s %-6s %s\n", name, "n/a", unit.c_str(),
                note.c_str());
  }
}

void write_trace_dump(const Args& args, const SpanLog& spans,
                      const std::vector<obs::HostLabelStats>& labels,
                      const std::vector<LayerMetric>& layers) {
  std::FILE* f = std::fopen(args.trace_out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed));
  std::fprintf(f, "  \"spans\": [\n");
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const SpanLog::Span& s = spans.spans()[i];
    std::fprintf(f,
                 "    {\"rep\": %d, \"name\": \"%s\", \"parent\": \"%s\", "
                 "\"start_ms\": %.3f, \"end_ms\": %.3f}%s\n",
                 s.rep, s.name.c_str(), s.parent.c_str(), s.start_ms, s.end_ms,
                 i + 1 < spans.spans().size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"labels\": [\n");
  bool first = true;
  for (const obs::HostLabelStats& s : labels) {
    if (s.subsystem.empty() || s.calls == 0) continue;
    std::fprintf(
        f,
        "%s    {\"subsystem\": \"%s\", \"op\": \"%s\", \"calls\": %llu, "
        "\"total_ns\": %llu, \"self_ns\": %llu, \"max_ns\": %llu, "
        "\"alloc_count\": %llu, \"alloc_bytes\": %llu, "
        "\"events_scheduled\": %llu, \"events_dispatched\": %llu}",
        first ? "" : ",\n", s.subsystem.c_str(), s.op.c_str(),
        static_cast<unsigned long long>(s.calls),
        static_cast<unsigned long long>(s.total_ns),
        static_cast<unsigned long long>(s.self_ns),
        static_cast<unsigned long long>(s.max_ns),
        static_cast<unsigned long long>(s.alloc_count),
        static_cast<unsigned long long>(s.alloc_bytes),
        static_cast<unsigned long long>(s.events_scheduled),
        static_cast<unsigned long long>(s.events_dispatched));
    first = false;
  }
  std::fprintf(f, "\n  ],\n  \"layer_metrics\": {\n");
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerMetric& m = layers[i];
    std::fprintf(f, "    \"%s\": ", m.name.c_str());
    if (m.value.has_value()) {
      std::fprintf(f, "{\"value\": %.10g, \"unit\": \"%s\"}", *m.value,
                   m.unit.c_str());
    } else {
      std::fprintf(f, "{\"value\": null, \"unit\": \"%s\"}", m.unit.c_str());
    }
    std::fprintf(f, "%s\n", i + 1 < layers.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args) ||
      (args.workload != "attach_churn" && args.workload != "bulk_downlink" &&
       args.workload != "fleet_sync")) {
    std::fprintf(stderr,
                 "usage: scenario_bench --workload "
                 "attach_churn|bulk_downlink|fleet_sync --seed N --seconds S "
                 "--trace 0|1 [--quick] [--trace-out FILE]\n");
    return 2;
  }

  const Clock::time_point start = Clock::now();
  SpanLog spans(start);
  std::vector<Rep> reps;
  // Never start a repetition that could push the process past this wall
  // budget (the run must end well within three minutes).
  constexpr double kWallBudgetS = 120;
  double measured_s = 0;
  double first_rep_rss_mb = 0;
  int untraced = 0, traced = 0;
  for (int i = 0;; ++i) {
    const bool trace_this = args.trace && i % 2 == 1;
    spans.set_rep(i);
    const Clock::time_point rep_start = Clock::now();
    reps.push_back(run_rep(args, trace_this, spans));
    // Later repetitions reuse the allocator's freed memory but can raise
    // the high-water mark through fragmentation, by an amount that varies
    // with how many fit in the run; the first one from a fresh process is
    // what one deployment costs.
    if (i == 0) first_rep_rss_mb = peak_rss_mb();
    measured_s += reps.back().run_s;
    (trace_this ? traced : untraced) += 1;
    const bool enough = measured_s >= args.seconds &&
                        (args.trace ? untraced >= 2 && traced >= 2
                                    : untraced >= 3);
    if (enough) break;
    const double rep_s = seconds_between(rep_start, Clock::now());
    if (seconds_between(start, Clock::now()) + rep_s > kWallBudgetS &&
        untraced >= 1 && (!args.trace || traced >= 1)) {
      break;
    }
  }

  // --- correctness: checks and same-seed determinism -------------------
  bool correct = true;
  const std::uint64_t digest = reps.front().outcome.digest;
  for (const Rep& r : reps) {
    correct = correct && r.checks.all_ok() && r.outcome.digest == digest;
  }

  // --- end-to-end (untraced repetitions) -------------------------------
  // Host times are reported raw and corrected to the reference speed
  // (raw x the repetition's probe speed; see speed_probe.h). The result
  // JSON carries the corrected figures.
  // Slice quantiles are taken per repetition (each has 1000+ slices, so
  // p99 has 10+ beyond it) and their median reported, so one repetition
  // hit by a burst of host noise does not set the tail.
  std::vector<double> setup_raw, run_raw, setup_ref, run_ref, allocs,
      alloc_bytes, traced_run_ref;
  std::vector<double> p50_raw, p99_raw, p50_ref, p99_ref;
  std::size_t slice_count = 0;
  std::map<std::string, std::vector<double>> stage_ms;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    if (r.traced) {
      traced_run_ref.push_back(r.run_s * r.run_speed);
      continue;
    }
    setup_raw.push_back(r.setup_s);
    run_raw.push_back(r.run_s);
    setup_ref.push_back(r.setup_s * r.setup_speed);
    run_ref.push_back(r.run_s * r.run_speed);
    allocs.push_back(r.allocs);
    alloc_bytes.push_back(r.alloc_bytes);
    p50_raw.push_back(quantile(r.slice_ms, 0.50));
    p99_raw.push_back(quantile(r.slice_ms, 0.99));
    p50_ref.push_back(p50_raw.back() * r.run_speed);
    p99_ref.push_back(p99_raw.back() * r.run_speed);
    slice_count += r.slice_ms.size();
    for (const auto& [name, ms] : spans.stage_ms(static_cast<int>(i))) {
      stage_ms[name].push_back(ms * r.setup_speed);
    }
  }
  const Rep& first = reps.front();
  std::printf("scenario_bench workload=%s seed=%llu%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.quick ? " (quick size)" : "");
  std::printf("repetitions: %zu (untraced %d, traced %d); measured phase per "
              "repetition: %d slices x %.0f ms = %.1f simulated s\n",
              reps.size(), untraced, traced,
              static_cast<int>(first.slice_ms.size()),
              first.sim_measured_s * 1e3 /
                  static_cast<double>(first.slice_ms.size()),
              first.sim_measured_s);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    std::printf("  repetition %zu%s: setup %.4f s, run %.4f s raw; host speed "
                "%.3f / %.3f of reference\n",
                i, r.traced ? " (traced)" : "", r.setup_s, r.run_s,
                r.setup_speed, r.run_speed);
  }

  std::map<std::string, std::pair<double, std::string>> e2e;
  e2e["setup_s"] = {median(setup_ref), "s"};
  e2e["run_s"] = {median(run_ref), "s"};
  e2e["slice_ms_p50"] = {median(p50_ref), "ms"};
  e2e["slice_ms_p99"] = {median(p99_ref), "ms"};
  e2e["peak_rss_mb"] = {first_rep_rss_mb, "MB"};
  char note[160];
  std::printf("\nend-to-end (host, tracing off; at reference speed, raw in "
              "brackets):\n");
  std::snprintf(note, sizeof(note), "[%.6g] median of %zu repetitions",
                median(setup_raw), setup_raw.size());
  print_value("setup_s", e2e["setup_s"].first, "s", note);
  std::snprintf(note, sizeof(note), "[%.6g] median of %zu repetitions",
                median(run_raw), run_raw.size());
  print_value("run_s", e2e["run_s"].first, "s", note);
  std::snprintf(note, sizeof(note),
                "[%.6g] median over repetitions; n=%zu slices in all",
                median(p50_raw), slice_count);
  print_value("slice_ms_p50", e2e["slice_ms_p50"].first, "ms", note);
  std::snprintf(note, sizeof(note),
                "[%.6g] median over repetitions; n=%zu slices in all",
                median(p99_raw), slice_count);
  print_value("slice_ms_p99", e2e["slice_ms_p99"].first, "ms", note);
  std::snprintf(note, sizeof(note),
                "process peak resident set after the first repetition "
                "(%.6g after all)",
                peak_rss_mb());
  print_value("peak_rss_mb", e2e["peak_rss_mb"].first, "MB", note);

  std::printf("\nsimulated outcomes (repeat exactly for a seed):\n");
  const Outcome& out = first.outcome;
  for (const char* name :
       {"sim_attach_p50_ms", "sim_attach_p99_ms", "sim_dl_goodput_mbps",
        "sim_sync_lag_p99_s", "failed_ratio"}) {
    bool found = false;
    for (const SimMetric& m : out.metrics) {
      if (m.name != name) continue;
      std::snprintf(note, sizeof(note), "n=%llu",
                    static_cast<unsigned long long>(m.samples));
      print_value(name, m.value, m.unit, m.samples > 0 ? note : "");
      found = true;
    }
    if (!found) print_value(name, std::nullopt, "", "does not apply");
  }
  for (const SimMetric& m : out.metrics) {
    if (m.name.rfind("sim_", 0) == 0 &&
        m.name.find("attach_p") == std::string::npos &&
        m.name != "sim_dl_goodput_mbps" && m.name != "sim_sync_lag_p99_s") {
      std::snprintf(note, sizeof(note), "n=%llu",
                    static_cast<unsigned long long>(m.samples));
      print_value(m.name.c_str(), m.value, m.unit, note);
    }
  }
  std::printf("  %-34s %llu of %llu %s\n", "failed / attempted",
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted),
              out.failed_what.c_str());
  std::printf("  %-34s %016llx\n", "sim_digest",
              static_cast<unsigned long long>(digest));

  std::printf("\nchecks:\n");
  for (const Check& c : first.checks.items()) {
    std::printf("  [%s] %s\n", c.ok ? " ok " : "FAIL", c.what.c_str());
  }
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].outcome.digest != digest) {
      std::printf("  [FAIL] repetition %zu reproduced sim_digest %016llx\n", i,
                  static_cast<unsigned long long>(reps[i].outcome.digest));
    }
    for (const Check& c : reps[i].checks.items()) {
      if (!c.ok) {
        std::printf("  [FAIL] repetition %zu: %s\n", i, c.what.c_str());
      }
    }
  }
  std::printf("  [%s] every repetition reproduced sim_digest %016llx\n",
              correct ? " ok " : "FAIL",
              static_cast<unsigned long long>(digest));

  // --- per-layer (traced repetitions) ------------------------------------
  std::vector<LayerMetric> layers;
  if (args.trace) {
    UntracedHost host;
    host.run_s = median(run_ref);
    host.allocs = median(allocs);
    host.alloc_bytes = median(alloc_bytes);
    host.overhead_ratio = median(traced_run_ref) / median(run_ref);
    std::map<std::string, double> setup_ms;
    for (const auto& [name, values] : stage_ms) setup_ms[name] = median(values);
    // Median of each metric over the traced repetitions.
    std::vector<std::vector<LayerMetric>> per_rep;
    const Rep* last_traced = nullptr;
    for (const Rep& r : reps) {
      if (!r.traced) continue;
      per_rep.push_back(
          derive_layer_metrics(r.before, r.after, setup_ms, host, r.run_speed));
      last_traced = &r;
    }
    layers = per_rep.front();
    for (std::size_t k = 0; k < layers.size(); ++k) {
      if (!layers[k].value.has_value()) continue;
      std::vector<double> values;
      for (const auto& metrics : per_rep) values.push_back(*metrics[k].value);
      layers[k].value = median(values);
    }
    std::printf("\nper-layer (median of %d traced repetitions; measured phase "
                "unless noted):\n", traced);
    for (const LayerMetric& m : layers) {
      print_value(m.name.c_str(), m.value, m.unit, m.base);
    }
    if (!args.trace_out.empty()) {
      write_trace_dump(args, spans, last_traced->labels, layers);
      std::printf("trace dump: %s\n", args.trace_out.c_str());
    }
  }

  // --- machine-readable result ---------------------------------------------
  std::uint64_t attempted = 0, failed = 0;
  for (const Rep& r : reps) {
    attempted += r.outcome.attempted;
    failed += r.outcome.failed;
  }
  correct = correct && attempted > 0;
  std::string metrics;
  auto add_metric = [&metrics](const std::string& name, double value,
                               const std::string& unit) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), value,
                  unit.c_str());
    metrics += buf;
  };
  if (args.trace) {
    for (const LayerMetric& m : layers) {
      if (m.listed) add_metric(m.name, m.value.value_or(0.0), m.unit);
    }
  } else {
    for (const char* name :
         {"setup_s", "run_s", "slice_ms_p50", "slice_ms_p99", "peak_rss_mb"}) {
      add_metric(name, e2e[name].first, e2e[name].second);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted < 1 ? 1 : attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}
