// End-to-end observability: one LTE attach must produce a single connected
// span tree crossing the AGW and the orchestrator, per-stage latency must
// land in metricsd histograms, and attach/log events must reach the
// orchestrator on the telemetry report — including the loss-tolerant
// behaviour under a backhaul outage.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/log.h"
#include "core/network.h"

namespace magma {
namespace {

class TracingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<core::Network>();
    agw_ = &net_->add_agw(agw::bare_metal_j3160());
    enb_ = &net_->add_enodeb(*agw_);
    net_->run_for(2 * sim::kSecond);
    ASSERT_TRUE(enb_->s1_ready());
  }

  ran::AttachOutcome attach_one() {
    const agw::SubscriberData sub = net_->provision_subscriber();
    net_->sync_all_config();
    ran::UeLte& ue = net_->add_ue_lte(sub);
    ran::AttachOutcome result;
    bool done = false;
    ue.attach(*enb_, [&](const ran::AttachOutcome& outcome) {
      result = outcome;
      done = true;
    });
    net_->run_for(20 * sim::kSecond);
    EXPECT_TRUE(done);
    return result;
  }

  // The trace id of the (single) attach root span.
  std::uint64_t attach_trace_id() {
    for (const obs::SpanRecord& span : net_->tracer().finished()) {
      if (span.name == "attach") return span.trace_id;
    }
    return 0;
  }

  std::unique_ptr<core::Network> net_;
  agw::AccessGateway* agw_ = nullptr;
  ran::EnodeB* enb_ = nullptr;
};

TEST_F(TracingTest, AttachYieldsConnectedSpanTreeAcrossNodes) {
  ASSERT_TRUE(attach_one().success);
  // Let magmad ship its report so the orc8r leg joins the tree.
  net_->run_for(10 * sim::kSecond);

  const std::uint64_t trace_id = attach_trace_id();
  ASSERT_NE(trace_id, 0u);
  const std::vector<obs::SpanRecord> spans =
      net_->tracer().trace_spans(trace_id);
  ASSERT_GE(spans.size(), 8u);

  // Connected: every non-root span's parent is in the same trace.
  std::set<std::uint64_t> ids;
  for (const obs::SpanRecord& span : spans) ids.insert(span.span_id);
  int roots = 0;
  for (const obs::SpanRecord& span : spans) {
    EXPECT_EQ(span.trace_id, trace_id);
    if (span.parent_span_id == 0) {
      ++roots;
    } else {
      EXPECT_TRUE(ids.contains(span.parent_span_id))
          << span.name << " has unknown parent";
    }
  }
  EXPECT_EQ(roots, 1);

  // Breadth: at least five services across both nodes.
  std::set<std::string> services;
  std::set<std::string> nodes;
  for (const obs::SpanRecord& span : spans) {
    services.insert(span.service);
    nodes.insert(span.node);
  }
  for (const char* svc : {"lte_frontend", "accessd", "mobilityd", "sessiond",
                          "pipelined", "rpc", "eventd"}) {
    EXPECT_TRUE(services.contains(svc)) << "missing service " << svc;
  }
  EXPECT_GE(services.size(), 5u);
  EXPECT_TRUE(nodes.contains("gw0"));
  EXPECT_TRUE(nodes.contains("orc8r"));

  // Stage nesting: the accessd stages are children of the attach root, and
  // allocate_ip/create_session sit under establish.
  std::map<std::string, const obs::SpanRecord*> by_name;
  for (const obs::SpanRecord& span : spans) by_name[span.name] = &span;
  const obs::SpanRecord* root = by_name.at("attach");
  EXPECT_EQ(by_name.at("begin_attach")->parent_span_id, root->span_id);
  EXPECT_EQ(by_name.at("verify_auth")->parent_span_id, root->span_id);
  EXPECT_EQ(by_name.at("establish")->parent_span_id, root->span_id);
  const obs::SpanRecord* establish = by_name.at("establish");
  EXPECT_EQ(by_name.at("allocate_ip")->parent_span_id, establish->span_id);
  EXPECT_EQ(by_name.at("create_session")->parent_span_id, establish->span_id);
  EXPECT_EQ(by_name.at("install_flows")->parent_span_id,
            by_name.at("create_session")->span_id);

  // Outcome tag on the root.
  const auto& tags = root->tags;
  EXPECT_TRUE(std::any_of(tags.begin(), tags.end(), [](const auto& kv) {
    return kv.first == "outcome" && kv.second == "success";
  }));
}

TEST_F(TracingTest, RpcClientServerSpansShowNetworkGap) {
  ASSERT_TRUE(attach_one().success);
  net_->run_for(10 * sim::kSecond);

  const std::vector<obs::SpanRecord> spans =
      net_->tracer().trace_spans(attach_trace_id());
  const obs::SpanRecord* client = nullptr;
  const obs::SpanRecord* server = nullptr;
  for (const obs::SpanRecord& span : spans) {
    if (span.name != "metricsd/Report") continue;
    if (span.kind == obs::SpanKind::kClient) client = &span;
    if (span.kind == obs::SpanKind::kServer) server = &span;
  }
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(client->node, "gw0");
  EXPECT_EQ(server->node, "orc8r");
  EXPECT_EQ(server->parent_span_id, client->span_id);
  // The server starts after the client by at least the one-way propagation
  // delay, and finishes before the client hears back.
  EXPECT_GT(server->start, client->start);
  EXPECT_GT(client->end, server->end);
}

TEST_F(TracingTest, StageLatencyHistogramsReachMetricsd) {
  ASSERT_TRUE(attach_one().success);
  // Past the next metrics tick (15 s interval).
  net_->run_for(20 * sim::kSecond);

  orc8r::Metricsd& metrics = net_->orchestrator().metrics();
  for (const char* name :
       {"span_lte_frontend_attach_s", "span_accessd_begin_attach_s",
        "span_accessd_verify_auth_s", "span_accessd_establish_s",
        "span_mobilityd_allocate_ip_s", "span_sessiond_create_session_s",
        "span_pipelined_install_flows_s"}) {
    EXPECT_GE(metrics.histogram_count(name), 1u) << name;
    EXPECT_GT(metrics.histogram_quantile(name, 0.5), 0.0) << name;
  }
  // The attach took at least the accessd CPU cost (0.5 s on this profile)
  // and the stage quantiles must sit below the whole-attach quantile.
  const double attach_p50 =
      metrics.histogram_quantile("span_lte_frontend_attach_s", 0.5);
  EXPECT_GT(attach_p50, 0.1);
  EXPECT_LT(metrics.histogram_quantile("span_mobilityd_allocate_ip_s", 0.5),
            attach_p50);
  EXPECT_GT(agw_->magmad().stats().metric_reports_sent, 0u);
  EXPECT_GT(agw_->magmad().stats().histogram_full_snapshots, 0u);
}

TEST_F(TracingTest, AttachAndWarnEventsReachOrchestrator) {
  ASSERT_TRUE(attach_one().success);
  MLOG_WARN("test_component") << "something odd happened";
  // Past the next metrics tick (15 s interval), which carries the events.
  net_->run_for(20 * sim::kSecond);

  orc8r::Orchestrator& orc8r = net_->orchestrator();
  const auto successes = orc8r.events_of_type("attach_success");
  ASSERT_EQ(successes.size(), 1u);
  EXPECT_EQ(successes[0].gateway_id, "gw0");
  EXPECT_EQ(successes[0].source, "lte_frontend");
  EXPECT_EQ(successes[0].trace.trace_id, attach_trace_id());

  const auto logs = orc8r.events_of_type("log");
  ASSERT_GE(logs.size(), 1u);
  EXPECT_TRUE(std::any_of(logs.begin(), logs.end(), [](const obs::Event& e) {
    return e.source == "test_component" &&
           e.message == "something odd happened" &&
           e.severity == obs::EventSeverity::kWarn;
  }));
}

TEST_F(TracingTest, BackhaulOutageDropsEventsWithoutBlocking) {
  ASSERT_TRUE(attach_one().success);
  net_->run_for(10 * sim::kSecond);
  const agw::MagmadStats before = agw_->magmad().stats();

  net_->set_backhaul_up(*agw_, false);
  // Generate far more events than the buffer holds while disconnected.
  const std::size_t capacity = agw_->events().capacity();
  for (std::size_t i = 0; i < capacity + 500; ++i) {
    MLOG_WARN("outage") << "warn " << i;
  }
  net_->run_for(60 * sim::kSecond);

  // Bounded and loss-tolerant: the buffer never exceeded its capacity, the
  // overflow was counted, reports (and the events riding them) were lost in
  // flight or shed at the backlogged channel, and the gateway kept running
  // (the kernel kept advancing — we got here).
  const agw::MagmadStats& during = agw_->magmad().stats();
  EXPECT_LE(agw_->events().size(), capacity);
  EXPECT_GT(agw_->events().dropped(), 0u);
  EXPECT_GT(during.metric_reports_lost + during.telemetry_sheds,
            before.metric_reports_lost + before.telemetry_sheds);
  EXPECT_EQ(during.metric_reports_sent, before.metric_reports_sent);

  // Service restored: shipping resumes. Up to a full buffer of outage
  // events queues ahead of the recovery log and each 15 s report drains at
  // most 512, so allow four ticks.
  net_->set_backhaul_up(*agw_, true);
  MLOG_WARN("recovery") << "back online";
  net_->run_for(60 * sim::kSecond);
  EXPECT_GT(agw_->magmad().stats().metric_reports_sent,
            before.metric_reports_sent);
  const auto logs = net_->orchestrator().events_of_type("log");
  EXPECT_TRUE(std::any_of(logs.begin(), logs.end(), [](const obs::Event& e) {
    return e.source == "recovery";
  }));
}

TEST_F(TracingTest, RejectedAttachTracedWithRejectOutcome) {
  agw::SubscriberData ghost;
  ghost.imsi = common::Imsi::from_digits(1010009999999ULL);
  ran::UeLte& ue = net_->add_ue_lte(ghost);
  bool done = false;
  ue.attach(*enb_, [&](const ran::AttachOutcome&) { done = true; });
  net_->run_for(20 * sim::kSecond);
  ASSERT_TRUE(done);

  const std::uint64_t trace_id = attach_trace_id();
  ASSERT_NE(trace_id, 0u);
  const std::vector<obs::SpanRecord> spans =
      net_->tracer().trace_spans(trace_id);
  const auto root = std::find_if(
      spans.begin(), spans.end(),
      [](const obs::SpanRecord& s) { return s.name == "attach"; });
  ASSERT_NE(root, spans.end());
  EXPECT_TRUE(std::any_of(
      root->tags.begin(), root->tags.end(), [](const auto& kv) {
        return kv.first == "outcome" && kv.second == "reject";
      }));

  net_->run_for(10 * sim::kSecond);
  EXPECT_EQ(net_->orchestrator().events_of_type("attach_reject").size(), 1u);
}

}  // namespace
}  // namespace magma
