#!/usr/bin/env python3
"""Quick-mode tests of the scenario benchmark.

    python3 scenario_bench/test_quick.py

Runs every workload at reduced size through run.py, untraced and traced,
and checks that: the workload's correctness checks pass; a second process
with the same seed prints the same sim_digest; a held-out seed passes too;
every metric name the benchmark defines appears in the output, with a value
or n/a; and run.py fails cleanly in a directory that holds only the
benchmark's own files.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("attach_churn", "bulk_downlink", "fleet_sync")
SEED, HELD_OUT_SEED = 5, 6

# Printed by every workload, with a value or n/a.
SIM_METRICS = ["sim_attach_p50_ms", "sim_attach_p99_ms", "sim_dl_goodput_mbps",
               "sim_sync_lag_p99_s", "failed_ratio"]
# Every per-layer metric of the traced report, listed in BENCHMARK.json or
# not.
LAYER_METRICS = [
    "sim.events", "sim.host_ns_per_event", "sim.queue_hwm",
    "sim.closure_heap_fallbacks", "sim.dispatch_self_ms",
    "sim.link_transmit_self_ms", "sim.cpu_control_busy_s",
    "sim.cpu_user_busy_s", "accessd.attach_started",
    "accessd.attach_rejected", "accessd.overload_rejections",
    "accessd.detaches", "accessd.dispatch_us_per_attach",
    "sessiond.sessions_created", "sessiond.quota_requests",
    "pipelined.sessions_installed", "pipelined.sessions_removed",
    "agw.up_offered_batches", "agw.up_dropped_overload_bytes",
    "datapath.batches", "datapath.process_batch_self_ms",
    "datapath.ns_per_batch", "datapath.slow_walk_self_ms",
    "datapath.cache_hit_ratio", "datapath.flow_entries",
    "magmad.apply_full_self_ms", "magmad.apply_delta_self_ms",
    "magmad.checkpoints_shipped", "magmad.telemetry_sheds",
    "magmad.sync_failures", "streamer.desired_update_self_ms",
    "streamer.serialize_full_self_ms", "streamer.full_serializations",
    "streamer.delta_entries_sent", "orc8r.checkin_self_ms",
    "orc8r.checkpoints_stored", "ingest.pump_self_ms", "ingest.shed",
    "store.writes", "store.wal_records", "rpc.calls", "rpc.encode_self_ms",
    "rpc.dispatch_self_ms", "rpc.decode_self_ms", "rpc.allocs_per_call",
    "net.transmit_self_ms", "net.on_segment_self_ms", "net.retransmits",
    "ran.dl_dropped_radio_bytes", "ran.rrc_rejects_capacity", "host.allocs",
    "host.alloc_bytes", "host.allocs_per_event", "trace.overhead_ratio",
    "setup.provision_ms", "setup.sync_ms", "setup.attach_ms",
]


def run(workload, seed, trace, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--quick"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


def parse(proc):
    lines = proc.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-1]), proc.stdout


def digest_of(stdout):
    m = re.search(r"^\s*sim_digest\s+([0-9a-f]+)$", stdout, re.M)
    return m.group(1) if m else None


def printed_metric(stdout, name):
    """The value column of a report line, or None when absent."""
    m = re.search(rf"^\s*{re.escape(name)}\s+(\S+)", stdout, re.M)
    return m.group(1) if m else None


class QuickBenchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(WORKLOADS))
        listed = {m["name"] for m in self.spec["per_layer"]}
        self.assertTrue(listed.issubset(LAYER_METRICS))

    def test_untraced_checks_digest_and_metrics(self):
        names = [m["name"] for m in self.spec["end_to_end"]]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, SEED, 0)
                result, out = parse(first)
                self.assertEqual(first.returncode, 0, out[-2000:])
                self.assertTrue(result["correct"])
                self.assertEqual(sorted(result["metrics"]), sorted(names))
                for name in names:
                    self.assertGreater(result["metrics"][name]["value"], 0)
                    self.assertIsNotNone(printed_metric(out, name))
                for name in SIM_METRICS:
                    self.assertIsNotNone(printed_metric(out, name), name)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)

                again = run(workload, SEED, 0)
                self.assertEqual(again.returncode, 0)
                self.assertEqual(digest_of(out), digest_of(again.stdout))

                held_out = run(workload, HELD_OUT_SEED, 0)
                held_result, held_stdout = parse(held_out)
                self.assertEqual(held_out.returncode, 0, held_stdout[-2000:])
                self.assertTrue(held_result["correct"])
                self.assertNotEqual(digest_of(out), digest_of(held_stdout))

    def test_traced_reports_every_layer_metric(self):
        listed = [m["name"] for m in self.spec["per_layer"]]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, SEED, 1)
                result, out = parse(proc)
                self.assertEqual(proc.returncode, 0, out[-2000:])
                self.assertTrue(result["correct"])
                self.assertEqual(sorted(result["metrics"]), sorted(listed))
                for name in LAYER_METRICS:
                    self.assertIsNotNone(printed_metric(out, name), name)
                self.assertGreater(
                    result["metrics"]["trace.overhead_ratio"]["value"], 0)
                dump = os.path.join(ROOT, ".bench_build", "scenario_bench",
                                    "traces", f"{workload}_seed{SEED}.json")
                with open(dump) as f:
                    trace = json.load(f)
                self.assertTrue(trace["spans"])
                self.assertTrue(trace["labels"])

    def test_fails_without_the_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("attach_churn", SEED, 0, cwd=bare,
                   script=os.path.join(bare, os.path.basename(HERE), "run.py"))
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
