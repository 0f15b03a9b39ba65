#!/usr/bin/env python3
"""Build and run the scenario benchmark.

    python3 scenario_bench/run.py --workload attach_churn --seed 1 \
        --seconds 10 --trace 0

Builds the magma library and the scenario_bench binary from this checkout's
sources into .bench_build/scenario_bench (first run only; later runs are
incremental no-ops), runs one workload, and prints the binary's report. The
last line of standard output is the result JSON:
{"correct", "attempted", "failed", "metrics"}.

Besides the binary's own checks (every repetition in one process must
reproduce the same sim_digest), this wrapper remembers the digest of each
(workload, seed, size) per built binary and fails a later run of the same
binary whose digest differs: same seed, same simulated results, across
processes too. With --trace 1 the spans and profiler labels are dumped to
.bench_build/scenario_bench/traces/.

Exit codes: 0 correct, 1 a check or the digest failed, 2 the benchmark could
not build or run.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "scenario_bench")
BINARY = os.path.join(BUILD, "scenario_bench")
WORKLOADS = ("attach_churn", "bulk_downlink", "fleet_sync")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no magma sources under {ROOT}/src; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only the report.
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as err:
            die(f"build failed: {err}")


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_digest(key, digest):
    """Compare against the digest this binary produced for `key` before."""
    path = os.path.join(BUILD, "digests.json")
    binary = file_sha256(BINARY)
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    seen = known.get(key)
    if seen and seen.get("binary") == binary and seen.get("digest") != digest:
        print(f"  [FAIL] sim_digest {digest} differs from {seen['digest']} "
              f"of an earlier run of this binary with the same seed")
        return False
    known[key] = {"binary": binary, "digest": digest}
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}_seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as err:
        die(f"benchmark did not finish: {err}")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(proc.stdout, end="")
        die(f"no result line (exit code {proc.returncode})")
    for line in lines[:-1]:
        print(line)

    digest = next((line.split()[-1] for line in lines
                   if line.strip().startswith("sim_digest")), None)
    correct = (proc.returncode == 0 and result.get("correct") is True
               and digest is not None)
    size = "quick" if args.quick else "full"
    if digest is not None:
        correct = check_digest(f"{args.workload}/{args.seed}/{size}",
                               digest) and correct
    out = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }
    print(json.dumps(out))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
