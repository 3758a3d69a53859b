#!/usr/bin/env python3
"""Repository benchmark: build the perfbench package and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds the flashqos libraries and the benchmark binary from
this checkout (into .bench_build/), runs one workload and relays its output;
the last line of standard output is the JSON result. --trace 1 reports the
per-layer metrics instead of the end-to-end ones. --smoke runs every
workload at tiny scale in both modes and checks that each prints every
metric with its unit and passes every gate. See perfbench/README.md.
"""
import argparse
import json
import os
import shlex
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "flashqos_perfbench")
WORKLOADS = ["exchange_online_file", "tpce_aligned_fim", "onoff_overload", "daemon_wire"]
# Every end-to-end metric the plain run prints, with its unit; the wire
# round-trip percentiles exist on daemon_wire only.
END_TO_END = {
    "throughput_mreq_s": "Mreq/s", "setup_s": "s", "peak_rss_mb": "MB",
    "sim_response_p99_ms": "ms", "sim_e2e_p50_ms": "ms", "sim_e2e_p99_ms": "ms",
    "deferred_pct": "%", "deadline_miss_pct": "%", "failed_pct": "%",
}
WIRE_ONLY = {"rtt_p50_us": "us", "rtt_p99_us": "us"}
RUN_TIMEOUT_S = 160


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. False when the sources are
    missing or the build fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no flashqos sources next to perfbench/; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "flashqos_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build step failed: " + shlex.join(cmd))
            return False
    return True


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def run_binary(args, command, relay=True):
    """Run the benchmark binary; returns (exit code, stdout lines). A run
    that outlives RUN_TIMEOUT_S (a stalled wire session, say) is killed
    (its forked probe process dies with it) and reported as failed with
    code 3; its partial output is relayed to stderr so no result line
    reaches stdout."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT, "--commit", commit(), "--command", command]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        partial = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        log(partial.rstrip("\n"))
        log(f"perfbench: run killed after {RUN_TIMEOUT_S} s")
        return 3, []
    if relay:
        print(proc.stdout, end="", flush=True)
    return proc.returncode, proc.stdout.splitlines()


def smoke():
    """Every workload at tiny scale, both modes: every metric named with its
    unit, every gate passed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1, trace=trace,
                                      tiny=True)
            code, lines = run_binary(args, "run.py --smoke", relay=False)
            printed = {}
            for line in lines:
                parts = line.split()
                if len(parts) == 4 and parts[0] == "metric":
                    printed[parts[1]] = parts[3]
            want = per_layer if trace else dict(
                END_TO_END, **(WIRE_ONLY if workload == "daemon_wire" else {}))
            missing = [n for n, u in want.items() if printed.get(n) != u]
            try:
                result = json.loads(lines[-1])
                correct = result["correct"] is True and result["failed"] == 0
                judged = {n: m["unit"] for n, m in result["metrics"].items()}
            except (IndexError, ValueError, KeyError, TypeError):
                correct, judged = False, {}
            spec_names = per_layer if trace else {
                m["name"]: m["unit"] for m in spec["end_to_end"]}
            json_ok = judged == spec_names
            passed = code == 0 and correct and not missing and json_ok
            ok = ok and passed
            print(f"smoke {workload:22s} trace={trace} "
                  f"{'ok' if passed else 'FAILED'}"
                  + (f" missing={missing}" if missing else "")
                  + ("" if json_ok else " json-metrics-mismatch")
                  + ("" if correct else " gates-failed"), flush=True)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test scale")
    parser.add_argument("--smoke", action="store_true", help="run the smoke test")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if not build():
        return 2
    if args.smoke:
        return 0 if smoke() else 1
    command = shlex.join(["python3", "perfbench/run.py"] + sys.argv[1:])
    code, _ = run_binary(args, command)
    return code


if __name__ == "__main__":
    sys.exit(main())
