#!/usr/bin/env python3
"""End-to-end benchmark of the FreeRider simulator.

Builds perfbench/ (the simulator libraries from src/ plus the
freerider_perf benchmark binary) in Release mode under .bench_build/, runs one
workload, checks its outputs against the golden digests in
perfbench/golden.json and prints every metric by name with its unit.
The last line of standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
    python3 perfbench/run.py --workload wifi_link --seed 1 --seconds 20 \\
        --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer metrics (and writes the spans to .bench_build/spans/).
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "freerider_perf")
WORKLOADS = ("wifi_link", "narrowband_link", "multitag_rounds",
             "campaign_sweep")
# Extra set-ups per run: setup_s is the median over these and the
# measured run's own set-up.
SETUP_RUNS = 8
# Hard limit on one freerider_perf invocation beyond the measured time.
RUN_SLACK_S = 90


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    log = sys.stderr
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=log, stderr=log,
                          check=False).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=log, stderr=log, check=False).returncode != 0:
        fail("build failed")


def run_binary(args, timeout_s):
    """Runs freerider_perf; returns its parsed JSON output."""
    cmd = [BINARY] + args + ["--t0-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s, check=False)
    except subprocess.TimeoutExpired:
        fail("freerider_perf did not finish within %d s" % timeout_s)
    if proc.returncode != 0:
        fail("freerider_perf exited with code %d" % proc.returncode,
             proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("freerider_perf printed nothing")
    return json.loads(lines[-1])


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int,
                        help="executor threads (default: 4 on "
                             "campaign_sweep, 1 elsewhere)")
    parser.add_argument("--expect-digest",
                        help="check against this digest instead of "
                             "golden.json")
    opts = parser.parse_args()
    if opts.seconds <= 0 or opts.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    build()
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    golden = load_json(os.path.join(HERE, "golden.json"))

    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", repr(opts.seconds)]
    if opts.threads is not None:
        args += ["--threads", str(opts.threads)]
    timeout_s = int(opts.seconds) + RUN_SLACK_S

    setups = []
    if not opts.trace:
        for _ in range(SETUP_RUNS):
            setups.append(run_binary(args + ["--setup-only"],
                                     timeout_s)["setup_s"])
    run_args = args + ["--trace", str(opts.trace)]
    if opts.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        run_args += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.tsv" % (opts.workload, opts.seed))]
    result = run_binary(run_args, timeout_s)

    env = result["env"]
    print("env: compiler=%s build=%s nproc=%d threads=%d" %
          (env["compiler"], env["build_type"], env["nproc"], env["threads"]))
    print("workload=%s seed=%d traced=%s ops=%d" %
          (opts.workload, opts.seed, bool(opts.trace), result["ops"]))

    attempted = result["attempted"]
    failed = result["failed"]
    correct = failed == 0 and not result["problems"]
    for problem in result["problems"]:
        print("check failed: " + problem)

    expected = opts.expect_digest or \
        golden.get(opts.workload, {}).get(str(opts.seed))
    digest = result["digest"]
    if expected is None:
        print("digest unverified: %s (no golden digest for seed %d)" %
              (digest, opts.seed))
    elif expected == digest:
        print("digest ok: %s over the first %d ops" %
              (digest, result["digest_ops"]))
    else:
        print("digest MISMATCH: got %s, golden %s" % (digest, expected))
        correct = False
        failed = attempted

    section = "per_layer" if opts.trace else "end_to_end"
    measured = result[section]
    if not opts.trace:
        setups.append(measured["setup_s"]["value"])
        measured["setup_s"]["value"] = statistics.median(setups)
        measured["op_ok_ratio"]["value"] = (attempted - failed) / attempted
    metrics = {}
    for m in spec[section]:
        if m["name"] not in measured or measured[m["name"]]["unit"] != m["unit"]:
            fail("metric %s (%s) not produced" % (m["name"], m["unit"]))
        metrics[m["name"]] = measured[m["name"]]
        value = measured[m["name"]]["value"]
        note = ""
        if m["name"] == "op_tail_ms":
            note = "  (median over %d windows of each one's p%g; %d ops)" % (
                result["tail_windows"], result["tail_percentile"],
                result["ops"])
        elif m["name"] == "setup_s":
            note = "  (median of %d set-ups)" % len(setups)
        print("%s = %.6g %s%s" % (m["name"], value, m["unit"], note))
    print("fail_ratio = %.6g (%d of %d ops)" %
          (failed / attempted, failed, attempted))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
