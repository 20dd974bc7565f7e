#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Run from the repository root:

    python3 perfbench/test_perfbench.py

Each workload runs briefly, untraced and traced, through run.py (the
first run builds the benchmark, which takes a minute or two).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("wifi_link", "narrowband_link", "multitag_rounds",
             "campaign_sweep")
# A seed with golden digests in golden.json.
GOLDEN_SEED = 1


def bench(workload, trace, *extra, env=None, cwd=ROOT, script=RUN):
    """Runs the benchmark; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed",
         str(GOLDEN_SEED), "--seconds", "1", "--trace", str(trace)] +
        list(extra),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=cwd, env=env, check=False)
    return proc.returncode, proc.stdout.strip().splitlines()


def digest_line(lines):
    return next(line for line in lines if line.startswith("digest "))


class BenchmarkTest(unittest.TestCase):
    spec = None
    runs = {}

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        for workload in WORKLOADS:
            for trace in (0, 1):
                code, lines = bench(workload, trace)
                if code != 0 or not lines:
                    raise RuntimeError("%s --trace %d exited with %d" %
                                       (workload, trace, code))
                cls.runs[workload, trace] = (lines, json.loads(lines[-1]))

    def check_metrics(self, section, trace):
        for workload in WORKLOADS:
            lines, result = self.runs[workload, trace]
            with self.subTest(workload=workload):
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"], lines)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                expected = {m["name"]: m["unit"] for m in self.spec[section]}
                got = {name: m["unit"]
                       for name, m in result["metrics"].items()}
                self.assertEqual(got, expected)
                for m in self.spec[section]:
                    self.assertIn("%s = " % m["name"], "\n".join(lines))
                self.assertTrue(digest_line(lines).startswith("digest ok"))

    def test_untraced_run_emits_every_end_to_end_metric(self):
        self.check_metrics("end_to_end", 0)
        for workload in WORKLOADS:
            metrics = self.runs[workload, 0][1]["metrics"]
            with self.subTest(workload=workload):
                self.assertEqual(metrics["op_ok_ratio"]["value"], 1.0)
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_traced_run_emits_every_per_layer_metric(self):
        self.check_metrics("per_layer", 1)

    def test_link_shares_account_for_the_whole_op(self):
        for workload in ("wifi_link", "narrowband_link"):
            metrics = self.runs[workload, 1][1]["metrics"]
            shares = [m["value"] for name, m in metrics.items()
                      if name.endswith(".share")]
            with self.subTest(workload=workload):
                self.assertAlmostEqual(sum(shares), 1.0, places=6)
                self.assertLess(metrics["bench.glue.share"]["value"], 0.1)

    def test_only_the_exercised_phy_is_traced(self):
        wifi = self.runs["wifi_link", 1][1]["metrics"]
        narrow = self.runs["narrowband_link", 1][1]["metrics"]
        self.assertGreater(wifi["phy80211.rx.calls"]["value"], 0)
        self.assertEqual(wifi["phy802154.rx.share"]["value"], 0)
        self.assertEqual(narrow["phy80211.rx.calls"]["value"], 0)
        self.assertGreater(narrow["phy802154.rx.share"]["value"], 0)
        self.assertGreater(narrow["phyble.rx.share"]["value"], 0)

    def test_tracing_only_observes(self):
        for workload in WORKLOADS:
            untraced = digest_line(self.runs[workload, 0][0]).split()[2]
            traced = digest_line(self.runs[workload, 1][0]).split()[2]
            with self.subTest(workload=workload):
                self.assertEqual(traced, untraced)

    def test_wrong_golden_digest_fails_every_op(self):
        code, lines = bench("wifi_link", 0, "--expect-digest",
                            "0123456789abcdef")
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["op_ok_ratio"]["value"], 0.0)
        self.assertTrue(digest_line(lines).startswith("digest MISMATCH"))

    def test_seed_without_golden_digest_says_unverified(self):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "wifi_link", "--seed", "5",
             "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            cwd=ROOT, check=True)
        lines = proc.stdout.strip().splitlines()
        self.assertTrue(digest_line(lines).startswith("digest unverified"))
        self.assertTrue(json.loads(lines[-1])["correct"])

    def test_refuses_a_different_program(self):
        for name in ("FREERIDER_PHY_SCALAR", "FREERIDER_RNG_LEGACY_MODULO",
                     "FREERIDER_CHAOS", "FREERIDER_CRASH_AFTER_N_TASKS"):
            env = dict(os.environ, **{name: "1"})
            with self.subTest(env=name):
                code, lines = bench("wifi_link", 0, env=env)
                self.assertNotEqual(code, 0)
                self.assertEqual(lines, [])

    def test_fails_without_the_simulator_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, lines = bench("wifi_link", 0, cwd=bare,
                                script=os.path.join(bare, "perfbench",
                                                    "run.py"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
