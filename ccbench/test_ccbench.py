"""Tests of the ccAI benchmark itself.

Run from the repository root:

    python3 -m unittest ccbench/test_ccbench.py

They drive ccbench/run.py end to end (the first call builds), with
one-second runs: a run still makes at least three passes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
# Seed that was not used while the benchmark was tuned.
HELD_OUT_SEED = 987654321

# Per-layer metrics on the host clock; every other metric is a count
# or a simulated value and must repeat exactly for a given seed.
HOST_PREFIXES = ("host.", "trace.", "share.", "self.")
HOST_METRICS = {
    "setup_s", "wall_ref", "peak_rss_mb",
    "ccai.platform_build_s", "trust.establish_s", "crypto.powmod_ms",
    "llm.model_load_s", "llm.secure_request_ms_p50",
    "llm.vanilla_request_ms_p50", "tvm.h2d_ms_per_mib",
    "tvm.d2h_ms_per_mib", "crypto.hmac_ns", "crypto.gcm_seal_mbps",
    "crypto.gcm_open_mbps", "sc.classify_ns", "sim.host_ns_per_event",
    "sim.event_ns", "serve.router_pick_us", "serve.admit_ns",
}


def is_host_metric(name):
    return (name in HOST_METRICS or name.startswith(HOST_PREFIXES)
            or name.endswith(".host_s"))


def run(workload, seed, trace, *extra, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = (json.loads(lines[-1])
              if lines and lines[-1].startswith("{") else None)
    return proc, result


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def assert_clean(self, proc, result):
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
        self.assertIsNotNone(result)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_same_seed_repeats_sim_and_count_metrics(self):
        for workload in ("secure-copy", "serve-fleet", "llm-decode"):
            with self.subTest(workload=workload):
                a = [run(workload, 11, trace) for trace in (0, 1)]
                b = [run(workload, 11, trace) for trace in (0, 1)]
                for (pa, ra), (pb, rb) in zip(a, b):
                    self.assert_clean(pa, ra)
                    self.assert_clean(pb, rb)
                    va, vb = values(ra), values(rb)
                    for name in va:
                        if not is_host_metric(name):
                            self.assertEqual(va[name], vb[name], name)

    def test_held_out_seed_passes_every_check(self):
        for workload in ("llm-decode", "secure-copy", "serve-fleet"):
            with self.subTest(workload=workload):
                proc, result = run(workload, HELD_OUT_SEED, 0)
                self.assert_clean(proc, result)

    def test_corrupted_readback_compare_is_a_failed_operation(self):
        proc, result = run("secure-copy", 3, 0, "--corrupt-compare")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("read back different bytes", proc.stdout)

    def test_printed_metrics_match_benchmark_json(self):
        want = {0: [m["name"] for m in self.spec["end_to_end"]],
                1: [m["name"] for m in self.spec["per_layer"]]}
        units = {m["name"]: m["unit"] for m in
                 self.spec["end_to_end"] + self.spec["per_layer"]}
        for trace in (0, 1):
            proc, result = run("serve-fleet", 5, trace)
            self.assert_clean(proc, result)
            self.assertEqual(list(result["metrics"]), want[trace])
            for name, m in result["metrics"].items():
                self.assertEqual(m["unit"], units[name], name)
        self.assertTrue(os.path.exists(os.path.join(
            ROOT, ".bench_out", "trace-serve-fleet-5.json")))

    def test_fails_without_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "ccbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc, result = run("serve-fleet", 1, 0, cwd=tmp,
                               script=os.path.join(tmp, "ccbench",
                                                   "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
