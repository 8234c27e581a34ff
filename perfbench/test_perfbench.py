"""Self-tests for the serving benchmark.

    python3 -m unittest discover -s perfbench

Builds the driver on first use (like run.py) and runs every workload for
one second.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Per-layer counters and shares that a healthy run may leave at 0, and
# tracing's cost, which may round to it.  Every other metric that applies
# to a workload must read non-zero.
MAY_BE_ZERO = {
    "runtime.backoffs", "runtime.quarantines", "runtime.recalibrations",
    "runtime.shadow_share", "runtime.shadowed_latency_p50_ms",
    "serve.rejected", "serve.deadline_expired", "serve.degraded_share",
    "serve.coalesced_share", "store.misses", "vm.cache_hits",
    "net.requeues", "net.routed_imbalance", "plane.redundant",
    "plane.exact_share", "trace.overhead_pct",
}


class HelperTests(unittest.TestCase):
    def test_driver_selftest(self):
        os.chdir(run.ROOT)
        driver = run.build()
        self.assertIsNotNone(driver, "driver build failed")
        proc = subprocess.run([driver, "--selftest"], stdout=subprocess.PIPE,
                              text=True)
        self.assertEqual(proc.returncode, 0)
        self.assertIn("selftest ok", proc.stdout)

    def test_metric_names(self):
        run.check_names()
        for good in ("latency_p50_ms", "vm.exec_us_p99", "a-b.c_d", "9x"):
            self.assertTrue(run.NAME_RE.match(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, "é"):
            self.assertFalse(run.NAME_RE.match(bad), bad)

    def test_manifest_is_current(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as existing:
            self.assertEqual(json.load(existing), run.manifest())

    def test_manifest_limits(self):
        spec = run.manifest()
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(all(len(w["why"]) <= 200 for w in spec["workloads"]))
        self.assertTrue(all(m["bound"] <= 0.25 for m in spec["end_to_end"]))
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)


class TinyWorkloadTests(unittest.TestCase):
    def run_tiny(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", "7", "--seconds", "1",
             "--trace", str(trace), "--tiny"],
            cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        return result["metrics"]

    def test_all_workloads_pass_the_gate(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.run_tiny(workload, 0)
                self.assertEqual(metrics["ok_share"]["value"], 1.0)
                self.assertGreater(metrics["throughput_rps"]["value"], 0)
                self.assertEqual(sorted(metrics),
                                 sorted(m[0] for m in run.END_TO_END))

    def test_traced_runs_account_for_end_to_end_time(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.run_tiny(workload, 1)
                self.assertEqual(sorted(metrics),
                                 sorted(m[0] for m in run.PER_LAYER))
                applicable = [m[0] for m in run.PER_LAYER if workload in m[3]]
                zero = [name for name in applicable
                        if name not in MAY_BE_ZERO
                        and metrics[name]["value"] == 0]
                self.assertEqual(zero, [], "applicable metrics read 0")
                # End-to-end time is measured apart from the spans; the
                # layers must fit inside it and explain most of it.
                e2e = metrics["self.e2e_ms"]["value"]
                layers = sum(metrics[name]["value"] for name in applicable
                             if name.startswith("self.")
                             and name not in ("self.e2e_ms",
                                              "self.unattributed_ms"))
                unattributed = metrics["self.unattributed_ms"]["value"]
                self.assertAlmostEqual(layers + unattributed, e2e,
                                       delta=1e-9 + 1e-9 * e2e)
                self.assertGreater(unattributed, -0.01 * e2e)
                self.assertGreater(layers, 0.5 * e2e)
                if workload == "fleet_drift":
                    self.assertEqual(metrics["plane.sweeps"]["value"], 3)
                    self.assertEqual(metrics["plane.redundant"]["value"], 0)

    def test_applicability_names_known_workloads(self):
        for name, _, _, workloads in run.PER_LAYER:
            self.assertTrue(set(workloads) <= set(run.WORKLOADS), name)


if __name__ == "__main__":
    unittest.main()
