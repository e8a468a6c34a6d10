#!/usr/bin/env python3
"""Tests for tools/obs/compare_bench.py: direction-aware tolerance,
missing-key handling, and regression detection — the logic that gates the
perf trajectory (CI perf-smoke leg, DESIGN.md §15).

Runs the tool in-process (imported by path) against temp-file baselines so
exit codes and stdout are exercised exactly as CI sees them.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(REPO_ROOT, "tools", "obs", "compare_bench.py")

spec = importlib.util.spec_from_file_location("compare_bench", TOOL)
compare_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_bench)


def doc(result, bench="wire", host=None):
    d = {"schema": 1, "bench": bench, "result": result}
    if host is not None:
        d["host"] = host
    return d


def host(machine="x86_64", cpus=4):
    return {"sysname": "Linux", "release": "6.1", "machine": machine,
            "hardware_concurrency": cpus}


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)

    def write(self, name, payload):
        path = os.path.join(self._tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        return path

    def run_tool(self, base, cur, *flags):
        argv = ["compare_bench.py", base, cur] + list(flags)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = compare_bench.main(argv)
        return rc, out.getvalue()

    # ---------------------------------------------------- direction logic

    def test_throughput_drop_is_a_regression(self):
        base = self.write("b.json", doc({"frames_per_sec": 1000.0}))
        cur = self.write("c.json", doc({"frames_per_sec": 500.0}))
        rc, out = self.run_tool(base, cur, "--strict")
        self.assertEqual(rc, 1)
        self.assertIn("REGRESSION", out)

    def test_throughput_rise_is_not_a_regression(self):
        base = self.write("b.json", doc({"frames_per_sec": 1000.0}))
        cur = self.write("c.json", doc({"frames_per_sec": 5000.0}))
        rc, out = self.run_tool(base, cur, "--strict")
        self.assertEqual(rc, 0)
        self.assertIn("no regressions", out)

    def test_cost_metric_rise_is_a_regression(self):
        # syscalls_per_frame is lower-is-better: the same +100% delta that
        # is fine for throughput must flag here.
        base = self.write("b.json", doc({"send_syscalls_per_frame": 0.01}))
        cur = self.write("c.json", doc({"send_syscalls_per_frame": 0.02}))
        rc, out = self.run_tool(base, cur, "--strict")
        self.assertEqual(rc, 1)
        self.assertIn("REGRESSION", out)

    def test_cost_metric_drop_is_an_improvement(self):
        base = self.write("b.json", doc({"send_syscalls_per_frame": 0.02}))
        cur = self.write("c.json", doc({"send_syscalls_per_frame": 0.01}))
        rc, _ = self.run_tool(base, cur, "--strict")
        self.assertEqual(rc, 0)

    def test_undirected_metric_never_flags(self):
        base = self.write("b.json", doc({"threads": 2.0}))
        cur = self.write("c.json", doc({"threads": 64.0}))
        rc, out = self.run_tool(base, cur, "--strict")
        self.assertEqual(rc, 0)
        self.assertNotIn("REGRESSION", out)

    # ---------------------------------------------------------- tolerance

    def test_drift_within_tolerance_passes(self):
        base = self.write("b.json", doc({"frames_per_sec": 1000.0}))
        cur = self.write("c.json", doc({"frames_per_sec": 850.0}))
        rc, _ = self.run_tool(base, cur, "--strict")  # -15% < 20% default
        self.assertEqual(rc, 0)

    def test_tolerance_flag_tightens_the_gate(self):
        base = self.write("b.json", doc({"frames_per_sec": 1000.0}))
        cur = self.write("c.json", doc({"frames_per_sec": 850.0}))
        rc, _ = self.run_tool(base, cur, "--strict", "--tolerance=0.10")
        self.assertEqual(rc, 1)

    def test_non_strict_reports_but_exits_zero(self):
        base = self.write("b.json", doc({"frames_per_sec": 1000.0}))
        cur = self.write("c.json", doc({"frames_per_sec": 1.0}))
        rc, out = self.run_tool(base, cur)  # warn-only, like perf-smoke
        self.assertEqual(rc, 0)
        self.assertIn("REGRESSION", out)

    # ------------------------------------------------------- missing keys

    def test_metric_gone_warns_without_failing(self):
        base = self.write("b.json", doc({"frames_per_sec": 1000.0,
                                         "mb_per_sec": 80.0}))
        cur = self.write("c.json", doc({"frames_per_sec": 1000.0}))
        rc, out = self.run_tool(base, cur, "--strict")
        self.assertEqual(rc, 0)
        self.assertIn("metric gone: mb_per_sec", out)

    def test_new_metric_in_current_is_ignored(self):
        base = self.write("b.json", doc({"frames_per_sec": 1000.0}))
        cur = self.write("c.json", doc({"frames_per_sec": 1000.0,
                                        "brand_new": 5.0}))
        rc, out = self.run_tool(base, cur, "--strict")
        self.assertEqual(rc, 0)
        self.assertNotIn("brand_new", out)

    def test_nested_result_leaves_are_compared(self):
        base = self.write("b.json", doc({"batch": {"frames_per_sec": 100.0}}))
        cur = self.write("c.json", doc({"batch": {"frames_per_sec": 10.0}}))
        rc, out = self.run_tool(base, cur, "--strict")
        self.assertEqual(rc, 1)
        self.assertIn("batch.frames_per_sec", out)

    # ---------------------------------------------------------- host kind

    def test_unlike_cpu_count_flags_no_regression(self):
        # A 1-CPU baseline against a 4-CPU run: the drift prints, but even
        # --strict flags nothing, and the output says why.
        base = self.write("b.json", doc({"frames_per_sec": 2400000.0},
                                        host=host(cpus=1)))
        cur = self.write("c.json", doc({"frames_per_sec": 900000.0},
                                       host=host(cpus=4)))
        rc, out = self.run_tool(base, cur, "--strict")
        self.assertEqual(rc, 0)
        self.assertNotIn("REGRESSION", out)
        self.assertIn("unlike hosts (hardware_concurrency 1 -> 4)", out)
        self.assertIn("frames_per_sec", out)
        self.assertIn("another kind of host", out)

    def test_unlike_machine_flags_no_regression(self):
        base = self.write("b.json", doc({"send_syscalls_per_frame": 0.01},
                                        host=host(machine="x86_64")))
        cur = self.write("c.json", doc({"send_syscalls_per_frame": 0.5},
                                       host=host(machine="aarch64")))
        rc, out = self.run_tool(base, cur, "--strict")
        self.assertEqual(rc, 0)
        self.assertNotIn("REGRESSION", out)
        self.assertIn("machine x86_64 -> aarch64", out)

    def test_like_hosts_still_flag(self):
        # Only machine and CPU count decide comparability; a kernel
        # release bump does not.
        other_release = dict(host(), release="6.18")
        base = self.write("b.json", doc({"frames_per_sec": 1000.0},
                                        host=host()))
        cur = self.write("c.json", doc({"frames_per_sec": 500.0},
                                       host=other_release))
        rc, out = self.run_tool(base, cur, "--strict")
        self.assertEqual(rc, 1)
        self.assertIn("REGRESSION", out)
        self.assertNotIn("unlike hosts", out)

    # ------------------------------------------------------- input errors

    def test_missing_result_object_is_a_usage_error(self):
        base = self.write("b.json", {"schema": 1, "bench": "wire"})
        cur = self.write("c.json", doc({"frames_per_sec": 1.0}))
        rc, out = self.run_tool(base, cur)
        self.assertEqual(rc, 2)
        self.assertIn("FAIL", out)

    def test_missing_file_is_a_usage_error(self):
        cur = self.write("c.json", doc({"frames_per_sec": 1.0}))
        rc, _ = self.run_tool(os.path.join(self._tmp.name, "nope.json"), cur)
        self.assertEqual(rc, 2)

    def test_wrong_arg_count_is_a_usage_error(self):
        rc = compare_bench.main(["compare_bench.py", "only_one.json"])
        self.assertEqual(rc, 2)

    def test_bench_name_mismatch_warns(self):
        base = self.write("b.json", doc({"frames_per_sec": 1.0}, bench="a"))
        cur = self.write("c.json", doc({"frames_per_sec": 1.0}, bench="b"))
        rc, out = self.run_tool(base, cur, "--strict")
        self.assertEqual(rc, 0)
        self.assertIn("WARN: comparing bench", out)


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0]])
