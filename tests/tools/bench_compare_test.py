#!/usr/bin/env python3
"""Tests for tools/bench_compare.py: results equal to the committed
baseline pass silently, advisory drift warns with exit 0, and drift of
virtual_mrpc_per_sec beyond 0.5 % is a hard error with exit 1.

Usage: python3 tests/tools/bench_compare_test.py
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SCRIPT = os.path.join(ROOT, "tools", "bench_compare.py")
MANIFEST = os.path.join(ROOT, "tools", "bench_compare.json")
BASELINE = os.path.join(ROOT, "BENCH_simperf.json")


def baseline_results():
    """Result files whose every compared key equals its baseline."""
    with open(MANIFEST) as f:
        manifest = json.load(f)
    with open(BASELINE) as f:
        baseline = json.load(f)
    results = {}
    for table in manifest["tables"]:
        result = results.setdefault(table["result"], {})
        for row in table["rows"]:
            result[row["key"]] = baseline.get(row.get("baseline"), 1.0)
    return results


class BenchCompareTest(unittest.TestCase):
    def run_compare(self, results):
        with tempfile.TemporaryDirectory() as tmp:
            for name, values in results.items():
                with open(os.path.join(tmp, name), "w") as f:
                    json.dump(values, f)
            summary = os.path.join(tmp, "summary.md")
            env = dict(os.environ, GITHUB_STEP_SUMMARY=summary)
            proc = subprocess.run(
                [sys.executable, SCRIPT, "--results", tmp,
                 "--baseline", BASELINE],
                capture_output=True, text=True, env=env, check=False)
            with open(summary) as f:
                return proc.returncode, proc.stdout, f.read()

    def test_identical_results_pass_silently(self):
        code, out, summary = self.run_compare(baseline_results())
        self.assertEqual(code, 0, out)
        self.assertNotIn("::warning", out)
        self.assertNotIn("::error", out)
        for title in ("### bench_simperf", "### bench_incast",
                      "### bench_adversity (fault matrix",
                      "### bench_adversity (fabric-core"):
            self.assertIn(title, summary)
        self.assertIn("| virtual M RPC/s | 1.14473 | 1.14473 |", summary)

    def test_virtual_drift_is_a_hard_error(self):
        results = baseline_results()
        results["bench_simperf.json"]["virtual_mrpc_per_sec"] *= 1.01
        code, out, _ = self.run_compare(results)
        self.assertEqual(code, 1, out)
        self.assertIn("::error title=perf-smoke::virtual M RPC/s", out)

    def test_virtual_drift_within_band_passes(self):
        results = baseline_results()
        results["bench_simperf.json"]["virtual_mrpc_per_sec"] *= 1.004
        code, out, _ = self.run_compare(results)
        self.assertEqual(code, 0, out)
        self.assertNotIn("::error", out)

    def test_advisory_drift_warns_but_passes(self):
        results = baseline_results()
        results["bench_simperf.json"]["events_per_sec"] *= 0.5
        results["bench_simperf.json"]["allocs_per_rpc"] *= 1.2
        results["bench_simperf.json"]["handshake_us"] *= 5
        results["bench_incast.json"]["incast_drops"] += 1
        results["bench_adversity.json"]["adversity_completed_total"] -= 1
        results["bench_adversity.json"]["corefault_dark_transitions"] += 1
        code, out, _ = self.run_compare(results)
        self.assertEqual(code, 0, out)
        self.assertNotIn("::error", out)
        self.assertEqual(out.count("::warning title=perf-smoke::"), 6, out)
        self.assertIn("events/sec", out)
        self.assertIn("TLS handshake us", out)
        self.assertIn("allocs per RPC", out)
        self.assertIn("incast_drops 5->6", out)
        with open(BASELINE) as f:
            completed = json.load(f)["baseline_smoke_adversity_completed_total"]
        self.assertIn(f"adversity_completed_total {completed}->{completed - 1}", out)
        self.assertIn("corefault_dark_transitions 32->33", out)

    def test_missing_key_is_an_error(self):
        results = baseline_results()
        del results["bench_incast.json"]["incast_p99_us"]
        code, out, _ = self.run_compare(results)
        self.assertEqual(code, 1, out)
        self.assertIn("::error title=perf-smoke::incast_p99_us", out)


if __name__ == "__main__":
    unittest.main()
