#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py

Short runs of every workload must print every metric BENCHMARK.json names,
with its unit, and pass their output checks; tampered result records must
be rejected by those checks; the benchmark must refuse to report when the
library's gates are on or when it is not inside a source checkout; and the
fig5-model results must be identical between the untraced and the traced
run at one seed, and the open-loop inputs the same in both.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import checks  # noqa: E402

SEED = 7
SECONDS = "1"


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, env=None, cwd=ROOT):
    p = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, universal_newlines=True,
        env=env, timeout=300)
    return p


def saved_record(workload, trace):
    path = os.path.join(ROOT, ".bench_out", "%s-seed%d-trace%d.json" % (workload, SEED, trace))
    with open(path) as f:
        return json.load(f)


def expected(trace):
    group = spec()["end_to_end" if trace == 0 else "per_layer"]
    return {m["name"]: m["unit"] for m in group}


class ShortRuns(unittest.TestCase):
    """One short run per workload and mode; later tests reuse the records."""

    @classmethod
    def setUpClass(cls):
        cls.results = {}
        for w in [w["name"] for w in spec()["workloads"]]:
            for trace in (0, 1):
                p = run(w, trace)
                cls.results[(w, trace)] = p

    def test_every_metric_printed_with_unit(self):
        for (w, trace), p in self.results.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
                out = json.loads(p.stdout.strip().splitlines()[-1])
                self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                want = expected(trace)
                self.assertEqual(set(out["metrics"]), set(want))
                for name, unit in want.items():
                    m = out["metrics"][name]
                    self.assertEqual(set(m), {"value", "unit"})
                    self.assertEqual(m["unit"], unit)
                    self.assertIsInstance(m["value"], (int, float))
                    # The report names each metric with its unit and
                    # sample count.
                    self.assertRegex(p.stdout, r"(?m)^%s\s+\S+\s+%s\s+\d+" % (
                        name.replace(".", r"\."), unit.replace("/", r"\/")))

    def test_trace_file_written(self):
        for w in [w["name"] for w in spec()["workloads"]]:
            path = os.path.join(ROOT, ".bench_out", "%s-seed%d.trace.json" % (w, SEED))
            with open(path) as f:
                trace = json.load(f)
            self.assertGreater(len(trace["traceEvents"]), 0)
            ev = trace["traceEvents"][0]
            self.assertEqual(ev["ph"], "X")
            self.assertIn("msg", ev["args"])

    def test_fig5_traced_results_identical(self):
        a = saved_record("fig5-model", 0)["checks"]["results_digest"]
        b = saved_record("fig5-model", 1)["checks"]["results_digest"]
        self.assertEqual(a, b)

    def test_open_loop_inputs_depend_only_on_seed(self):
        # The saturation phase runs for a fixed time, so it consumes a
        # varying number of inputs; the open loop's must not vary with it.
        for w, key in (("tcp-rx-ack", "open_loop_frames"), ("q93b-storm", "open_loop_setups")):
            with self.subTest(workload=w):
                self.assertEqual(saved_record(w, 0)["checks"][key],
                                 saved_record(w, 1)["checks"][key])

    def test_tampered_records_rejected(self):
        zero = "0" * 16
        plus1 = lambda v: v + 1  # noqa: E731
        minus1 = lambda v: v - 1  # noqa: E731
        tampers = {
            "tcp-rx-ack": [
                ("ldlp.wire_digest", lambda v: zero),
                ("conv.mismatch_bytes", plus1),
                ("ldlp.delivered_bytes", minus1),
                ("tcp_drops", plus1),
                ("ldlp.msg_outstanding", plus1),
            ],
            "q93b-storm": [
                ("ldlp.calls_released", minus1),
                ("conv.protocol_errors", plus1),
                ("ldlp.active_calls_end", plus1),
                ("conv.tx_digest", lambda v: zero),
            ],
            "fig5-model": [
                ("ldlp.repeat_mismatches", plus1),
                ("ldlp.imisses_per_msg", lambda v: 1e9),
            ],
        }
        for w, cases in tampers.items():
            good = saved_record(w, 0)
            violations, failed = checks.verify(good, expected(0), positive=True)
            self.assertEqual(violations, [])
            self.assertEqual(failed, 0)
            for key, change in cases:
                with self.subTest(workload=w, fact=key):
                    bad = copy.deepcopy(good)
                    bad["checks"][key] = change(bad["checks"][key])
                    violations, failed = checks.verify(bad, expected(0), positive=True)
                    self.assertNotEqual(violations, [])
                    self.assertGreater(failed, 0)
            with self.subTest(workload=w, tamper="failure counter"):
                bad = copy.deepcopy(good)
                name = next(iter(bad["failures"]))
                bad["failures"][name] = 3
                violations, failed = checks.verify(bad, expected(0), positive=True)
                self.assertNotEqual(violations, [])
                self.assertGreaterEqual(failed, 3)
            with self.subTest(workload=w, tamper="metric"):
                bad = copy.deepcopy(good)
                del bad["metrics"]["setup_s"]
                bad["metrics"]["msgs_per_s"]["unit"] = "ms"
                violations, _ = checks.verify(bad, expected(0), positive=True)
                self.assertEqual(len(violations), 2)


class Refusals(unittest.TestCase):
    def test_gates_on_gives_no_result(self):
        for var in ("LDLP_METRICS", "LDLP_CHECK"):
            env = dict(os.environ, **{var: "1"})
            p = run("fig5-model", 0, env=env)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)

    def test_outside_a_checkout(self):
        d = tempfile.mkdtemp()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = run("tcp-rx-ack", 0, cwd=d)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(d)


if __name__ == "__main__":
    unittest.main()
