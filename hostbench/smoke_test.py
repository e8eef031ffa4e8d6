#!/usr/bin/env python3
"""Smoke tests of the host-time benchmark at a small N.

    python3 hostbench/smoke_test.py

Run from the root of a source checkout (it builds through run.py). Checks:
  * every workload prints, with its unit, exactly the end-to-end metrics
    of BENCHMARK.json untraced and exactly the per-layer metrics traced;
  * an injected digest mismatch is counted as a failure and makes the
    command exit non-zero;
  * the span file of a traced run parses, its spans nest, and no layer's
    self time is negative.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORDS = "20000"
SEED = 3


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--records", RECORDS, *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stderr


def spans_path(workload):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, build_dir, "traces",
                        f"{workload}.seed{SEED}.spans.json")


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, key):
        want = {m["name"]: m["unit"] for m in spec()[key]}
        for w in spec()["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                rc, res, err = run(w["name"], trace)
                self.assertEqual(rc, 0, err)
                self.assertEqual(set(res),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want)
                for name, m in res["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check(1, "per_layer")


class CorrectnessGate(unittest.TestCase):
    def test_injected_mismatch_fails_the_run(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                rc, res, _ = run("durable-resume", trace, "--inject-mismatch")
                self.assertNotEqual(rc, 0)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                self.assertGreater(res["failed"] / res["attempted"], 0.0)


class SpanFile(unittest.TestCase):
    def test_spans_parse_and_self_times_are_not_negative(self):
        for w in spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                path = spans_path(w["name"])
                if os.path.exists(path):
                    os.remove(path)
                rc, res, err = run(w["name"], 1)
                self.assertEqual(rc, 0, err)
                with open(path) as f:
                    doc = json.load(f)
                spans = doc["spans"]
                self.assertTrue(spans)
                child = [0] * len(spans)
                for i, s in enumerate(spans):
                    self.assertEqual(s["id"], i)
                    self.assertLessEqual(s["start_ns"], s["end_ns"])
                    if s["parent"] >= 0:
                        p = spans[s["parent"]]
                        self.assertLess(s["parent"], i)
                        self.assertGreaterEqual(s["start_ns"], p["start_ns"])
                        self.assertLessEqual(s["end_ns"], p["end_ns"])
                        child[s["parent"]] += s["end_ns"] - s["start_ns"]
                self_s = {}
                for i, s in enumerate(spans):
                    own = s["end_ns"] - s["start_ns"] - child[i]
                    self.assertGreaterEqual(own, 0, s["name"])
                    self_s[s["layer"]] = self_s.get(s["layer"], 0) + own * 1e-9
                for layer, sec in doc["self_s"].items():
                    self.assertGreaterEqual(sec, 0.0, layer)
                    self.assertAlmostEqual(sec, self_s[layer], places=6)
                layers = ["data", "dtree", "mpsim", "core"]
                if w["name"] == "durable-resume":
                    layers.append("obs")
                for layer in layers:
                    self.assertGreater(doc["self_s"].get(layer, 0.0), 0.0,
                                       layer)
                    self.assertEqual(
                        res["metrics"][f"{layer}.self_s"]["value"],
                        doc["self_s"][layer])


if __name__ == "__main__":
    unittest.main(verbosity=2)
