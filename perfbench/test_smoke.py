#!/usr/bin/env python3
"""The benchmark's own tests: every workload at smoke size, in seconds.

    python3 perfbench/test_smoke.py

Run from the repository root. Checks, for each workload, traced and
untraced: the result line's keys, that its metric names and units are the
ones BENCHMARK.json lists, that end-to-end values are non-zero, that the
stored smoke digests exist and match, the sum-to-total check, and the
Chrome trace file; and that a tampered reference digest fails the run.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out", "smoke-test")
WORKLOADS = ("capture", "lineage", "serve", "ooc")
SEED = 1


def run_bench(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--size", "smoke", "--out-dir", OUT] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                cls.runs[workload, trace] = run_bench(workload, trace)

    def check_result(self, workload, trace):
        proc, result = self.runs[workload, trace]
        where = "%s trace=%d" % (workload, trace)
        self.assertEqual(proc.returncode, 0, where + "\n" + proc.stderr)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], where)
        self.assertGreaterEqual(result["attempted"], 1, where)
        self.assertEqual(result["failed"], 0, where)
        listed = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in listed], where)
        for m in listed:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], where + " " + m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, where + " " + m["name"])
        # The stored smoke references cover this seed, so every digest
        # was compared against one.
        self.assertNotIn("no stored reference", proc.stderr, where)
        self.assertNotIn("CHECK FAILED", proc.stderr, where)
        return result

    def test_untraced(self):
        for workload in WORKLOADS:
            self.check_result(workload, 0)

    def test_traced(self):
        for workload in WORKLOADS:
            result = self.check_result(workload, 1)
            unattributed = result["metrics"]["trace.unattributed_frac"]["value"]
            if workload in ("capture", "lineage"):
                self.assertLessEqual(unattributed, 0.05, workload)
            path = os.path.join(OUT, "%s-smoke-seed%d-trace.trace.json" %
                                (workload, SEED))
            with open(path) as f:
                trace = json.load(f)
            spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
            self.assertTrue(spans, workload)
            for e in spans:
                self.assertGreaterEqual(e["dur"], 0)
                self.assertIn("tid", e)
            if workload in ("capture", "lineage", "ooc"):
                self.assertTrue(
                    any("layer_index" in e["args"] for e in spans), workload)

    def test_results_file_has_run_facts(self):
        for workload in WORKLOADS:
            path = os.path.join(OUT, "%s-smoke-seed%d.json" % (workload, SEED))
            with open(path) as f:
                facts = json.load(f)["facts"]
            for key in ("nproc", "seed", "commit", "graph_vertices",
                        "graph_edges", "threads_engine"):
                self.assertIn(key, facts, workload)

    def test_tampered_reference_fails(self):
        tampered = os.path.join(OUT, "tampered_digests.txt")
        with open(os.path.join(HERE, "reference_digests.txt")) as f:
            lines = f.read().splitlines()
        prefix = "smoke ooc %d values " % SEED
        self.assertTrue(any(l.startswith(prefix) for l in lines))
        with open(tampered, "w") as f:
            for line in lines:
                if line.startswith(prefix):
                    line = prefix + "0000000000000000"
                f.write(line + "\n")
        proc, result = run_bench("ooc", 0, ["--references", tampered])
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertIn("CHECK FAILED", proc.stderr)


if __name__ == "__main__":
    unittest.main()
