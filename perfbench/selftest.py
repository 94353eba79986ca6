"""Tests of the benchmark itself, run at the tiny size.

    python3 perfbench/selftest.py

Each workload's checks must pass on the current code, and a tampered output
must raise the error count, so the checker is not vacuous.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402  (puts the package on sys.path)
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def failures(workload, state):
    """Error count the runner would report for one repetition with this state."""
    check = workloads.WORKLOADS[workload][2]
    params = workloads.PARAMS[workload]["tiny"]
    return sum(not ok for _, ok in check(state, params, EXPECTED))


class WorkloadsPass(unittest.TestCase):
    def test_every_workload_is_correct_and_reports_end_to_end_metrics(self):
        names = [m["name"] for m in BENCH["end_to_end"]]
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                out = bench(w["name"], 0)
                self.assertEqual(out.returncode, 0, out.stderr)
                res = json.loads(out.stdout.splitlines()[-1])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                self.assertEqual(sorted(res["metrics"]), sorted(names))
                self.assertTrue(all(m["value"] > 0 for m in res["metrics"].values()))

    def test_traced_run_reports_every_per_layer_metric(self):
        names = [m["name"] for m in BENCH["per_layer"]]
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                out = bench(w, 1)
                self.assertEqual(out.returncode, 0, out.stderr)
                res = json.loads(out.stdout.splitlines()[-1])
                self.assertTrue(res["correct"])
                self.assertEqual(sorted(res["metrics"]), sorted(names))
                self.assertTrue((ROOT / ".perfbench-out" / f"trace-{w}-7.json").is_file())

    def test_fails_without_the_package_source(self):
        (ROOT / ".perfbench-out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-out") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = bench("tiling", 0, cwd=tmp)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


class TamperedOutputsFail(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.states = {
            w: child.run(w, 7, "tiny", trace=False)["state"] for w in workloads.WORKLOADS
        }

    def tampered(self, workload, key, change):
        state = dict(self.states[workload])
        self.assertEqual(failures(workload, state), 0)
        state[key] = change(state[key])
        return failures(workload, state)

    def test_changed_svg_byte(self):
        flip = lambda s: s[:100] + ("1" if s[100] != "1" else "2") + s[101:]  # noqa: E731
        self.assertGreater(self.tampered("tiling", "tiling", flip), 0)

    def test_flipped_measure_verdict(self):
        flip = lambda vs: [not vs[0], *vs[1:]]  # noqa: E731
        self.assertGreater(self.tampered("random-inputs", "verdicts", flip), 0)

    def test_distinct_count_off_by_one(self):
        bump = lambda xs: [xs[0] + 1, *xs[1:]]  # noqa: E731
        self.assertGreater(self.tampered("random-inputs", "distinct", bump), 0)
        self.assertGreater(self.tampered("fixed-tree", "distinct", bump), 0)

    def test_chi_forms_disagree(self):
        swap = lambda pairs: [(pairs[0][0], pairs[0][1][::-1] + "1"), *pairs[1:]]  # noqa: E731
        self.assertGreater(self.tampered("random-inputs", "chi", swap), 0)

    def test_gate_six_reported_green(self):
        def green(results):
            name, _, detail = results[6]
            return {**results, 6: (name, True, detail)}

        self.assertGreater(self.tampered("paper-gates", "results", green), 0)

    def test_wrong_sibling_prediction(self):
        def wrong(rows):
            k = next(k for k, (*_, pred) in enumerate(rows) if pred is not None)
            m, i, report, _ = rows[k]
            return [*rows[:k], (m, i, report, workloads.trees.Patch.leaf(0)), *rows[k + 1:]]

        self.assertGreater(self.tampered("fixed-tree", "brothers", wrong), 0)

    def test_crosscheck_mismatch(self):
        def mismatch(sweep):
            rep, combos = sweep
            return workloads.preimages.CrosscheckReport(False, rep.occurrences, ["x"]), combos

        self.assertGreater(self.tampered("fixed-tree", "sweep", mismatch), 0)


class SpeedProbes(unittest.TestCase):
    def test_probe_time_is_measured_and_left_out(self):
        probes = child.Probes()
        probes.start()
        try:
            out = child.run("fixed-tree", 7, "tiny", trace=True, probes=probes)
        finally:
            probes.stop()
        self.assertGreater(out["probe_s"], 0)
        self.assertGreater(out["setup_probe_s"], 0)
        self.assertGreater(out["wall_s"], 0)
        for _name, start, end, _step, probe_s in out["spans"]:
            self.assertLessEqual(probe_s, end - start)
        self.assertLessEqual(sum(s[4] for s in out["spans"]), sum(probes.durations))


class IndependentChecks(unittest.TestCase):
    def test_measure_exists_on_known_graphs(self):
        graph = workloads.systems.build_orbit_graph(workloads.systems.nomeasure_tree(0, 12), 6)
        self.assertFalse(workloads.measure_exists(graph.serialize()))
        self.assertTrue(workloads.measure_exists("state s0\nedge s0 a s0\nedge s0 b s0\n"))
        swap = "state x\nstate y\nedge x a y\nedge y a x\nedge x b x\nedge y b y\n"
        self.assertTrue(workloads.measure_exists(swap))
        # y is a fixed point of a but b sends it away for good.
        escape = "state x\nstate y\nedge x a x\nedge y a y\nedge x b x\nedge y b x\n"
        self.assertTrue(workloads.measure_exists(escape))
        drift = "state x\nstate y\nedge x a y\nedge y a y\nedge x b x\nedge y b x\n"
        self.assertFalse(workloads.measure_exists(drift))

    def test_measure_exists_agrees_with_the_package_solver(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 6)
            text = workloads._graph_text(rng, n, rng.random() < 0.3)
            g = workloads.systems.parse_orbit_graph(text)
            self.assertEqual(workloads.measure_exists(text),
                             workloads.measures.invariant_measure(g).feasible, text)

    def test_naive_distinct_counts_windows(self):
        levels = ("0", "01", "0101")
        self.assertEqual([workloads.naive_distinct(levels, n) for n in range(3)], [2, 2, 1])


if __name__ == "__main__":
    unittest.main()
