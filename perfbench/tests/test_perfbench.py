"""Self-test of the benchmark (not of qcong).

    python3 -m unittest discover -s perfbench/tests     # or: python3 -m pytest perfbench/tests

Takes about 15 s. Runs the proof_chain workload twice with tracing, once
against a golden table with one entry mutated (the table is copied and
changed; the program is not), and checks that exactly that cell fails,
that every per-layer count repeats exactly between the two runs, and that
the metric names match BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import rep  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 7
WORKLOAD = "proof_chain"


def run_rep(*extra) -> dict:
    proc = subprocess.run(
        [sys.executable, rep.__file__, "--workload", WORKLOAD,
         "--seed", str(SEED), "--trace", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scratch_dir() -> str:
    os.makedirs(rep.TMP, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=rep.TMP)


class TracedRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = scratch_dir()
        with open(rep.GOLDEN) as fh:
            golden = json.load(fh)
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from qcong import REGISTRY

        plan = rep.make_plan(WORKLOAD, SEED, REGISTRY)
        cls.victim = plan["expected"][0]
        status, factors = golden["cells"][cls.victim]
        golden["cells"][cls.victim] = [
            "fails" if status == "holds" else "holds", factors]
        cls.mutated_path = os.path.join(cls.tmp, "golden.json")
        with open(cls.mutated_path, "w") as fh:
            json.dump(golden, fh)
        cls.clean = run_rep()
        cls.mutated = run_rep("--golden", cls.mutated_path)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def test_clean_run_passes(self):
        self.assertEqual(self.clean["failed"], 0, self.clean["problems"])
        self.assertGreater(self.clean["attempted"], 0)

    def test_mutated_golden_entry_is_caught(self):
        self.assertEqual(self.mutated["failed"], 1)
        self.assertTrue(self.mutated["problems"][0].startswith(self.victim))

    def test_counts_repeat_exactly(self):
        raw = self.clean["raw"]
        self.assertEqual(raw, self.mutated["raw"])
        self.assertGreater(raw["exact.poly_mul.calls"], 0)
        self.assertGreater(raw["coeff_products"], 0)
        self.assertGreater(raw["qcombinatorics.q_binomial.hits"], 0)
        for name, value in self.clean["trace"].items():
            if run.layer_unit(name) not in ("s", "ms"):
                self.assertEqual(value, self.mutated["trace"][name], name)

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        names = list(self.clean["trace"]) + ["trace.overhead_frac"]
        self.assertEqual(set(layer), set(names))
        for name in names:
            self.assertEqual(layer[name], run.layer_unit(name), name)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(wl.WORKLOADS))


class Inputs(unittest.TestCase):
    def test_seeds_change_cells_not_counts(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from qcong import REGISTRY

        for make in (wl.theorem_cells,
                     lambda s: wl.proof_cells(s, REGISTRY)):
            drawn = [make(s) for s in range(6)]
            for other in drawn[1:]:
                self.assertEqual({t: len(g) for t, g in drawn[0].items()},
                                 {t: len(g) for t, g in other.items()})
            self.assertGreater(len({json.dumps(d) for d in drawn}), 1)
            self.assertEqual(drawn[1], make(1))
        self.assertEqual(len(wl.compute_calls(1)), len(wl.compute_calls(2)))
        self.assertNotEqual(wl.compute_calls(1), wl.compute_calls(2))


class BareDirectory(unittest.TestCase):
    def test_fails_without_program(self):
        tmp = scratch_dir()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
                 "--seed", "1", "--seconds", "5", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
