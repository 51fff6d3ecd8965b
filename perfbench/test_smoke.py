"""Smoke tests of the benchmark itself.

    python3 -m unittest perfbench/test_smoke.py      (from the repository root)

Each workload completes tiny runs with no failed operation and prints
exactly the metric names and units BENCHMARK.json declares; the
reference checks reject wrong answers; and the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class TinyRuns(unittest.TestCase):
    def test_every_workload_passes_and_prints_the_declared_metrics(self):
        for workload in SPEC["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = run_bench(ROOT, workload["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    res = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(sorted(res), ["attempted", "correct", "failed", "metrics"])
                    self.assertGreater(res["attempted"], 0)
                    self.assertEqual(res["failed"], 0, proc.stderr)
                    self.assertIs(res["correct"], True)
                    want = {m["name"]: m["unit"] for m in SPEC[kind]}
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_bench(bare, SPEC["workloads"][0]["name"], 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


class ReferenceChecks(unittest.TestCase):
    def test_chromatic_check_rejects_a_wrong_polynomial(self):
        triangle = [(0, 1), (1, 2), (0, 2)]
        self.assertIsNone(ref.check_chromatic([0, 2, -3, 1], 3, triangle, (0, 1, 2, 3)))
        self.assertIsNotNone(ref.check_chromatic([0, 1, -3, 1], 3, triangle, (0, 1, 2, 3)))

    def test_groebner_check_rejects_a_basis_missing_an_s_pair(self):
        # x0*x1 - x2^2 and x0^2 - x1*x2: the basis needs a third element
        gens = [((1, 1, 0), (0, 0, 2)), ((2, 0, 0), (0, 1, 1))]
        self.assertIsNotNone(ref.check_groebner(gens, gens))
        self.assertIsNone(ref.check_groebner([((1, 0), (0, 1))], [((0, 1), (1, 0))]))

    def test_hilbert_check_rejects_a_wrong_numerator(self):
        # (x0*x1) in two variables: numerator 1 - t^2, dimension 1, degree 2
        gens = [(1, 1)]
        self.assertIsNone(ref.check_hilbert([1, 0, -1], 1, 2, gens, 2, 4))
        self.assertIsNotNone(ref.check_hilbert([1, -1], 1, 1, gens, 2, 4))
        self.assertIsNotNone(ref.check_hilbert([1, 0, -1], 2, 2, gens, 2, 4))

    def test_isomorphism_reference(self):
        path = [(0, 1), (1, 2), (2, 3)]
        star = [(0, 1), (0, 2), (0, 3)]
        self.assertTrue(ref.brute_isomorphic(4, path, [(3, 2), (2, 0), (0, 1)]))
        self.assertFalse(ref.brute_isomorphic(4, path, star))

    def test_cli_check_rejects_a_failed_invariant(self):
        ok = "summary\n  invariant failures  observed=0  claimed=0  MATCH\n"
        bad = "summary\n  invariant failures  observed=1  claimed=0  MISMATCH\n"
        self.assertIsNone(ref.check_cli_text(0, ok))
        self.assertIsNotNone(ref.check_cli_text(0, bad))
        self.assertIsNotNone(ref.check_cli_text(1, ok))
        self.assertIsNotNone(ref.check_cli_text(0, "summary\n"))

    def test_move_graph_reference_matches_the_family_counts(self):
        for ell in range(3, 9):
            words = ref.reduced_words(ref.staircase_permutation(ell + 1))
            self.assertEqual(len(words), ell * (ell + 1) // 2)
            self.assertEqual(len(ref.move_edges(words)), ell * (ell - 1))


if __name__ == "__main__":
    unittest.main()
