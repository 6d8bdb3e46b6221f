"""Tests of the benchmark itself, at the small ``--fast`` sizes.

    python3 perfbench/selftest.py

Named so that the repository's pytest run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


class FastModeTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[kind]}
            for workload in run.NAMES:
                with self.subTest(workload=workload, trace=trace):
                    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                                  "--trace", str(trace), "--fast")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))

    def test_spec_matches_the_harness(self):
        from tracing import PER_LAYER

        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]], PER_LAYER)
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(run.NAMES))


class FailureTest(unittest.TestCase):
    def test_wrong_output_counts_as_failure(self):
        run.import_quatem()
        import workloads

        run.WORKDIR.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=run.WORKDIR))
        try:
            wl = workloads.ExtendCheck(workdir, 3, "fast")
            wl.prepare()
            ops = wl.ops()
            next(ops)
            perturbed = next(ops)
            # perturbed traces expected to be extendible
            wrong = workloads.Op("wrong", perturbed.argvs, perturbed.artifacts,
                                 wl.check_genuine)
            _, problems = run.Runner().run(wrong, 1)
            self.assertTrue(problems)
            _, problems = run.Runner().run(perturbed, 2)
            self.assertEqual(problems, [])
        finally:
            shutil.rmtree(workdir)

    def test_fails_without_sources(self):
        run.WORKDIR.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=run.WORKDIR))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.BENCH, bare / "perfbench",
                            ignore=shutil.ignore_patterns("work", "__pycache__"))
            proc = _bench("--workload", "reconstruct-probes", "--seconds", "1",
                          "--fast", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
