#!/usr/bin/env python3
"""Self-test of the repo benchmark: python3 perfbench/test_perfbench.py

Runs the small mix_smt_cmp workload for one pass per case (about ten
seconds each after the first build) and checks that the output check can
fail, that held-out seeds skip the reference, and that the benchmark
refuses to run without the simulator sources. It also builds the driver
unoptimized (a few minutes) to check that such a build refuses to time.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench-test"
WORKLOAD = "mix_smt_cmp"


def run(*extra, cwd=ROOT):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
         "--seed", "1", "--seconds", "1", "--trace", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return r


def result_line(r):
    return json.loads(r.stdout.strip().split("\n")[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)

    def test_reference_rows_pass(self):
        r = run()
        self.assertEqual(r.returncode, 0, r.stderr)
        line = result_line(r)
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)
        self.assertGreaterEqual(line["attempted"], 12)
        self.assertEqual(set(line["metrics"]),
                         {"setup_s", "wall_s", "sim_mips", "peak_rss_mb"})

    def test_perturbed_reference_raises_failure_rate(self):
        ref = json.loads((HERE / "reference.json").read_text())
        rows = ref["workloads"][WORKLOAD]
        first = next(iter(rows))
        rows[first]["cycles"] += 1
        path = SCRATCH / "perturbed.json"
        path.write_text(json.dumps(ref))
        r = run("--reference", str(path))
        self.assertEqual(r.returncode, 0, r.stderr)
        line = result_line(r)
        self.assertFalse(line["correct"])
        self.assertGreater(line["failed"] / line["attempted"], 0)
        self.assertIn(f"FAILED {first}: cycles", r.stdout)

    def test_held_out_seed_checks_completeness_only(self):
        r = run("--ref-seed", "7", "--profile-seed", "8")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("reference check off", r.stdout)
        self.assertTrue(result_line(r)["correct"])

    def test_refuses_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        r = run(cwd=bare)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "")
        self.assertIn("no simulator sources", r.stderr)

    def test_refuses_debug_build(self):
        build_dir = SCRATCH / "debug"
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Debug"],
                       check=True, capture_output=True)
        subprocess.run(["cmake", "--build", str(build_dir), "--target",
                        "spear_perfbench", "-j",
                        str(min(os.cpu_count() or 1, 4))],
                       check=True, capture_output=True)
        r = subprocess.run([str(build_dir / "spear_perfbench"),
                            "--workload", WORKLOAD],
                           cwd=ROOT, capture_output=True, text=True)
        self.assertEqual(r.returncode, 2)
        self.assertEqual(r.stdout, "")
        self.assertIn("refusing to time this build", r.stderr)


if __name__ == "__main__":
    unittest.main()
