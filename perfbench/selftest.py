"""Fast self-test of the benchmark on GF(2^3) instances of each workload path.

    python3 perfbench/selftest.py

Covers the untraced and traced runs, the correctness gate (pinned hash and
invariants) and the refusal to run without the package sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
from workloads import PINNED_SEED, SMOKE, WORKLOADS


class SmokeTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_untraced_run_is_correct_at_the_pinned_seed(self):
        for workload in SMOKE.values():
            with self.subTest(workload.name):
                result = run.run_benchmark(workload, PINNED_SEED, 0.1, trace=False)["result"]
                self.assertTrue(result["correct"], result)
                self.assertGreaterEqual(result["attempted"], 2)
                self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_run_reports_every_layer_metric(self):
        for workload in SMOKE.values():
            with self.subTest(workload.name):
                result = run.run_benchmark(workload, 1, 0.1, trace=True)["result"]
                self.assertTrue(result["correct"], result)
                m = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertEqual(set(m), set(run.PER_LAYER))
                self.assertEqual(m["error_rate"], 0)
                for name in ("extraction.joint_cells", "extraction.bucket_evals"):
                    self.assertEqual(m[name], m[name + "_computed"], name)
                tables = {"verify": workload.k, "sweep": len(workload.m_values), "bucket": 0}
                self.assertEqual(m["families.table_rebuilds"], tables[workload.command])
                self.assertEqual(
                    m["families.table_cells"],
                    m["families.table_cells_computed"] * tables[workload.command],
                )
                layers = sum(m[f"{layer}.self_s"] for layer in run.tracing.LAYERS)
                self.assertAlmostEqual(layers / m["trace.wall_s"], m["trace.accounted_share"])
                self.assertLess(m["trace.accounted_share"], 1)

    def test_wrong_pinned_hash_fails_the_gate(self):
        for workload in SMOKE.values():
            with self.subTest(workload.name):
                tampered = dataclasses.replace(workload, pinned_sha256="0" * 64)
                result = run.run_benchmark(tampered, PINNED_SEED, 0.1, trace=False)["result"]
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])

    def test_invariants_catch_a_wrong_collision_probability(self):
        workload = SMOKE["certify-k3"]
        config = workload.config(3)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            config_path = Path(tmp) / "config.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            sample = run.run_cli(workload, config_path, Path(tmp), "0", traced=False)
        text = sample.report.decode("utf-8")
        self.assertEqual(workload.check(text, config), [])
        self.assertIn('"collision_probability": "1/4"', text)
        broken = text.replace('"collision_probability": "1/4"', '"collision_probability": "1/8"')
        self.assertNotEqual(workload.check(broken, config), [])

    def test_metered_run_is_scaled_by_its_own_chunks(self):
        workload = SMOKE["bucket-sampled"]
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            config_path = Path(tmp) / "config.json"
            config_path.write_text(json.dumps(workload.config(2)), encoding="utf-8")
            sample = run.run_cli(workload, config_path, Path(tmp), "0", traced=False)
        self.assertEqual(sample.problems, [])
        self.assertGreaterEqual(len(sample.chunks), 2)
        speed = sum(sample.chunks) / len(sample.chunks)
        self.assertAlmostEqual(
            run.scaled_wall_s(sample),
            (sample.wall_s - sum(sample.chunks)) * run.hostspeed.NOMINAL_CHUNK_S / speed,
        )
        # A host twice as slow for the program and the chunks alike reads the same.
        slow = dataclasses.replace(
            sample, wall_s=2 * sample.wall_s, chunks=[2 * c for c in sample.chunks]
        )
        self.assertAlmostEqual(run.scaled_wall_s(slow), run.scaled_wall_s(sample))

    def test_refuses_to_run_without_the_package_sources(self):
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(
                run.HERE, Path(tmp) / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__")
            )
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "certify-k3",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    unittest.main()
