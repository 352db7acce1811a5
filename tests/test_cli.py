import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renyi_extract
from renyi_extract import bounds as bd
from renyi_extract.cli import main
from renyi_extract.config import parse_config
from renyi_extract.errors import ConfigError
from renyi_extract import harness
from renyi_extract.config import ExperimentConfig
from renyi_extract.fields import FieldParams
from renyi_extract.harness import SWEEP_COLUMNS, run_bucket, run_sweep, run_verify


def write_config(tmp_path, name="config.json", **overrides):
    base = {
        "family": {"q": 2, "n": 3, "k": 2, "m": 1, "kind": "polynomial"},
        "source": {"preset": "uniform"},
        "alphas": [1.5, 2, "inf"],
        "epsilons": [0.1],
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return str(path)


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    """The benchmark's workload definitions, loaded from their file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up here
    spec.loader.exec_module(module)
    return module


def stdout_value(capsys):
    out = capsys.readouterr().out.strip()
    return float(out.split("=")[-1])


class TestBoundCommand:
    def test_bucket_worked_value(self, capsys):
        assert main(["bound", "--name", "bucket", "--q", "2", "--m", "4",
                     "--k", "2", "--A", "16"]) == 0
        expected = 2 * 2 ** 2 / math.log(2 * 2 ** 4 / 16 + 1)
        assert stdout_value(capsys) == pytest.approx(expected, rel=1e-10)

    def test_gamma_worked_value(self, capsys):
        assert main(["bound", "--name", "gamma", "--y", str(2 / math.log(3))]) == 0
        assert stdout_value(capsys) == pytest.approx(2.0, rel=1e-9)

    def test_threshold_regimes_match_library(self, capsys):
        for regime, extra in (
            ("integer-alpha", ["--alpha", "2"]),
            ("corollary", ["--alpha", "2"]),
            ("min-entropy", ["--k", "2"]),
            ("sharp-gamma", ["--k", "2"]),
        ):
            assert main(["bound", "--regime", regime, "--q", "2",
                         "--H", "2", "--eps", "0.1"] + extra) == 0
            expected = bd.m_threshold(regime, 2, 2.0, 0.1, alpha=2, k=2)
            assert stdout_value(capsys) == pytest.approx(expected, rel=1e-10)

    def test_joint_real_matches_library(self, capsys):
        assert main(["bound", "--name", "joint-real", "--q", "2", "--m", "1",
                     "--k", "2", "--alpha", "1.5", "--H", "3"]) == 0
        expected = bd.bound_real_alpha(2, 1, 2, 1.5, 3.0)
        assert stdout_value(capsys) == pytest.approx(expected, rel=1e-10)

    def test_units_bits_scales_thresholds(self, capsys):
        args = ["bound", "--regime", "min-entropy", "--q", "3", "--k", "2",
                "--H", "2", "--eps", "0.1"]
        assert main(args) == 0
        qary = stdout_value(capsys)
        assert main(args + ["--units", "bits"]) == 0
        assert stdout_value(capsys) == pytest.approx(qary * math.log2(3), rel=1e-10)

    @pytest.mark.parametrize(
        "name,flags,expected",
        [
            ("joint-real", ["--m", "1", "--k", "3", "--alpha", "2.5", "--H", "2"],
             bd.bound_real_alpha(3, 1, 3, 2.5, 2.0)),
            ("joint-integer", ["--m", "1", "--alpha", "3", "--H", "2"],
             bd.bound_integer_alpha(3, 1, 3, 2.0)),
            ("simplified", ["--m", "1", "--k", "3", "--alpha", "2.5", "--H", "2"],
             bd.bound_real_alpha_simplified(3, 1, 3, 2.5, 2.0)),
            ("dk-simple", ["--m", "1", "--k", "3", "--H", "2"],
             bd.dk_bound_simple(3, 1, 3, 2.0)),
            ("dk-sharp", ["--m", "1", "--k", "3", "--H", "2"],
             bd.dk_bound_sharp(3, 1, 3, 2.0)),
            ("alpha-above-k", ["--m", "1", "--k", "3", "--alpha", "4.5", "--H", "2"],
             bd.bound_alpha_above_k(3, 1, 3, 4.5, 2.0)),
            ("infty", ["--m", "1", "--k", "3", "--H", "2"], bd.bound_infty(3, 1, 3, 2.0)),
            ("bucket", ["--m", "2", "--k", "3", "--A", "20"], bd.bucket_bound(3, 2, 3, 20)),
            ("gamma", ["--y", "3"], bd.gamma_fn(3.0)),
        ],
    )
    def test_every_name_matches_library(self, capsys, name, flags, expected):
        # Log quantities scale with --units; bucket sizes and gamma do not.
        factor = 1.0 if name in ("bucket", "gamma") else math.log2(3)
        assert main(["bound", "--name", name, "--q", "3"] + flags) == 0
        assert stdout_value(capsys) == pytest.approx(expected, rel=1e-10)
        assert main(["bound", "--name", name, "--q", "3", "--units", "bits"] + flags) == 0
        assert stdout_value(capsys) == pytest.approx(expected * factor, rel=1e-10)

    def test_joint_integer_refuses_fractional_alpha(self, capsys):
        args = ["bound", "--name", "joint-integer", "--m", "1", "--alpha", "2.5", "--H", "2"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "integer alpha" in captured.err

    def test_missing_flag_exits_2(self, capsys):
        assert main(["bound", "--name", "bucket", "--q", "2", "--m", "4"]) == 2
        assert "requires" in capsys.readouterr().err

    def test_regime_and_name_mutually_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--regime", "corollary", "--name", "bucket"])
        assert exc.value.code == 2


class TestEntropyCommand:
    def test_collision_entropy(self, capsys):
        assert main(["entropy", "--probs", "0.75,0.25", "--alpha", "2"]) == 0
        assert stdout_value(capsys) == pytest.approx(-math.log2(10 / 16), abs=1e-10)

    def test_infinite_order(self, capsys):
        assert main(["entropy", "--probs", "0.5,0.25,0.25", "--alpha", "inf"]) == 0
        assert stdout_value(capsys) == pytest.approx(1.0, abs=1e-10)

    def test_units_bits(self, capsys):
        args = ["entropy", "--probs", "0.25,0.25,0.25,0.25", "--alpha", "2", "--q", "4"]
        assert main(args) == 0
        assert stdout_value(capsys) == pytest.approx(1.0, abs=1e-12)
        assert main(args + ["--units", "bits"]) == 0
        assert stdout_value(capsys) == pytest.approx(2.0, abs=1e-12)

    def test_unnormalized_exits_2(self, capsys):
        assert main(["entropy", "--probs", "0.5,0.6", "--alpha", "2"]) == 2


class TestOrderTooLargeForFloats:
    """A finite order whose power sums leave floating point is a config error
    (use "inf"), not a NaN in the report or an OverflowError traceback."""

    def test_entropy_command(self, capsys):
        assert main(["entropy", "--probs", "0.5,0.25,0.25", "--alpha", "2000"]) == 2
        err = capsys.readouterr().err
        assert "too large" in err and "Traceback" not in err

    def test_overflowing_conditional_divergence(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alphas=[2000])
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_nan_joint_divergence_writes_no_report(self, tmp_path, capsys, workloads):
        # alpha = 80 on certify-k3: r ** (1 - alpha) overflows as a numpy
        # scalar and 0 * inf made the joint divergence NaN.
        config = dict(workloads.WORKLOADS["certify-k3"].config(0), alphas=[80])
        cfg, out = tmp_path / "config.json", tmp_path / "report.json"
        cfg.write_text(json.dumps(config))
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_refusal_prints_no_runtime_warning(self, tmp_path):
        # Run in a fresh interpreter so that the default warning filters, not
        # the test suite's, decide what reaches stderr.
        cfg = write_config(
            tmp_path,
            family={"q": 2, "n": 4, "k": 2, "m": 1, "kind": "polynomial"},
            side_channel=[[0.5, 0.5]] * 16,
            alphas=[300],
        )
        src = str(Path(renyi_extract.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "renyi_extract.cli", "verify", "--config", cfg],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert proc.returncode == 2
        assert "error: alpha=300.0 is too large" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


class TestVerifyCommand:
    def test_passing_run_exits_0(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["certification"]["is_k_star_universal"]
        assert report["all_satisfied"]
        assert all(b["satisfied"] for b in report["bounds"])

    def test_constant_family_fails_certification(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, family={"q": 2, "n": 3, "k": 2, "m": 1, "kind": "constant"}
        )
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert not report["certification"]["is_k_star_universal"]
        assert "certification FAILED" in capsys.readouterr().err

    def test_rounding_negative_conditional_entropy_exits_0(self, tmp_path, capsys):
        # A point mass whose side-channel rows each sum one ulp over 1: its
        # H_2(X|Z) rounds to about -3.2e-16, which reads 0, not a config error.
        cfg = write_config(
            tmp_path,
            family={"q": 2, "n": 4, "k": 3, "m": 4, "kind": "polynomial"},
            source={"preset": "point-mass"},
            side_channel=[[0.1, 0.9000000000000001]] * 16,
            alphas=[2],
        )
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["entropies"]["2"]["conditional"] == 0.0
        assert report["all_satisfied"]

    def test_reports_byte_identical_across_runs(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            source={"preset": "two-spike", "param": 0.75},
            bucket={"subset": [1, 4, 6], "mode": "sampled", "samples": 50},
            sweep={"m_values": [1, 2]},
        )
        for command in ("verify", "sweep", "bucket"):
            a, b = tmp_path / f"{command}-a", tmp_path / f"{command}-b"
            assert main([command, "--config", cfg, "--out", str(a)]) == 0
            assert main([command, "--config", cfg, "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", ["verify", "sweep", "bucket"])
    def test_units_only_on_bound_and_entropy(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--units", "bits"])
        assert exc.value.code == 2

    def test_budget_flag_exits_2_when_exceeded(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["verify", "--config", cfg, "--budget", "5"]) == 2

    def test_env_budget_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RENYI_EXTRACT_BUDGET", "5")
        cfg = write_config(tmp_path)
        assert main(["verify", "--config", cfg]) == 2

    def test_wall_clock_on_stderr_not_in_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert "wall-clock" in capsys.readouterr().err
        assert "wall" not in out.read_text()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)

FUZZED_FIELDS = [
    (),
    ("family",),
    *(("family", key) for key in ("q", "n", "k", "m", "kind")),
    ("source",),
    *(("source", key) for key in ("preset", "param", "probs")),
    ("side_channel",),
    ("alphas",),
    ("epsilons",),
    ("budget",),
    ("rng_seed",),
    ("bucket",),
    *(("bucket", key) for key in ("subset", "mode", "samples")),
    ("sweep",),
    ("sweep", "m_values"),
    ("out",),
]


def fuzz_base_config():
    """A valid config that sets every field, for the parse_config fuzz."""
    return {
        "family": {"q": 2, "n": 2, "k": 2, "m": 1, "kind": "polynomial"},
        "source": {"preset": "two-spike", "param": 0.75},
        "side_channel": [[0.5, 0.5], [1.0, 0.0], [0.25, 0.75], [0.0, 1.0]],
        "alphas": [1.5, 2, "inf"],
        "epsilons": [0.1],
        "budget": 1000,
        "rng_seed": 3,
        "bucket": {"subset": [0, 1, 3], "mode": "sampled", "samples": 10},
        "sweep": {"m_values": [1, 2]},
        "out": "report.json",
    }


class TestConfigValidation:
    def test_unknown_top_level_field(self, tmp_path):
        cfg = write_config(tmp_path, typo_field=1)
        assert main(["verify", "--config", cfg]) == 2

    def test_unknown_nested_field(self):
        raw = {
            "family": {"q": 2, "n": 3, "k": 2, "m": 1, "extra": True},
            "source": {"preset": "uniform"},
        }
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_source_needs_exactly_one_of_preset_probs(self):
        raw = {
            "family": {"q": 2, "n": 2, "k": 2, "m": 1},
            "source": {"preset": "uniform", "probs": [1, 0, 0, 0]},
        }
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_explicit_probs_must_cover_domain(self, tmp_path):
        cfg = write_config(tmp_path, source={"probs": [0.5, 0.5]})
        assert main(["verify", "--config", cfg]) == 2

    @pytest.mark.parametrize("key", ["q", "n", "k", "m"])
    def test_family_missing_key_exits_2(self, tmp_path, capsys, key):
        family = {"q": 2, "n": 3, "k": 2, "m": 1}
        del family[key]
        cfg = write_config(tmp_path, family=family)
        assert main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert repr(key) in err

    def test_missing_config_file(self, capsys):
        assert main(["verify", "--config", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"epsilons": [math.nan]},
            {"epsilons": [0.1, math.inf]},
            {"source": {"probs": [math.nan] + [1 / 15] * 15}},
            {"side_channel": [[math.nan, 0.5]] + [[0.5, 0.5]] * 15},
        ],
        ids=["nan-epsilon", "inf-epsilon", "nan-prob", "nan-side-channel"],
    )
    def test_non_finite_values_exit_2(self, tmp_path, capsys, overrides):
        # NaN compares False against every bound, so it used to slip past the
        # checks: a NaN epsilon silently dropped every threshold check.
        cfg = write_config(
            tmp_path, family={"q": 2, "n": 4, "k": 2, "m": 1}, **overrides
        )
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "sweep", "bucket"])
    def test_oversized_field_exits_2_before_building_it(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def create(cls, q, n):
            pytest.fail(f"FieldParams.create({q}, {n}) ran despite the budget")

        monkeypatch.setattr(FieldParams, "create", classmethod(create))
        cfg = write_config(
            tmp_path,
            family={"q": 10007, "n": 1, "k": 2, "m": 1},
            bucket={"subset": [0, 1], "mode": "sampled", "samples": 10},
        )
        assert main([command, "--config", cfg, "--budget", "1000"]) == 2
        err = capsys.readouterr().err
        assert "exceeds budget 1000" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command,overrides",
        [
            ("verify", {"alphas": 2}),
            ("verify", {"epsilons": 5}),
            ("bucket", {"bucket": {"subset": 5}}),
            ("sweep", {"sweep": {"m_values": 3}}),
            ("sweep", {"sweep": {}}),
            ("bucket", {"rng_seed": [1], "bucket": {"mode": "sampled"}}),
            ("verify", {"family": {"q": None, "n": 3, "k": 2, "m": 1}}),
            ("verify", {"source": {"preset": "geometric", "param": "x"}}),
            ("bucket", {"bucket": {"mode": "sampled", "samples": 0}}),
            ("bucket", {"bucket": {"mode": "sampled", "samples": -5}}),
            ("verify", {"out": 5}),
        ],
        ids=["alphas", "epsilons", "subset", "m_values", "no-m_values", "rng_seed",
             "q", "param", "zero-samples", "negative-samples", "out"],
    )
    def test_malformed_value_exits_2(self, tmp_path, capsys, command, overrides):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "report"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    @given(st.sampled_from(FUZZED_FIELDS), JSON_VALUES)
    @settings(max_examples=400, deadline=None)
    def test_parse_config_raises_only_config_error(self, path, value):
        raw = fuzz_base_config()
        if not path:
            raw = value
        else:
            *parents, leaf = path
            node = raw
            for key in parents:
                node = node[key]
            node[leaf] = value
            if path == ("source", "probs"):
                del raw["source"]["preset"]
        try:
            parse_config(raw)
        except ConfigError:
            pass

    def test_bad_alpha_rejected(self):
        raw = {
            "family": {"q": 2, "n": 2, "k": 2, "m": 1},
            "source": {"preset": "uniform"},
            "alphas": [0.5],
        }
        with pytest.raises(ConfigError):
            parse_config(raw)


class TestBucketCommand:
    def test_exact_mode_report(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            family={"q": 2, "n": 3, "k": 2, "m": 2, "kind": "polynomial"},
            bucket={"subset": "full", "mode": "exact"},
        )
        out = tmp_path / "bucket.json"
        assert main(["bucket", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        row = report["rows"][0]
        assert row["empirical"] == pytest.approx(2.75)
        assert row["empirical"] <= row["bound"]

    @pytest.mark.parametrize(
        "config_seed,flag", [(7, []), (3, ["--rng-seed", "7"])], ids=["config", "flag"]
    )
    def test_sampled_mode_records_seed(self, tmp_path, capsys, config_seed, flag):
        # --rng-seed overrides the config's rng_seed.
        cfg = write_config(
            tmp_path,
            bucket={"subset": "full", "mode": "sampled", "samples": 100},
            rng_seed=config_seed,
        )
        out = tmp_path / "bucket.json"
        assert main(["bucket", "--config", cfg, "--out", str(out), *flag]) == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["rng_seed"] == 7
        assert row["n_samples"] == 100

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_rng_seed_flag_refused_where_nothing_is_drawn(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--rng-seed", "7"])
        assert exc.value.code == 2

    def test_sampled_mode_beyond_int64_seed_space(self, tmp_path, capsys):
        # full_table on GF(2^4) with m=4 has 2^64 seeds.
        cfg = write_config(
            tmp_path,
            family={"q": 2, "n": 4, "k": 2, "m": 4, "kind": "full_table"},
            bucket={"subset": [0, 3, 5, 7, 9, 14], "mode": "sampled", "samples": 300},
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["bucket", "--config", cfg, "--out", str(a)]) == 0
        assert main(["bucket", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["rows"][0]["n_samples"] == 300

    def test_missing_bucket_section_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["bucket", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "subset,message",
        [([0, 99], "outside [0, 8)"), ([1, 1], "distinct"), ([], "non-empty")],
        ids=["out-of-range", "duplicate", "empty"],
    )
    def test_bad_subset_exits_2(self, tmp_path, capsys, subset, message):
        cfg = write_config(tmp_path, bucket={"subset": subset})
        out = tmp_path / "bucket.json"
        assert main(["bucket", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]


class TestSweepCommand:
    def test_csv_structure_and_slack(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, alphas=[1.5, 2], sweep={"m_values": [1, 2]}
        )
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 1 + 2 * 2
        slack_col = SWEEP_COLUMNS.index("bound_minus_empirical")
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[slack_col]) >= -1e-9
            assert cells[-1] == "true"

    def test_only_infinite_alpha_gives_header_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alphas=["inf"])
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().strip() == ",".join(SWEEP_COLUMNS)


class TestIntegerInputs:
    """Sources and bucket subsets are canonical input integers."""

    @pytest.mark.parametrize("subset", ["full", [6, 1, 3]])
    def test_run_bucket_passes_integers(self, monkeypatch, subset):
        seen = []
        real = harness.expected_max_bucket

        def spy(family, subset, **kwargs):
            seen.append(list(subset))
            return real(family, subset, **kwargs)

        monkeypatch.setattr(harness, "expected_max_bucket", spy)
        config = parse_config(
            {
                "family": {"q": 2, "n": 3, "k": 2, "m": 2},
                "source": {"preset": "uniform"},
                "bucket": {"subset": subset},
            }
        )
        run_bucket(config)
        assert seen == [list(range(8)) if subset == "full" else subset]

    def test_sweep_builds_source_once(self, monkeypatch):
        calls = []
        build_source = ExperimentConfig.build_source

        def counted(self, family):
            calls.append(family.m)
            return build_source(self, family)

        monkeypatch.setattr(ExperimentConfig, "build_source", counted)
        config = parse_config(
            {
                "family": {"q": 2, "n": 3, "k": 2, "m": 1},
                "source": {"preset": "uniform"},
                "alphas": [2],
                "sweep": {"m_values": [1, 2]},
            }
        )
        csv_text, ok = run_sweep(config)
        assert ok and len(csv_text.strip().splitlines()) == 1 + 2
        assert len(calls) == 1


class TestVerifyReportContents:
    def test_side_channel_adds_conditional_entropies(self, tmp_path):
        side = [[0.8, 0.2], [0.3, 0.7]] * 4
        cfg = write_config(tmp_path, side_channel=side, alphas=[2])
        from renyi_extract.config import load_config

        outcome = run_verify(load_config(cfg))
        assert outcome.passed
        assert "conditional" in outcome.report["entropies"]["2"]
        names = {b["name"] for b in outcome.report["bounds"]}
        assert "baseline-tv" not in names  # marginal baselines need no side info

    def test_baselines_present_without_side_channel(self, tmp_path):
        from renyi_extract.config import load_config

        cfg = write_config(tmp_path, epsilons=[0.5])
        outcome = run_verify(load_config(cfg))
        names = {b["name"] for b in outcome.report["bounds"]}
        assert "baseline-tv" in names
        assert "baseline-kl" in names


class TestTracedRun:
    """The benchmark tracer wraps package names from outside; it must keep
    finding them and must not change what the CLI writes."""

    TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

    @pytest.mark.parametrize(
        "command,overrides",
        [
            ("verify", {"family": {"q": 2, "n": 3, "k": 3, "m": 1}}),
            (
                "bucket",
                {
                    "family": {"q": 2, "n": 3, "k": 3, "m": 2},
                    "bucket": {"subset": [0, 2, 3, 5, 7], "mode": "sampled", "samples": 40},
                    "rng_seed": 3,
                },
            ),
        ],
    )
    def test_traced_report_matches_untraced(self, tmp_path, capsys, command, overrides):
        cfg = write_config(tmp_path, **overrides)
        plain, traced, spans = (tmp_path / n for n in ("plain", "traced", "spans.json"))
        assert main([command, "--config", cfg, "--out", str(plain)]) == 0
        src = str(Path(renyi_extract.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, str(self.TRACER), str(spans),
             command, "--config", cfg, "--out", str(traced)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(spans.read_text())["spans"]
        assert traced.read_bytes() == plain.read_bytes()


class TestPinnedReports:
    """The benchmark pins the sha256 of each workload's report, and of its
    GF(2^3) smoke instance, at the pinned seed; the CLI must keep writing
    exactly those bytes."""

    @pytest.mark.parametrize("name", ["certify-k3", "sweep-side", "bucket-sampled"])
    def test_smoke_report_matches_pinned_sha256(self, tmp_path, capsys, workloads, name):
        workload = workloads.SMOKE[name]
        cfg, out = tmp_path / "config.json", tmp_path / "report"
        cfg.write_text(json.dumps(workload.config(workloads.PINNED_SEED)))
        assert main([workload.command, "--config", str(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == workload.pinned_sha256

    @pytest.mark.parametrize("name", ["certify-k3", "sweep-side", "bucket-sampled"])
    def test_workload_report_matches_pinned_sha256(self, tmp_path, capsys, workloads, name):
        workload = workloads.WORKLOADS[name]
        cfg, out = tmp_path / "config.json", tmp_path / "report"
        cfg.write_text(json.dumps(workload.config(workloads.PINNED_SEED)))
        assert main([workload.command, "--config", str(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == workload.pinned_sha256
