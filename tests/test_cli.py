import hashlib
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
from renyi_extract import harness, measures
from renyi_extract.config import ExperimentConfig
from renyi_extract.fields import FieldParams
from renyi_extract.harness import SWEEP_COLUMNS, run_bucket, run_sweep, run_verify
from renyi_extract.measures import Alpha


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

    @pytest.mark.parametrize(
        "args,printed",
        [
            # q below 2 and non-finite inputs are refused.
            ("--name joint-real --q 1 --m 1 --k 2 --alpha 2 --H 1", None),
            ("--name joint-real --q 0 --m 1 --k 2 --alpha 2 --H 1", None),
            ("--name joint-real --m 1 --k 2 --alpha 2 --H nan", None),
            ("--name joint-real --m 1 --k 2 --alpha inf --H 1", None),
            ("--name gamma --y nan", None),
            ("--regime corollary --alpha 1.5 --H 3 --eps nan", None),
            ("--name alpha-above-k --m 1 --k 0 --alpha 2 --H 1", None),
            # m below 1 and a negative min-entropy H are refused.
            ("--name joint-real --q 2 --m -1 --k 3 --alpha 2 --H 3", None),
            ("--name joint-real --q 2 --m 0 --k 3 --alpha 2 --H 3", None),
            ("--name bucket --q 2 --m -2 --k 2 --A 4", None),
            ("--name dk-simple --m 0 --k 2 --H 2000", None),
            ("--name joint-real --q 2 --m 1 --k 3 --alpha 2 --H -3", None),
            ("--name joint-real --m 1 --k 3 --alpha 3 --H=-1e308", None),
            ("--regime min-entropy --k 2 --H -1 --eps 0.1", None),
            # An integer too large for a float, and a result that is NaN.
            pytest.param(
                "--name joint-real --m 1" + "0" * 400 + " --k 2 --alpha 2 --H 1",
                None,
                id="m-beyond-float",
            ),
            ("--regime integer-alpha --alpha 1e200 --H 3 --eps 1e308", None),
            # Results beyond floating point print inf (or 0 below it).
            ("--name bucket --m 5000 --k 2 --A 4", "inf"),
            ("--name dk-simple --m 2000 --k 2 --H 0", "inf"),
            ("--name dk-simple --m 1 --k 2 --H 2000", "0"),
            # Thresholds at the float edges of epsilon are their limits.
            ("--regime corollary --q 2 --alpha 1.5 --H 3 --eps 5e-324", "-inf"),
            ("--regime integer-alpha --alpha 2 --H 3 --eps 1e308", "inf"),
            ("--regime min-entropy --k 2 --H 3 --eps 5e-324", "-inf"),
            ("--regime sharp-gamma --k 2 --H 3 --eps 5e-324", "-inf"),
            ("--regime sharp-gamma --k 2 --H 3 --eps 1e308", "inf"),
            # Only an intermediate leaves floating point: the value is exact.
            ("--name infty --m 3000 --k 2 --H 0", "4489.97753877"),
            ("--name infty --m 1 --k 2 --H 3000", "0.5"),
            ("--name bucket --m 3000 --k 4 --A 4", "1.13922635531e+223"),
        ],
    )
    def test_float_edges_never_end_in_a_traceback(self, capsys, args, printed):
        status = main(["bound"] + args.split())
        out, err = capsys.readouterr()
        if printed is None:
            assert status == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert status == 0 and err == ""
            assert out.split(" = ")[1] == printed + "\n"

    @pytest.mark.parametrize(
        "flags,message",
        [
            ("--m 0 --H 3", "--m must be >= 1, got 0"),
            ("--m 2 --H -0.5", "--H must be >= 0, got -0.5"),
        ],
    )
    def test_impossible_m_and_H_name_the_flag(self, capsys, flags, message):
        argv = "bound --name joint-real --k 3 --alpha 2 " + flags
        assert main(argv.split()) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

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

    @pytest.mark.parametrize("alpha", ["inf", "infinity"])
    def test_infinite_order(self, capsys, alpha):
        assert main(["entropy", "--probs", "0.5,0.25,0.25", "--alpha", alpha]) == 0
        assert stdout_value(capsys) == pytest.approx(1.0, abs=1e-10)

    def test_units_bits(self, capsys):
        args = ["entropy", "--probs", "0.25,0.25,0.25,0.25", "--alpha", "2", "--q", "4"]
        assert main(args) == 0
        assert stdout_value(capsys) == pytest.approx(1.0, abs=1e-12)
        assert main(args + ["--units", "bits"]) == 0
        assert stdout_value(capsys) == pytest.approx(2.0, abs=1e-12)

    def test_unnormalized_exits_2(self, capsys):
        assert main(["entropy", "--probs", "0.5,0.6", "--alpha", "2"]) == 2

    @pytest.mark.parametrize("alpha", ["1e400", "Infinity", "nan"])
    def test_non_finite_numeric_order_exits_2(self, capsys, alpha):
        # Only the names "inf" and "infinity" select the limit.
        assert main(["entropy", "--probs", "0.5,0.5", "--alpha", alpha]) == 2
        assert "must be finite" in capsys.readouterr().err


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

    def test_counted_power_sum_beyond_floats_exits_2(self, tmp_path, capsys):
        # A point mass on GF(2^4), k=3, m=4 at alpha = 258: every seed's
        # column is a point mass, so each column's power sum is 16^257 and
        # the joint's is 4096 seeds x 2^1016, both beyond floating point.
        cfg = write_config(
            tmp_path,
            family={"q": 2, "n": 4, "k": 3, "m": 4},
            source={"preset": "point-mass"},
            alphas=[258],
        )
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "alpha=258.0 is too large for floating point" in err
        assert "Traceback" not in err

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


class TestOverflowingSum:
    """Probabilities whose sum leaves floating point are a config error (exit
    2), not fsum's OverflowError traceback."""

    FAMILY = {"q": 2, "n": 1, "k": 2, "m": 1}

    def _run(self, tmp_path, *args):
        src = str(Path(renyi_extract.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, "-m", "renyi_extract.cli", *args],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )

    def test_entropy_command(self, tmp_path):
        proc = self._run(tmp_path, "entropy", "--probs", "1e308,1e308", "--alpha", "2")
        assert proc.returncode == 2
        assert "error: probabilities sum to inf, not 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"source": {"probs": [1e308, 1e308]}}, "probabilities sum to inf"),
            (
                {
                    "source": {"probs": [0.5, 0.5]},
                    "side_channel": [[1e308, 1e308], [0.5, 0.5]],
                },
                "side-channel row 0's entries sum to inf",
            ),
        ],
    )
    def test_verify(self, tmp_path, config, message):
        cfg, out = tmp_path / "config.json", tmp_path / "report.json"
        cfg.write_text(json.dumps({"family": self.FAMILY, **config}))
        proc = self._run(tmp_path, "verify", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "eps,met,infinite",
        [
            # eps (alpha - 1) ln q underflows to 0: no m meets a threshold.
            (5e-324, 0, 0),
            # 2 eps (alpha - 1) ln q overflows: the integer-alpha and
            # min-entropy thresholds are +inf; the corollary's stay finite.
            (1e308, 4, 2),
        ],
    )
    def test_epsilon_at_the_float_edges(self, tmp_path, capsys, eps, met, infinite):
        cfg = write_config(tmp_path, alphas=[1.5, 2], epsilons=[eps])
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        notes = [row["note"] for row in json.loads(out.read_text())["bounds"]]
        thresholds = [n for n in notes if n.startswith("m_threshold=")]
        assert len(thresholds) == met
        assert thresholds.count("m_threshold=inf") == infinite

    def test_budget_flag_exits_2_when_exceeded(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["verify", "--config", cfg, "--budget", "5"]) == 2

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

    @pytest.mark.parametrize("command", ["verify", "sweep", "bucket"])
    def test_family_beyond_int64_exits_2(self, tmp_path, capsys, command):
        # A prime q = 2147483659 field fits a budget of 10^11, but 2 seed
        # digits x (q-1)^2 leaves int64: exit 2 naming q, with no traceback,
        # no MemoryError from listing Z_q and no wrong table.
        cfg = write_config(
            tmp_path,
            family={"q": 2147483659, "n": 1, "k": 2, "m": 1},
            source={"preset": "point-mass"},
            bucket={"subset": [0, 1], "mode": "sampled", "samples": 10},
        )
        out = tmp_path / "report"
        argv = [command, "--config", cfg, "--out", str(out), "--budget", "100000000000"]
        assert main(argv) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "q=2147483659 is too large" in err
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
            ("verify", {"alphas": [True]}),
            ("verify", {"alphas": ["2"]}),
            ("bucket", {"bucket": {"mode": "exact", "samples": 7}}),
            ("verify", {"alphas": [math.inf, 2]}),
            ("verify", {"alphas": ["1e400", 2]}),
            ("verify", {"alphas": [2, 2.0, 1.5]}),
            ("verify", {"source": {"preset": "uniform", "param": 0.3}}),
            ("verify", {"source": {"preset": "point-mass", "param": 0.3}}),
            ("verify", {"source": {"probs": [0.125] * 8, "param": 0.3}}),
        ],
        ids=["alphas", "epsilons", "subset", "m_values", "no-m_values", "rng_seed",
             "q", "param", "zero-samples", "negative-samples", "out",
             "bool-alpha", "string-alpha", "exact-samples",
             "infinity-literal-alpha", "overflowing-alpha", "repeated-alpha",
             "uniform-param", "point-mass-param", "probs-param"],
    )
    def test_malformed_value_exits_2(self, tmp_path, capsys, command, overrides):
        cfg = write_config(tmp_path, **overrides)
        # json.dumps writes math.inf as the literal Infinity; the overflowing
        # case needs the bare number 1e400, which JSON also reads as inf.
        Path(cfg).write_text(Path(cfg).read_text().replace('"1e400"', "1e400"))
        out = tmp_path / "report"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if "param" in overrides.get("source", {}):
            assert "param" in err  # a stray param is named, not ignored

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

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_joint_over_budget_exits_2(self, tmp_path, capsys, command):
        # The row reduction (6 seed digits x 16 rows x 6 pivots) fits a
        # budget of 600, but the 8 coset representatives' columns hold
        # 4 outputs x 100 side symbols each: 3,888 cells charged in all.
        cfg = write_config(
            tmp_path,
            family={"q": 2, "n": 3, "k": 2, "m": 2},
            side_channel=[[0.01] * 100] * 8,
            budget=600,
        )
        out = tmp_path / "report"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "exceeds budget 600" in err
        assert "Traceback" not in err

    def test_bucket_digit_matrix_over_budget_exits_2(self, tmp_path, capsys):
        # 2000 samples x 4 elements fit 8000, but the full_table family on
        # GF(2^10) with m=4 has 4096 seed digits: hash_table would hold a
        # 2000 x 4096 digit matrix.
        cfg = write_config(
            tmp_path,
            family={"q": 2, "n": 10, "k": 2, "m": 4, "kind": "full_table"},
            bucket={"subset": [0, 1, 2, 3], "mode": "sampled", "samples": 2000},
            budget=8000,
        )
        out = tmp_path / "report"
        assert main(["bucket", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "exceeds budget 8000" in err
        assert "Traceback" not in err

    def test_repeated_order_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alphas=[2, 2.0, 1.5])
        assert main(["verify", "--config", cfg]) == 2
        assert "order 2 repeats" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "config_seed,flag", [(-3, []), (3, ["--rng-seed", "-3"])], ids=["config", "flag"]
    )
    def test_negative_rng_seed_is_a_config_error(self, tmp_path, capsys, config_seed, flag):
        # A negative seed from the flag is refused as the config's is, before
        # anything is drawn.
        cfg = write_config(
            tmp_path, bucket={"subset": "full", "mode": "sampled"}, rng_seed=config_seed
        )
        assert main(["bucket", "--config", cfg, *flag]) == 2
        assert capsys.readouterr().err == "error: rng_seed must be >= 0, got -3\n"

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


class TestUnwritableReport:
    """A report path that cannot be opened is a usage error: exit 2 with one
    `error:` line naming the path, not exit 1 with a traceback."""

    CONFIGS = {
        "verify": {},
        "sweep": {"sweep": {"m_values": [1]}},
        "bucket": {"bucket": {"subset": "full", "mode": "exact"}},
    }

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    @pytest.mark.parametrize("command", ["verify", "sweep", "bucket"])
    def test_exits_2_naming_the_path(self, tmp_path, capsys, command, target, where):
        out = tmp_path if target == "directory" else tmp_path / "missing" / "report"
        overrides = dict(self.CONFIGS[command])
        flag = ["--out", str(out)]
        if where == "config":
            overrides["out"], flag = str(out), []
        cfg = write_config(tmp_path, **overrides)
        assert main([command, "--config", cfg, *flag]) == 2
        assert not (tmp_path / "missing").exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        line = err.strip().splitlines()[-1]
        assert line.startswith(f"error: cannot write report to {out}: ")


class TestNoScalarFieldArithmetic:
    """Every run path reads h(s, x) from hash_table's closed-form basis; the
    scalar evaluate, gf_mul and gf_add are only the tests' oracle."""

    @pytest.fixture(autouse=True)
    def forbid_scalar_arithmetic(self, monkeypatch):
        from renyi_extract import extraction, families, fields

        def forbidden(*args, **kwargs):
            raise AssertionError("scalar field arithmetic on a run path")

        for module in (families, fields):
            monkeypatch.setattr(module, "gf_mul", forbidden)
            monkeypatch.setattr(module, "gf_add", forbidden)
        for module in (families, extraction):
            monkeypatch.setattr(module, "evaluate", forbidden)

    @pytest.mark.parametrize(
        "kind,family,status",
        [
            ("polynomial", {"q": 2, "n": 3, "k": 3, "m": 2}, 0),
            ("polynomial", {"q": 3, "n": 2, "k": 2, "m": 1}, 0),
            ("full_table", {"q": 2, "n": 2, "k": 3, "m": 1}, 0),
            ("constant", {"q": 2, "n": 2, "k": 2, "m": 1}, 1),
        ],
        ids=["poly-gf8", "poly-gf9", "full_table", "constant"],
    )
    def test_commands_run_without_scalar_arithmetic(
        self, tmp_path, capsys, kind, family, status
    ):
        cfg = write_config(tmp_path, family={**family, "kind": kind},
                           alphas=[1.5, 2, 3], sweep={"m_values": [1]})
        # The constant kind fails certification and the sweep's bounds.
        assert main(["verify", "--config", cfg]) == status
        assert main(["sweep", "--config", cfg]) == status
        for bucket in ({"subset": "full", "mode": "exact"},
                       {"subset": "full", "mode": "sampled", "samples": 50}):
            cfg = write_config(tmp_path, family={**family, "kind": kind}, bucket=bucket)
            assert main(["bucket", "--config", cfg]) == 0
        assert "scalar field arithmetic" not in capsys.readouterr().err


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


class TestEntropiesOncePerOrder:
    """A run computes each source entropy once per order and builds the
    (X, Z) joint once, however many bounds, epsilons or output lengths read
    them."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"renyi_entropy": [], "conditional_renyi_entropy": [], "xz": 0}
        for name in ("renyi_entropy", "conditional_renyi_entropy"):
            original = getattr(measures, name)

            def spy(dist, a, _original=original, _name=name):
                calls[_name].append(measures.as_alpha(a))
                return _original(dist, a)

            monkeypatch.setattr(measures, name, spy)
        init = measures.JointPmf.__post_init__

        def counted(joint):
            calls["xz"] += 1
            init(joint)

        monkeypatch.setattr(measures.JointPmf, "__post_init__", counted)
        return calls

    def test_verify(self, calls, workloads):
        report = run_verify(parse_config(workloads.WORKLOADS["certify-k3"].config(0)))
        # The entropy table, the bound rows and the baselines read these 6
        # orders 26 times in all.
        orders = calls["renyi_entropy"]
        assert report["all_satisfied"]
        assert len(orders) == len(set(orders)) == 6

    def test_verify_with_side_channel(self, calls):
        config = parse_config(
            {
                "family": {"q": 2, "n": 3, "k": 3, "m": 1},
                "source": {"preset": "geometric", "param": 0.8},
                "side_channel": [[0.25, 0.75], [0.5, 0.5]] * 4,
                "alphas": [1.5, 2, 3, "inf"],
                "epsilons": [0.1, 0.2, 0.3],
            }
        )
        run_verify(config)
        for name in ("renyi_entropy", "conditional_renyi_entropy"):
            assert len(calls[name]) == len(set(calls[name]))
        assert len(calls["conditional_renyi_entropy"]) == 3
        assert calls["xz"] == 1

    def test_sweep(self, calls):
        config = parse_config(
            {
                "family": {"q": 2, "n": 3, "k": 3, "m": 1},
                "source": {"preset": "geometric", "param": 0.8},
                "side_channel": [[0.25, 0.75], [0.5, 0.5]] * 4,
                "alphas": [1.5, 2, 3],
                "sweep": {"m_values": [1, 2, 3]},
            }
        )
        csv_text, _ = run_sweep(config)
        assert len(csv_text.strip().splitlines()) == 1 + 3 * 3
        assert calls["conditional_renyi_entropy"] == [Alpha(1.5), Alpha(2.0), Alpha(3.0)]
        assert calls["xz"] == 1


class TestVerifyReportContents:
    def test_side_channel_adds_conditional_entropies(self, tmp_path):
        side = [[0.8, 0.2], [0.3, 0.7]] * 4
        cfg = write_config(tmp_path, side_channel=side, alphas=[2])
        from renyi_extract.config import load_config

        report = run_verify(load_config(cfg))
        assert report["all_satisfied"]
        assert "conditional" in report["entropies"]["2"]
        names = {b["name"] for b in report["bounds"]}
        assert "baseline-tv" not in names  # marginal baselines need no side info

    def test_baselines_present_without_side_channel(self, tmp_path):
        from renyi_extract.config import load_config

        cfg = write_config(tmp_path, epsilons=[0.5])
        report = run_verify(load_config(cfg))
        names = {b["name"] for b in report["bounds"]}
        assert "baseline-tv" in names
        assert "baseline-kl" in names


    def test_negative_entropy_exits_2(self, tmp_path, capsys, monkeypatch):
        # A bound row refuses a negative entropy rather than report a verdict.
        from renyi_extract.extraction import ExtractionResult

        monkeypatch.setattr(ExtractionResult, "source_entropy", lambda self, a: -1.0)
        cfg, out = write_config(tmp_path), tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "entropy >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "sweep", "bucket"])
    def test_every_verdict_comes_from_bounds_satisfied(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # The same passing config fails everywhere once the one rule says no.
        cfg, out = write_config(tmp_path, bucket={"subset": "full"}), tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        monkeypatch.setattr(bd, "satisfied", lambda empirical, bound: False)
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        if command == "sweep":
            rows = out.read_text().splitlines()[1:]
            assert rows and all(r.endswith(",false") for r in rows)
        else:
            report = json.loads(out.read_text())
            rows = report["bounds" if command == "verify" else "rows"]
            assert rows and not any(r["satisfied"] for r in rows)


class TestTracedRun:
    """The benchmark tracer wraps package names from outside; it must keep
    finding them and must not change what the CLI writes."""

    TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

    def _traced(self, spans, *args):
        """Run the CLI under the tracer; every traced name is wrapped before
        the command runs, so a name that is gone fails any command."""
        src = str(Path(renyi_extract.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, str(self.TRACER), str(spans), *args],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(spans.read_text())["spans"]
        return proc

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
        self._traced(spans, command, "--config", cfg, "--out", str(traced))
        assert traced.read_bytes() == plain.read_bytes()

    def test_traced_entropy_matches_untraced(self, tmp_path, capsys):
        args = ["entropy", "--probs", "0.5,0.5", "--alpha", "2"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert self._traced(tmp_path / "spans.json", *args).stdout == plain


GEOMETRIC_GF9 = {
    "family": {"q": 3, "n": 2, "k": 2, "m": 1},
    "source": {"preset": "geometric", "param": 0.9},
    "alphas": [1.25, 1.5, 2, 2.5, 3, "inf"],
    "epsilons": [0.1, 2.0, 5.0],
}
CONSTANT_GF8 = {
    "family": {"q": 2, "n": 3, "k": 2, "m": 1, "kind": "constant"},
    "source": {"preset": "uniform"},
    "alphas": [1.5, 2, "inf"],
    "epsilons": [0.1],
}

# (command, config, exit code, sha256 of the report, bound names it reaches).
PINNED_BOUND_REPORTS = {
    "all-bound-names": (
        "verify",
        GEOMETRIC_GF9,
        0,
        "1970802f4500c7503ab25ce703bcc2eac9090d81f6387ec6e59a3a6e09658415",
        8,
    ),
    "side-channel": (
        "verify",
        dict(GEOMETRIC_GF9, side_channel=[[0.8, 0.2], [0.3, 0.7], [0.5, 0.5]] * 3),
        0,
        "9a4895c34b8d1faae6b0d02565d198109282bf09e1b9e7db0373872f0e45ede6",
        6,
    ),
    "constant-verify": (
        "verify",
        CONSTANT_GF8,
        1,
        "2ac57d1166e7e2718f3a9a38dd94fd96b93c30f904164b23913873ac9236e2d4",
        0,
    ),
    "constant-sweep": (
        "sweep",
        dict(CONSTANT_GF8, sweep={"m_values": [1, 2]}),
        1,
        "7af6e026fd4847d887c78815761a724a8c6d508ae86b426e3b9351c996ef6ead",
        None,
    ),
    "constant-bucket": (
        "bucket",
        dict(CONSTANT_GF8, bucket={"subset": "full"}),
        1,
        "be271a2349a5c55aee29cd5d23f45f49fc45e488ddbdedf761dcfd87fa1b6ddf",
        None,
    ),
}


class TestPinnedReports:
    """The benchmark pins the sha256 of each workload's report, and of its
    GF(2^3) smoke instance, at the pinned seed; the CLI must keep writing
    exactly those bytes."""

    @pytest.mark.parametrize("case", PINNED_BOUND_REPORTS)
    def test_bound_report_matches_pinned_sha256(self, tmp_path, capsys, case):
        # Every bound row name, a side channel, and each command's failing
        # verdict, pinned byte for byte with its exit code.
        command, config, code, sha256, n_names = PINNED_BOUND_REPORTS[case]
        cfg, out = tmp_path / "config.json", tmp_path / "report"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
        if command == "verify":
            report = json.loads(out.read_text())
            assert len({b["name"] for b in report.get("bounds", [])}) == n_names
            assert ("error" in report) == (code == 1)

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
