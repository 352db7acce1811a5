import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import renyi_extract
from renyi_extract import bounds as bd
from renyi_extract.cli import main
from renyi_extract.config import parse_config
from renyi_extract.errors import ConfigError
from renyi_extract.harness import SWEEP_COLUMNS, run_verify


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

    def test_sampled_mode_records_seed(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            bucket={"subset": "full", "mode": "sampled", "samples": 100},
            rng_seed=7,
        )
        out = tmp_path / "bucket.json"
        assert main(["bucket", "--config", cfg, "--out", str(out)]) == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["rng_seed"] == 7
        assert row["n_samples"] == 100

    def test_missing_bucket_section_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["bucket", "--config", cfg]) == 2


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
