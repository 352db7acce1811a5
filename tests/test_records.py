"""Config and result records, and what importing the package creates.

The records are ``typing.NamedTuple``s: immutable and compared by value.
Only the classes that validate their fields or cache a value are
dataclasses, so importing the CLI generates and compiles few methods.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from renyi_extract import cli
from renyi_extract.config import (
    BucketSpec, ExperimentConfig, FamilySpec, SweepSpec, parse_config,
)
from renyi_extract.extraction import BucketEstimate, ExtractionResult
from renyi_extract.families import DEFAULT_BUDGET, UniversalityVerdict
from renyi_extract.measures import Alpha, DivergenceRow, DivergenceTable

SRC = Path(__file__).resolve().parents[1] / "src"

DATACLASSES = {
    "Alpha", "FieldParams", "HashFamily", "Pmf", "JointPmf", "Source", "ExtractedJoint",
}

# Run in a fresh interpreter: count the classes dataclasses.dataclass is
# applied to while the CLI is imported, and see whether numpy.random loads.
IMPORT_PROBE = """
import dataclasses, json, sys
made = []
original = dataclasses.dataclass
def counted(cls=None, /, **kwargs):
    def apply(c):
        made.append(c.__qualname__)
        return original(**kwargs)(c)
    return apply if cls is None else apply(cls)
dataclasses.dataclass = counted
import numpy
by_numpy = "numpy.random" in sys.modules
import renyi_extract.cli
print(json.dumps({"dataclasses": made, "numpy_random_by_numpy": by_numpy,
                  "numpy_random": "numpy.random" in sys.modules}))
"""


@pytest.fixture(scope="module")
def fresh_import():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


class TestStartup:
    def test_only_validating_classes_are_dataclasses(self, fresh_import):
        made = fresh_import["dataclasses"]
        assert len(made) == len(DATACLASSES)
        assert set(made) == DATACLASSES

    def test_cli_import_leaves_numpy_random_unloaded(self, fresh_import):
        if fresh_import["numpy_random_by_numpy"]:
            pytest.skip("this numpy imports numpy.random with numpy itself")
        assert not fresh_import["numpy_random"]


CONFIG = {
    "family": {"q": 2, "n": 3, "k": 2, "m": 1},
    "source": {"preset": "uniform"},
    "alphas": [2, "inf"],
    "epsilons": [0.1],
    "bucket": {"subset": "full", "mode": "sampled", "samples": 10},
    "sweep": {"m_values": [1]},
    "out": "report.json",
}

RECORDS = [
    FamilySpec(2, 3, 2, 1),
    BucketSpec(),
    SweepSpec((1, 2)),
    parse_config(CONFIG),
    DivergenceRow(Alpha(2.0), 0.1, 0.2),
    DivergenceTable((), 0.0, 0.0, 0.0),
    UniversalityVerdict(2, Fraction(1, 2), Fraction(1, 2), True),
    ExtractionResult(None, None, None),
    BucketEstimate(1.5, None),
]


class TestRecords:
    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_fields_cannot_be_set(self, record):
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FamilySpec(2, 3, 2, 1),
            lambda: UniversalityVerdict(3, Fraction(1, 16), Fraction(1, 16), True),
            lambda: BucketEstimate(2.75, None),
        ],
        ids=["FamilySpec", "UniversalityVerdict", "BucketEstimate"],
    )
    def test_compared_and_hashed_by_value(self, make):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        changed = a._replace(**{a._fields[0]: 5})
        assert changed != a and getattr(changed, a._fields[0]) == 5

    def test_defaults(self):
        assert FamilySpec(2, 3, 2, 1).kind == "polynomial"
        assert BucketSpec() == BucketSpec("full", "exact", 1000)
        config = ExperimentConfig(FamilySpec(2, 3, 2, 1), {}, (), ())
        assert config[4:] == (None, DEFAULT_BUDGET, 0, None, None, None, None)


class TestOverridesReachTheRun:
    """--budget and --rng-seed replace the config's fields, and the run gets
    the replaced config."""

    @pytest.fixture
    def seen(self, monkeypatch):
        seen = []

        def fake(name, result):
            def run(config):
                seen.append(config)
                return result
            monkeypatch.setattr(cli, name, run)

        fake("run_verify", {"certification": {"is_k_star_universal": True},
                            "all_satisfied": True})
        fake("run_bucket", {"all_satisfied": True})
        fake("run_sweep", ("", True))
        return seen

    @pytest.mark.parametrize("command", ["verify", "sweep", "bucket"])
    def test_budget(self, tmp_path, capsys, seen, command):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(CONFIG, budget=500, rng_seed=3)))
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        assert cli.main(argv + ["--budget", "12345"]) == 0
        (config,) = seen
        assert type(config) is ExperimentConfig
        assert config == parse_config(json.loads(path.read_text()))._replace(
            budget=12345
        )

    def test_rng_seed(self, tmp_path, capsys, seen):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(CONFIG, budget=500, rng_seed=3)))
        argv = ["bucket", "--config", str(path), "--out", str(tmp_path / "out")]
        assert cli.main(argv + ["--rng-seed", "7", "--budget", "900"]) == 0
        (config,) = seen
        assert (config.rng_seed, config.budget) == (7, 900)
        assert config._replace(rng_seed=3, budget=500) == parse_config(
            json.loads(path.read_text())
        )
