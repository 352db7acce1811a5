"""Records, and what importing and running the package loads.

The config and result records are ``typing.NamedTuple``s: immutable and
compared by value.  The seven classes that validate their fields or cache a
value derive from ``renyi_extract._record.Record``, a hand-written frozen base
that behaves as the frozen dataclasses it replaced did.  Importing the CLI
applies ``dataclasses.dataclass`` to no class, and no run loads
``dataclasses``, ``fractions`` or ``decimal``: certificates are integer ranks.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from renyi_extract import cli
from renyi_extract.config import (
    BucketSpec, ExperimentConfig, FamilySpec, SweepSpec, parse_config,
)
from renyi_extract.extraction import (
    BucketEstimate, ExtractedJoint, ExtractionResult, Source, extract_joint,
)
from renyi_extract.families import (
    DEFAULT_BUDGET, HashFamily, UniversalityVerdict, certify_k_star, verify_universality,
)
from renyi_extract.fields import FieldParams
from renyi_extract.measures import Alpha, DivergenceRow, DivergenceTable, JointPmf, Pmf

SRC = Path(__file__).resolve().parents[1] / "src"

# Run in a fresh interpreter: record the classes dataclasses.dataclass is
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

# Run in a fresh interpreter: the given CLI commands on one config, then the
# modules among these that they loaded and numpy did not.
RUN_PROBE = """
import json, sys
import numpy
watched = {"dataclasses", "decimal", "fractions"} - set(sys.modules)
from renyi_extract.cli import main
config, out, *commands = sys.argv[1:]
for command in commands:
    assert main([command, "--config", config, "--out", out]) == 0, command
print(json.dumps(sorted(watched & set(sys.modules))))
"""


def _probe(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def fresh_import():
    return _probe(IMPORT_PROBE)


class TestStartup:
    def test_cli_import_makes_no_dataclass(self, fresh_import):
        assert fresh_import["dataclasses"] == []

    def test_cli_import_leaves_numpy_random_unloaded(self, fresh_import):
        if fresh_import["numpy_random_by_numpy"]:
            pytest.skip("this numpy imports numpy.random with numpy itself")
        assert not fresh_import["numpy_random"]

    def test_sweep_and_bucket_load_neither_dataclasses_nor_fractions(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(CONFIG))
        out = str(tmp_path / "out")
        assert _probe(RUN_PROBE, str(config), out, "sweep", "bucket") == []

    def test_verify_loads_neither_fractions_nor_decimal(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(CONFIG))
        assert _probe(RUN_PROBE, str(config), str(tmp_path / "out"), "verify") == []

    def test_certification_is_exact(self, gf8):
        # Each certificate is the integer rank r: collision probability q^-r.
        family = HashFamily("polynomial", gf8, 3, 1)
        assert type(verify_universality(family, 2)) is int
        for v in certify_k_star(family):
            assert all(type(x) is int for x in v[:3]) and type(v.passed) is bool
            assert v.rank == v.required == v.l - 1


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
    UniversalityVerdict(2, 1, 1, True),
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
            lambda: UniversalityVerdict(3, 4, 4, True),
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


FIELD = FieldParams(2, 4, (1, 1, 0, 0))
PMF = Pmf(np.array([0.25, 0.75]))

# (class, field names, positional arguments, repr) of each validating record.
VALIDATING = [
    (Alpha, ("value",), (2.5,), "Alpha(value=2.5)"),
    (FieldParams, ("q", "n", "modulus"), (2, 4, (1, 1, 0, 0)),
     "FieldParams(q=2, n=4, modulus=(1, 1, 0, 0))"),
    (HashFamily, ("kind", "field", "k", "m"), ("polynomial", FIELD, 3, 2),
     "HashFamily(kind='polynomial', field=FieldParams(q=2, n=4, modulus=(1, 1, 0, 0)),"
     " k=3, m=2)"),
    (Pmf, ("probs", "base_q"), (np.array([0.25, 0.75]), 3),
     "Pmf(probs=array([0.25, 0.75]), base_q=3)"),
    (JointPmf, ("probs", "base_q"), (np.array([[0.25, 0.75]]), 2),
     "JointPmf(probs=array([[0.25, 0.75]]), base_q=2)"),
    (Source, ("probs", "side_channel"), (PMF, np.ones((2, 1))),
     "Source(probs=Pmf(probs=array([0.25, 0.75]), base_q=2),"
     " side_channel=array([[1.],\n       [1.]]))"),
    (ExtractedJoint, ("base_q", "_groups", "_rep_columns", "_layout"),
     (2, (), np.zeros(1), ()),
     "ExtractedJoint(base_q=2, _groups=(), _rep_columns=array([0.]), _layout=())"),
]
BY_VALUE = (Alpha, FieldParams, HashFamily)


@pytest.mark.parametrize(
    "cls,names,args,text", VALIDATING, ids=[case[0].__name__ for case in VALIDATING]
)
class TestValidatingRecords:
    """The behaviour of the frozen dataclasses that ``Record`` replaced."""

    def test_repr_by_position_and_keyword(self, cls, names, args, text):
        assert repr(cls(*args)) == text
        assert repr(cls(**dict(zip(names, args)))) == text
        assert repr(cls(*args[:1], **dict(zip(names[1:], args[1:])))) == text

    def test_fields_cannot_be_set_or_deleted(self, cls, names, args, text):
        record = cls(*args)
        for name in names + ("other",):
            with pytest.raises(AttributeError):
                setattr(record, name, args[0])
        for name in names:
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == text

    def test_equality_and_hash(self, cls, names, args, text):
        a, b = cls(*args), cls(*args)
        assert a == a and hash(a) == hash(a)
        assert a != args and a != text
        if cls in BY_VALUE:
            assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
        else:
            assert a != b and len({a, b}) == 2
            assert hash(a) == object.__hash__(a)

    def test_bad_arguments(self, cls, names, args, text):
        for bad_call in (
            lambda: cls(),
            lambda: cls(*args, bogus=1),
            lambda: cls(*args, args[-1]),
            lambda: cls(*args, **{names[0]: args[0]}),
        ):
            with pytest.raises(TypeError):
                bad_call()

    def test_post_init_runs_once_when_patched(self, cls, names, args, text, monkeypatch):
        seen = []
        original = cls.__post_init__

        def counted(record):
            seen.append(record)
            original(record)

        monkeypatch.setattr(cls, "__post_init__", counted)
        record = cls(*args)
        assert seen == [record]
        assert cls(**dict(zip(names, args))) is seen[1] and len(seen) == 2


def test_validating_defaults():
    assert Pmf(np.ones(2) / 2).base_q == JointPmf(np.ones((1, 2)) / 2).base_q == 2
    assert Source(PMF).side_channel is None
    assert repr(Source(PMF)) == (
        "Source(probs=Pmf(probs=array([0.25, 0.75]), base_q=2), side_channel=None)"
    )


def test_cached_properties_are_computed_once(gf8):
    joint = JointPmf(np.full((4, 2), 0.125))
    layout = joint._conditional_layout
    assert joint._conditional_layout is layout
    assert vars(joint)["_conditional_layout"] is layout
    source = Source(Pmf(np.full(8, 0.125)))
    extracted = extract_joint(HashFamily("polynomial", gf8, 2, 1), source).joint
    assert type(extracted) is ExtractedJoint
    probs = extracted.probs
    assert extracted.probs is probs and vars(extracted)["probs"] is probs
    assert probs.sum() == pytest.approx(1.0)


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
