"""Records, and what importing and running the package loads.

Every record derives from ``renyi_extract._record.Record``, a hand-written
frozen base: the config and result records are immutable, compared by value
and copied with changes by ``_replace``, as the ``typing.NamedTuple``s they
replaced were, and the classes that validate their fields or cache a value
behave as the frozen dataclasses they replaced did.  Records are read by
field name, never by position.  Importing the CLI applies
``dataclasses.dataclass`` to no class and makes no ``collections.namedtuple``
class for the package, and no run loads ``dataclasses``, ``fractions`` or
``decimal``: certificates are integer ranks.  Only a run that certifies
imports the certifier's ``_certify`` module, and only a run that reaches
their phase imports ``_divergence``, ``_ranking`` and ``_translates``: a
sampled bucket compiles none of them.  Each command loads its own code:
importing the package loads no submodule, verify and sweep load ``_verify``
and a bucket experiment ``_bucket``, and neither importing the CLI nor a
sampled bucket loads ``measures``.
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
from renyi_extract._ranking import ExtractedJoint
from renyi_extract.extraction import BucketEstimate, ExtractionResult, extract_joint
from renyi_extract.families import (
    DEFAULT_BUDGET, HashFamily, UniversalityVerdict, certify_k_star, verify_universality,
)
from renyi_extract.fields import FieldParams
from renyi_extract.measures import Alpha, JointPmf, Pmf, Source

SRC = Path(__file__).resolve().parents[1] / "src"

# Run in a fresh interpreter: record the classes dataclasses.dataclass is
# applied to and the package's classes collections.namedtuple makes (as
# typing.NamedTuple does) while the CLI is imported, and see whether
# numpy.random loads.
IMPORT_PROBE = """
import collections, dataclasses, json, sys
made, tuples = [], []
original = dataclasses.dataclass
def counted(cls=None, /, **kwargs):
    def apply(c):
        made.append(c.__qualname__)
        return original(**kwargs)(c)
    return apply if cls is None else apply(cls)
dataclasses.dataclass = counted
original_tuple = collections.namedtuple
def counted_tuple(typename, field_names, **kwargs):
    kwargs.setdefault("module", sys._getframe(1).f_globals.get("__name__"))
    cls = original_tuple(typename, field_names, **kwargs)
    if cls.__module__.split(".")[0] == "renyi_extract":
        tuples.append(cls.__qualname__)
    return cls
collections.namedtuple = counted_tuple
import numpy
by_numpy = "numpy.random" in sys.modules
import renyi_extract.cli
print(json.dumps({"dataclasses": made, "namedtuples": tuples,
                  "numpy_random_by_numpy": by_numpy,
                  "numpy_random": "numpy.random" in sys.modules}))
"""

# Run in a fresh interpreter: the given CLI commands on one config, then the
# modules among the watched ones (a JSON list) that they loaded and numpy did
# not.
RUN_PROBE = """
import json, sys
import numpy
watched = set(json.loads(sys.argv[1])) - set(sys.modules)
from renyi_extract.cli import main
config, out, *commands = sys.argv[2:]
for command in commands:
    assert main([command, "--config", config, "--out", out]) == 0, command
print(json.dumps(sorted(watched & set(sys.modules))))
"""


STDLIB = json.dumps(["dataclasses", "decimal", "fractions"])

# The modules imported on the first call of the phase each serves: the
# divergence kernel, the joint's ranking and the coset walk.
PHASES = ["renyi_extract._divergence", "renyi_extract._ranking", "renyi_extract._translates"]

# Run in a fresh interpreter: import the package, build a config's family and
# source as every command does, then print the modules among the watched ones
# (a JSON list) that are loaded.
BUILD_PROBE = """
import json, sys
import renyi_extract
from renyi_extract.config import parse_config
config = parse_config(json.loads(sys.argv[2]))
config.build_source(config.build_family())
print(json.dumps(sorted(set(json.loads(sys.argv[1])) & set(sys.modules))))
"""


# Run in a fresh interpreter: import one module, then print the package's
# submodules that are loaded.
MODULE_PROBE = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("renyi_extract."))))
"""

# What neither importing the CLI nor a sampled bucket loads.
NOT_FOR_BUCKETS = [f"renyi_extract.{m}" for m in ("measures", "_divergence", "_verify")]


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

    def test_cli_import_makes_no_namedtuple(self, fresh_import):
        assert fresh_import["namedtuples"] == []

    def test_cli_import_leaves_numpy_random_unloaded(self, fresh_import):
        if fresh_import["numpy_random_by_numpy"]:
            pytest.skip("this numpy imports numpy.random with numpy itself")
        assert not fresh_import["numpy_random"]

    def test_sweep_and_bucket_load_neither_dataclasses_nor_fractions(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(CONFIG))
        out = str(tmp_path / "out")
        assert _probe(RUN_PROBE, STDLIB, str(config), out, "sweep", "bucket") == []

    def test_verify_loads_neither_fractions_nor_decimal(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(CONFIG))
        assert _probe(RUN_PROBE, STDLIB, str(config), str(tmp_path / "out"), "verify") == []

    def test_only_verify_imports_the_certifier(self, tmp_path):
        # The combination-tree walk lives in its own module, imported by
        # verify_universality, so that runs that never certify do not compile
        # it: without a bytecode cache the compile would raise their peak RSS.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(CONFIG))
        out, certifier = str(tmp_path / "out"), json.dumps(["renyi_extract._certify"])
        assert _probe(RUN_PROBE, certifier, str(config), out, "sweep", "bucket") == []
        loaded = _probe(RUN_PROBE, certifier, str(config), out, "verify")
        assert loaded == ["renyi_extract._certify"]

    def test_building_a_run_loads_no_phase_module(self):
        assert _probe(BUILD_PROBE, json.dumps(PHASES), json.dumps(CONFIG)) == []

    def test_sampled_bucket_loads_no_phase_module(self, tmp_path):
        # It never takes a divergence, ranks a joint or walks cosets, so
        # without a bytecode cache compiling them would only raise its RSS.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(CONFIG))
        assert CONFIG["bucket"]["mode"] == "sampled"
        out = str(tmp_path / "out")
        assert _probe(RUN_PROBE, json.dumps(PHASES), str(config), out, "bucket") == []

    def test_package_import_loads_no_submodule(self):
        assert _probe(MODULE_PROBE, "renyi_extract") == []

    def test_cli_import_loads_no_measures(self):
        loaded = _probe(MODULE_PROBE, "renyi_extract.cli")
        assert "renyi_extract.cli" in loaded
        assert set(loaded).isdisjoint(NOT_FOR_BUCKETS)

    def test_sampled_bucket_loads_no_measures(self, tmp_path):
        # A config that lists orders loads measures to parse them; a bucket
        # experiment reads none.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(CONFIG, alphas=[], epsilons=[])))
        out, watched = str(tmp_path / "out"), json.dumps(NOT_FOR_BUCKETS)
        assert _probe(RUN_PROBE, watched, str(config), out, "bucket") == []

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_verify_and_sweep_load_their_own_code_only(self, tmp_path, command):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(CONFIG))
        out, own = str(tmp_path / "out"), "renyi_extract._verify"
        watched = json.dumps([own, "renyi_extract._bucket"])
        assert _probe(RUN_PROBE, watched, str(config), out, command) == [own]

    def test_sweep_loads_every_phase_module_but_the_certifier(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(CONFIG))
        out, watched = str(tmp_path / "out"), json.dumps(PHASES + ["renyi_extract._certify"])
        assert _probe(RUN_PROBE, watched, str(config), out, "sweep") == PHASES

    @pytest.mark.parametrize(
        "module",
        [
            *PHASES,
            *(
                f"renyi_extract.{m}"
                for m in ("_certify", "_tables", "_draws", "_verify", "_bucket")
            ),
        ],
    )
    def test_each_first_use_module_imports_first(self, module):
        # An import cycle among them would otherwise fail only the first run
        # that reaches the phase.
        script = f"import json, {module} as m; print(json.dumps(m.__name__))"
        assert _probe(script) == module

    def test_certification_is_exact(self, gf8):
        # Each certificate is the integer rank r: collision probability q^-r.
        family = HashFamily("polynomial", gf8, 3, 1)
        assert type(verify_universality(family, 2)) is int
        for v in certify_k_star(family):
            assert all(type(x) is int for x in (v.l, v.rank, v.required))
            assert type(v.passed) is bool
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
        defaults = {"side_channel": None, "budget": DEFAULT_BUDGET, "rng_seed": 0,
                    "bucket": None, "sweep": None, "out": None, "raw": None}
        assert config._fields[4:] == tuple(defaults)
        assert {f: getattr(config, f) for f in defaults} == defaults

    def test_replace_builds_through_init(self):
        with pytest.raises(TypeError):
            FamilySpec(2, 3, 2, 1)._replace(bogus=1)
        family = HashFamily("polynomial", FIELD, 3, 2)
        with pytest.raises(ValueError, match="k must be >= 2"):
            family._replace(k=1)
        assert family._replace(m=1) == HashFamily("polynomial", FIELD, 3, 1)

    def test_no_record_is_a_tuple(self):
        names = (
            "_ranking", "_translates", "config", "extraction", "families", "fields", "measures",
        )
        classes = [
            c for name in names for c in vars(sys.modules[f"renyi_extract.{name}"]).values()
            if isinstance(c, type) and c.__module__ == f"renyi_extract.{name}"
        ]
        assert len(classes) >= 16
        assert [c for c in classes if issubclass(c, tuple)] == []


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
    (ExtractedJoint, ("base_q", "_groups", "_rep_columns", "_cosets"),
     (2, (), np.zeros(1), ()),
     "ExtractedJoint(base_q=2, _groups=(), _rep_columns=array([0.]), _cosets=())"),
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
