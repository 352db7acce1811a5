"""Experiment configuration: strict JSON loading and object construction.

Unknown fields are errors, not warnings; a silently ignored typo could fake a
passing certification.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceededError, ConfigError
from .extraction import Source
from .families import DEFAULT_BUDGET, KINDS, HashFamily
from .fields import MAX_DEGREE, FieldParams
from .measures import Alpha, Pmf

SOURCE_PRESETS = ("uniform", "point-mass", "two-spike", "geometric")


def _require_keys(obj: dict, allowed: set[str], where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in {where}")


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return value


def _integer(value, where: str, minimum: int | None = None) -> int:
    """A JSON integer (not a bool), at least ``minimum`` when given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {value}")
    return value


def _real(value, where: str) -> float:
    """A finite JSON number as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return v


class FamilySpec(NamedTuple):
    q: int
    n: int
    k: int
    m: int
    kind: str = "polynomial"

    def build(self) -> HashFamily:
        try:
            field = FieldParams.create(self.q, self.n)
            return HashFamily(self.kind, field, self.k, self.m)
        except ValueError as e:
            raise ConfigError(str(e)) from e


class BucketSpec(NamedTuple):
    subset: list[int] | str = "full"
    mode: str = "exact"
    samples: int = 1000


class SweepSpec(NamedTuple):
    m_values: tuple[int, ...]


class ExperimentConfig(NamedTuple):
    family: FamilySpec
    source: dict
    alphas: tuple[Alpha, ...]
    epsilons: tuple[float, ...]
    side_channel: np.ndarray | None = None
    budget: int = DEFAULT_BUDGET
    rng_seed: int = 0
    bucket: BucketSpec | None = None
    sweep: SweepSpec | None = None
    out: str | None = None
    raw: dict | None = None

    def build_family(self) -> HashFamily:
        q, n = self.family.q, self.family.n
        # Every enumerating path touches all q^n field elements, so refuse an
        # oversized field before FieldParams.create searches it.  A degree
        # above MAX_DEGREE fails there anyway; the cap keeps q ** n cheap.
        if q ** min(n, MAX_DEGREE + 1) > self.budget:
            raise BudgetExceededError(
                f"field of {q}^{n} elements exceeds budget {self.budget}"
            )
        return self.family.build()

    def build_source(self, family: HashFamily) -> Source:
        probs = _source_probs(self.source, family.field.size)
        try:
            return Source(Pmf(probs, family.field.q), self.side_channel)
        except ValueError as e:
            raise ConfigError(str(e)) from e


def _source_probs(spec: dict, n: int) -> list | np.ndarray:
    if "probs" in spec:  # the list as given: Pmf makes its own array
        probs = spec["probs"]
        if len(probs) != n:
            raise ConfigError(
                f"explicit probs must list {n} entries (full domain), got {len(probs)}"
            )
        return probs
    preset = spec["preset"]
    param = spec.get("param")
    if preset == "uniform":
        return np.full(n, 1.0 / n)
    if preset == "point-mass":
        out = np.zeros(n)
        out[0] = 1.0
        return out
    if preset == "two-spike":
        if param is None or not 0.0 < param < 1.0:
            raise ConfigError("two-spike preset needs param in (0, 1)")
        if n < 2:
            raise ConfigError("two-spike preset needs a domain of size >= 2")
        out = np.zeros(n)
        out[0] = param
        out[1] = 1.0 - param
        return out
    if preset == "geometric":
        if param is None or not 0.0 < param < 1.0:
            raise ConfigError("geometric preset needs ratio param in (0, 1)")
        out = param ** np.arange(n)
        return out / out.sum()
    raise ConfigError(f"unknown source preset {preset!r}")


def parse_alpha(value) -> Alpha:
    if value in ("inf", "infinity"):
        return Alpha.infinity()
    try:
        v = float(value)
        if not math.isfinite(v):  # JSON reads 1e400 and Infinity as inf
            raise ValueError("a numeric order must be finite; use 'inf' for the limit")
        return Alpha(v)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"bad alpha value {value!r}: {e}") from e


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    _require_keys(
        raw,
        {
            "family",
            "source",
            "side_channel",
            "alphas",
            "epsilons",
            "budget",
            "rng_seed",
            "bucket",
            "sweep",
            "out",
        },
        "config",
    )
    for key in ("family", "source"):
        if key not in raw:
            raise ConfigError(f"config is missing required field {key!r}")

    fam = raw["family"]
    _require_keys(fam, {"q", "n", "k", "m", "kind"}, "family")
    missing = [key for key in ("q", "n", "k", "m") if key not in fam]
    if missing:
        raise ConfigError(f"family is missing required field(s) {missing}")
    kind = fam.get("kind", "polynomial")
    if kind not in KINDS:
        raise ConfigError(f"family kind must be one of {KINDS}, got {kind!r}")
    q, n, k, m = (_integer(fam[f], f"family {f}", 1) for f in ("q", "n", "k", "m"))
    family = FamilySpec(q, n, k, m, kind)

    src = raw["source"]
    _require_keys(src, {"preset", "param", "probs"}, "source")
    if ("preset" in src) == ("probs" in src):
        raise ConfigError("source needs exactly one of 'preset' or 'probs'")
    if "probs" in src:
        for p in _list(src["probs"], "source probs"):
            _real(p, "source probability")
    if "param" in src and src.get("preset") not in ("two-spike", "geometric"):
        raise ConfigError("source param applies to the two-spike and geometric presets")
    if src.get("param") is not None:
        _real(src["param"], "source param")

    side = raw.get("side_channel")
    if side is not None:
        rows = [_list(r, "side_channel row") for r in _list(side, "side_channel")]
        if len({len(r) for r in rows}) != 1:
            raise ConfigError("side_channel must be a matrix of rows P(z|x)")
        side = np.array([[_real(v, "side_channel entry") for v in r] for r in rows])

    alphas = _list(raw.get("alphas", []), "alphas")
    # Orders are JSON numbers or "inf": true would otherwise read as 1.
    if any(isinstance(a, (bool, str)) and a not in ("inf", "infinity") for a in alphas):
        raise ConfigError(f"alphas must be numbers or 'inf', got {alphas!r}")
    alphas = tuple(parse_alpha(a) for a in alphas)
    for i, a in enumerate(alphas):
        if a in alphas[:i]:
            raise ConfigError(f"alphas must be distinct; order {a.value:g} repeats")
    epsilons = _list(raw.get("epsilons", []), "epsilons")
    epsilons = tuple(_real(e, "epsilon") for e in epsilons)
    if not all(e > 0 for e in epsilons):
        raise ConfigError("epsilons must be positive and finite")

    bucket = None
    if raw.get("bucket") is not None:
        b = raw["bucket"]
        _require_keys(b, {"subset", "mode", "samples"}, "bucket")
        subset = b.get("subset", "full")
        if subset != "full":
            subset = [_integer(v, "bucket subset element", 0)
                      for v in _list(subset, "bucket subset")]
        mode = b.get("mode", "exact")
        if mode not in ("exact", "sampled"):
            raise ConfigError("bucket mode must be 'exact' or 'sampled'")
        if mode == "exact" and "samples" in b:
            raise ConfigError("bucket samples applies to sampled mode only")
        samples = _integer(b.get("samples", 1000), "bucket samples", 1)
        bucket = BucketSpec(subset, mode, samples)

    sweep = None
    if raw.get("sweep") is not None:
        s = raw["sweep"]
        _require_keys(s, {"m_values"}, "sweep")
        m_values = _list(s.get("m_values"), "sweep m_values")
        sweep = SweepSpec(tuple(_integer(v, "sweep m value", 1) for v in m_values))

    budget = _integer(raw.get("budget", DEFAULT_BUDGET), "budget")
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}")

    return ExperimentConfig(
        family=family,
        source=src,
        alphas=alphas,
        epsilons=epsilons,
        side_channel=side,
        budget=budget,
        rng_seed=_integer(raw.get("rng_seed", 0), "rng_seed", 0),
        bucket=bucket,
        sweep=sweep,
        out=out,
        raw=raw,
    )
