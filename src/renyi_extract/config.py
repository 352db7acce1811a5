"""Experiment configuration: strict JSON loading and object construction.

Unknown fields are errors, not warnings; a silently ignored typo could fake a
passing certification.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, ConfigError
from .extraction import Source
from .families import DEFAULT_BUDGET, KINDS, HashFamily
from .fields import MAX_DEGREE, FieldParams
from .measures import Alpha, Pmf

BUDGET_ENV_VAR = "RENYI_EXTRACT_BUDGET"

SOURCE_PRESETS = ("uniform", "point-mass", "two-spike", "geometric")


def _require_keys(obj: dict, allowed: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in {where}")


@dataclass(frozen=True)
class FamilySpec:
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


@dataclass(frozen=True)
class BucketSpec:
    subset: list[int] | str = "full"
    mode: str = "exact"
    samples: int = 1000


@dataclass(frozen=True)
class SweepSpec:
    m_values: tuple[int, ...]


@dataclass(frozen=True)
class ExperimentConfig:
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
        n_elems = family.field.size
        probs = _source_probs(self.source, n_elems)
        support = tuple(family.field.elements())
        try:
            pmf = Pmf(probs, family.field.q)
            return Source(support, pmf, self.side_channel)
        except ValueError as e:
            raise ConfigError(str(e)) from e


def _source_probs(spec: dict, n: int) -> np.ndarray:
    if "probs" in spec:
        probs = np.asarray(spec["probs"], dtype=float)
        if probs.size != n:
            raise ConfigError(
                f"explicit probs must list {n} entries (full domain), got {probs.size}"
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
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad alpha value {value!r}") from e
    try:
        return Alpha(v)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def default_budget() -> int:
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is None:
        return DEFAULT_BUDGET
    try:
        return int(env)
    except ValueError as e:
        raise ConfigError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from e


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
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
    family = FamilySpec(
        int(fam["q"]), int(fam["n"]), int(fam["k"]), int(fam["m"]), kind
    )

    src = raw["source"]
    _require_keys(src, {"preset", "param", "probs"}, "source")
    if ("preset" in src) == ("probs" in src):
        raise ConfigError("source needs exactly one of 'preset' or 'probs'")

    side = None
    if raw.get("side_channel") is not None:
        side = np.asarray(raw["side_channel"], dtype=float)
        if side.ndim != 2:
            raise ConfigError("side_channel must be a matrix of rows P(z|x)")

    alphas = tuple(parse_alpha(a) for a in raw.get("alphas", []))
    epsilons = tuple(float(e) for e in raw.get("epsilons", []))
    if not all(0 < e < math.inf for e in epsilons):
        raise ConfigError("epsilons must be positive and finite")

    bucket = None
    if raw.get("bucket") is not None:
        b = raw["bucket"]
        _require_keys(b, {"subset", "mode", "samples"}, "bucket")
        subset = b.get("subset", "full")
        if subset != "full":
            subset = [int(v) for v in subset]
        mode = b.get("mode", "exact")
        if mode not in ("exact", "sampled"):
            raise ConfigError("bucket mode must be 'exact' or 'sampled'")
        bucket = BucketSpec(subset, mode, int(b.get("samples", 1000)))

    sweep = None
    if raw.get("sweep") is not None:
        s = raw["sweep"]
        _require_keys(s, {"m_values"}, "sweep")
        sweep = SweepSpec(tuple(int(v) for v in s["m_values"]))

    budget = int(raw["budget"]) if "budget" in raw else default_budget()

    return ExperimentConfig(
        family=family,
        source=src,
        alphas=alphas,
        epsilons=epsilons,
        side_channel=side,
        budget=budget,
        rng_seed=int(raw.get("rng_seed", 0)),
        bucket=bucket,
        sweep=sweep,
        out=raw.get("out"),
        raw=raw,
    )
