"""Finite pmfs and the entropy / divergence functionals used throughout.

All logarithms are base q (the pmf's ``base_q``).  Sums of probability terms
use ``math.fsum`` so results are stable to well below the documented 1e-9
comparison tolerance.  Conventions: 0 log 0 = 0 and 0^a = 0 for a > 0.

D_alpha has one formula, ``_divergence``, and H_alpha is minus it against the
counting measure.  The conditional functionals read the joint column by column
through ``_columns``, once for every order, and build no per-cell pmfs.  Terms
stay scalar Python floats, so reports stay byte-identical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

NORMALIZATION_TOL = 1e-9
# Orders in (1, 1 + ALPHA_GAP) are rejected: the 1/(alpha-1) prefactor would
# amplify rounding; use the exact KL limit instead.
ALPHA_GAP = 1e-6


@dataclass(frozen=True)
class Alpha:
    """Order of a Renyi functional: a real > 1, or the limits 1 and infinity."""

    value: float

    def __post_init__(self):
        v = self.value
        if v == 1.0 or v == math.inf:
            return
        if not v > 1.0:
            raise ValueError(f"alpha must be > 1 (or the limits 1, inf), got {v}")
        if v < 1.0 + ALPHA_GAP:
            raise ValueError(
                f"alpha={v} too close to 1; use Alpha.one() for the KL limit"
            )

    @classmethod
    def one(cls) -> "Alpha":
        return cls(1.0)

    @classmethod
    def infinity(cls) -> "Alpha":
        return cls(math.inf)

    @property
    def is_one(self) -> bool:
        return self.value == 1.0

    @property
    def is_infinite(self) -> bool:
        return self.value == math.inf

    @property
    def is_finite_order(self) -> bool:
        return not (self.is_one or self.is_infinite)


def as_alpha(a) -> Alpha:
    return a if isinstance(a, Alpha) else Alpha(float(a))


def _freeze_probs(pmf, ndims: tuple[int, ...], shape_error: str):
    """Store pmf.probs as a read-only float array and validate it."""
    arr = np.asarray(pmf.probs, dtype=float)
    arr.setflags(write=False)
    object.__setattr__(pmf, "probs", arr)
    if pmf.base_q < 2:
        raise ValueError("base_q must be >= 2")
    if arr.ndim not in ndims:
        raise ValueError(shape_error)
    if arr.size == 0:
        raise ValueError("empty probability array")
    if np.any(arr < 0):
        raise ValueError("negative probability entry")
    _check_sum(arr.ravel().tolist())


def _check_sum(probs: list[float]):
    total = math.fsum(probs)
    # Negated so that a NaN total (a NaN or infinite entry) fails too.
    if not abs(total - 1.0) <= NORMALIZATION_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1")


@dataclass(frozen=True)
class Pmf:
    """Finitely supported pmf; ``base_q`` fixes the log base for reporting."""

    probs: np.ndarray
    base_q: int = 2

    def __post_init__(self):
        _freeze_probs(self, (1,), "Pmf requires a 1-d probability vector")

    @property
    def support_size(self) -> int:
        return int(self.probs.size)

    @classmethod
    def uniform(cls, n: int, base_q: int = 2) -> "Pmf":
        return cls(np.full(n, 1.0 / n), base_q)


@dataclass(frozen=True)
class JointPmf:
    """Dense pmf over 2 or 3 finite axes.

    Axis roles by position: 0 = hash output u, 1 = seed s, 2 = side info z
    (when present).  For the entropy helpers the generic reading is
    (x, z) with the conditioning variable last.
    """

    probs: np.ndarray
    base_q: int = 2

    def __post_init__(self):
        _freeze_probs(self, (2, 3), "JointPmf requires 2 or 3 axes")

    def marginal(self, axis: int) -> Pmf:
        other = tuple(i for i in range(self.probs.ndim) if i != axis)
        return Pmf(self.probs.sum(axis=other), self.base_q)


def _divergence(ps, rs, a: Alpha, lnq: float) -> float:
    """D_alpha over the terms with p > 0, against reference masses rs.

    Terms stay scalar ``**`` and ``math.log`` under ``math.fsum``: numpy's
    vectorized power and log may differ in the last bit, and reports are
    pinned byte for byte.
    """
    if a.is_one:
        return math.fsum(pi * math.log(pi / ri) for pi, ri in zip(ps, rs)) / lnq
    if a.is_infinite:
        return math.log(max(pi / ri for pi, ri in zip(ps, rs))) / lnq
    try:
        s = math.fsum(pi ** a.value * ri ** (1.0 - a.value) for pi, ri in zip(ps, rs))
    except OverflowError:
        s = math.inf
    if not 0.0 < s < math.inf:  # negated so that a NaN sum (numpy's 0 * inf) fails too
        raise ValueError(f"alpha={a.value} is too large for floating point; use 'inf'")
    return math.log(s) / ((a.value - 1.0) * lnq)


def renyi_entropy(p: Pmf, a) -> float:
    """H_alpha in base-q units: -D_alpha(p || counting measure), so Shannon
    at alpha=1 and min-entropy at infinity."""
    probs = p.probs[p.probs > 0]
    return -_divergence(probs, itertools.repeat(1.0), as_alpha(a), math.log(p.base_q))


def renyi_divergence(p: Pmf, r: Pmf, a) -> float:
    """D_alpha(p || r) in base-q units; +inf when p is not dominated by r."""
    a = as_alpha(a)
    if p.support_size != r.support_size:
        raise ValueError("pmfs must share a support size")
    mask = p.probs > 0
    if np.any(r.probs[mask] == 0):
        return math.inf
    return _divergence(p.probs[mask], r.probs[mask], a, math.log(p.base_q))


def tv_distance(p: Pmf, r: Pmf) -> float:
    if p.support_size != r.support_size:
        raise ValueError("pmfs must share a support size")
    return 0.5 * math.fsum(abs(pi - ri) for pi, ri in zip(p.probs, r.probs))


def _columns(arr: np.ndarray):
    """Yield (w, conditional column) for each column of arr read as
    (axis 0, rest) whose mass w is positive.

    Columns are the conditioning cells: z for an (x, z) joint, seed s or
    (s, z) for an output joint.  Each column is normalised in Python floats
    and must sum to 1, as a pmf would.
    """
    for col in arr.reshape(arr.shape[0], -1).T:
        col = col.tolist()
        w = math.fsum(col)
        if w == 0:
            continue
        cond = [p / w for p in col]
        _check_sum(cond)
        yield w, cond


def _conditional_power_sums(joint: JointPmf, a: Alpha, what: str):
    """(P_Z(z), sum_x P(x|z)^alpha) for every z with P_Z(z) > 0, for a 2-axis
    joint (x, z)."""
    if not a.is_finite_order:
        raise ValueError(f"{what} is defined for finite alpha in (1, inf) only")
    if joint.probs.ndim != 2:
        raise ValueError(f"{what} requires a 2-axis joint")
    return [
        (pz, math.fsum(p ** a.value for p in cond if p > 0))
        for pz, cond in _columns(joint.probs)
    ]


def conditional_renyi_entropy(joint: JointPmf, a) -> float:
    """H_alpha(X|Z) for a 2-axis joint (x, z):
    (1/(1-alpha)) log_q sum_z P_Z(z) sum_x P(x|z)^alpha.
    """
    a = as_alpha(a)
    terms = _conditional_power_sums(joint, a, "conditional Renyi entropy")
    total = math.fsum(pz * inner for pz, inner in terms)
    return math.log(total) / ((1.0 - a.value) * math.log(joint.base_q))


def tilde_conditional_entropy(joint: JointPmf, a) -> float:
    """Log-inside-the-average variant:
    (1/(1-alpha)) sum_z P_Z(z) log_q sum_x P(x|z)^alpha.
    """
    a = as_alpha(a)
    terms = _conditional_power_sums(joint, a, "tilde conditional entropy")
    total = math.fsum(pz * math.log(inner) for pz, inner in terms)
    return total / ((1.0 - a.value) * math.log(joint.base_q))


def conditional_divergences(joint: JointPmf, alphas) -> list[float]:
    """Seed-averaged divergences from uniform outputs, every order from one read:
    sum_s P_S(s) D_alpha(P(.|s) || uniform); over (s, z) cells for 3 axes.
    """
    alphas = [as_alpha(a) for a in alphas]
    uniform = itertools.repeat(1.0 / joint.probs.shape[0])
    lnq = math.log(joint.base_q)
    terms = [[] for _ in alphas]
    for w, cond in _columns(joint.probs):
        ps = [p for p in cond if p > 0]
        for a, column_terms in zip(alphas, terms):
            column_terms.append(w * _divergence(ps, uniform, a, lnq))
    return [math.fsum(t) for t in terms]


def conditional_divergence(joint: JointPmf, a) -> float:
    """The seed-averaged divergence of one order."""
    return conditional_divergences(joint, [a])[0]


def uniform_product_reference(joint: JointPmf) -> tuple[Pmf, Pmf]:
    """The flattened joint and its reference: uniform outputs x the joint's
    own seed[,z] marginal, flattened the same way."""
    arr = joint.probs
    ref = np.broadcast_to(arr.sum(axis=0) / arr.shape[0], arr.shape).reshape(-1)
    return Pmf(arr.reshape(-1), joint.base_q), Pmf(ref, joint.base_q)


def joint_divergence_from_uniform(joint: JointPmf, a) -> float:
    """D_alpha(joint || uniform-on-outputs x the joint's own seed[,z] marginal)."""
    return renyi_divergence(*uniform_product_reference(joint), a)
