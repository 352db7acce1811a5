"""Finite pmfs and the entropy / divergence functionals used throughout.

All logarithms are base q (the pmf's ``base_q``).  Sums of probability terms
use ``math.fsum`` so results are stable to well below the documented 1e-9
comparison tolerance.  Conventions: 0 log 0 = 0 and 0^a = 0 for a > 0.
"""

from __future__ import annotations

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


def _check_probs(arr: np.ndarray):
    if arr.size == 0:
        raise ValueError("empty probability array")
    if np.any(arr < 0):
        raise ValueError("negative probability entry")
    total = math.fsum(arr.ravel().tolist())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1")


@dataclass(frozen=True)
class Pmf:
    """Finitely supported pmf; ``base_q`` fixes the log base for reporting."""

    probs: np.ndarray
    base_q: int = 2

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)
        if self.base_q < 2:
            raise ValueError("base_q must be >= 2")
        if arr.ndim != 1:
            raise ValueError("Pmf requires a 1-d probability vector")
        _check_probs(arr)

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
        arr = np.asarray(self.probs, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)
        if self.base_q < 2:
            raise ValueError("base_q must be >= 2")
        if arr.ndim not in (2, 3):
            raise ValueError("JointPmf requires 2 or 3 axes")
        _check_probs(arr)

    @property
    def axis_sizes(self) -> tuple[int, ...]:
        return tuple(self.probs.shape)

    def marginal(self, axis: int) -> Pmf:
        other = tuple(i for i in range(self.probs.ndim) if i != axis)
        return Pmf(self.probs.sum(axis=other), self.base_q)


def _lnq(q: int) -> float:
    return math.log(q)


def renyi_entropy(p: Pmf, a) -> float:
    """H_alpha in base-q units; Shannon at alpha=1, min-entropy at infinity."""
    a = as_alpha(a)
    probs = p.probs[p.probs > 0]
    lnq = _lnq(p.base_q)
    if a.is_one:
        return -math.fsum(pi * math.log(pi) for pi in probs) / lnq
    if a.is_infinite:
        return -math.log(probs.max()) / lnq
    s = math.fsum(pi ** a.value for pi in probs)
    return math.log(s) / ((1.0 - a.value) * lnq)


def renyi_divergence(p: Pmf, r: Pmf, a) -> float:
    """D_alpha(p || r) in base-q units; +inf when p is not dominated by r."""
    a = as_alpha(a)
    if p.support_size != r.support_size:
        raise ValueError("pmfs must share a support size")
    mask = p.probs > 0
    if np.any(r.probs[mask] == 0):
        return math.inf
    ps = p.probs[mask]
    rs = r.probs[mask]
    lnq = _lnq(p.base_q)
    if a.is_one:
        return math.fsum(pi * math.log(pi / ri) for pi, ri in zip(ps, rs)) / lnq
    if a.is_infinite:
        return math.log(max(pi / ri for pi, ri in zip(ps, rs))) / lnq
    s = math.fsum(pi ** a.value * ri ** (1.0 - a.value) for pi, ri in zip(ps, rs))
    return math.log(s) / ((a.value - 1.0) * lnq)


def tv_distance(p: Pmf, r: Pmf) -> float:
    if p.support_size != r.support_size:
        raise ValueError("pmfs must share a support size")
    return 0.5 * math.fsum(abs(pi - ri) for pi, ri in zip(p.probs, r.probs))


def _require_finite_order(a: Alpha, what: str):
    if not a.is_finite_order:
        raise ValueError(f"{what} is defined for finite alpha in (1, inf) only")


def _conditional_power_sums(joint: JointPmf, a: Alpha, what: str):
    """(P_Z(z), sum_x P(x|z)^alpha) for every z with P_Z(z) > 0, for a 2-axis
    joint (x, z)."""
    _require_finite_order(a, what)
    if joint.probs.ndim != 2:
        raise ValueError(f"{what} requires a 2-axis joint")
    terms = []
    for z in range(joint.probs.shape[1]):
        col = joint.probs[:, z]
        pz = math.fsum(col.tolist())
        if pz == 0:
            continue
        terms.append((pz, math.fsum((pi / pz) ** a.value for pi in col if pi > 0)))
    return terms


def conditional_renyi_entropy(joint: JointPmf, a) -> float:
    """H_alpha(X|Z) for a 2-axis joint (x, z):
    (1/(1-alpha)) log_q sum_z P_Z(z) sum_x P(x|z)^alpha.
    """
    a = as_alpha(a)
    terms = _conditional_power_sums(joint, a, "conditional Renyi entropy")
    total = math.fsum(pz * inner for pz, inner in terms)
    return math.log(total) / ((1.0 - a.value) * _lnq(joint.base_q))


def tilde_conditional_entropy(joint: JointPmf, a) -> float:
    """Log-inside-the-average variant:
    (1/(1-alpha)) sum_z P_Z(z) log_q sum_x P(x|z)^alpha.
    """
    a = as_alpha(a)
    terms = _conditional_power_sums(joint, a, "tilde conditional entropy")
    total = math.fsum(pz * math.log(inner) for pz, inner in terms)
    return total / ((1.0 - a.value) * _lnq(joint.base_q))


def _conditional_slices(joint: JointPmf):
    """Yield (weight, conditional-output Pmf) per conditioning cell.

    Output axis is 0; conditioning cells are seed s, or (s, z) pairs for a
    3-axis joint.  Cells with zero mass are skipped.
    """
    arr = joint.probs
    flat = arr.reshape(arr.shape[0], -1)
    for c in range(flat.shape[1]):
        col = flat[:, c]
        w = math.fsum(col.tolist())
        if w == 0:
            continue
        yield w, Pmf(col / w, joint.base_q)


def conditional_divergence(joint: JointPmf, a) -> float:
    """Seed-averaged divergence from uniform outputs:
    sum_s P_S(s) D_alpha(P(.|s) || uniform); over (s, z) cells for 3 axes.
    """
    a = as_alpha(a)
    n_out = joint.probs.shape[0]
    uniform = Pmf.uniform(n_out, joint.base_q)
    return math.fsum(
        w * renyi_divergence(cond, uniform, a) for w, cond in _conditional_slices(joint)
    )


def uniform_product_reference(joint: JointPmf) -> tuple[Pmf, Pmf]:
    """The flattened joint and its reference: uniform outputs x the joint's
    own seed[,z] marginal, flattened the same way."""
    arr = joint.probs
    ref = np.broadcast_to(arr.sum(axis=0) / arr.shape[0], arr.shape).reshape(-1)
    return Pmf(arr.reshape(-1), joint.base_q), Pmf(ref, joint.base_q)


def joint_divergence_from_uniform(joint: JointPmf, a) -> float:
    """D_alpha(joint || uniform-on-outputs x the joint's own seed[,z] marginal)."""
    return renyi_divergence(*uniform_product_reference(joint), a)
