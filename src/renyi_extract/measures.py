"""Finite pmfs and the entropy / divergence functionals used throughout.

All logarithms are base q (the pmf's ``base_q``).  Sums of probability terms
use ``math.fsum`` so results are stable to well below the documented 1e-9
comparison tolerance.  Conventions: 0 log 0 = 0 and 0^a = 0 for a > 0.

D_alpha has one formula, ``_divergence``: every power sum, log-ratio and max
is formed there, on Python floats.  H_alpha is minus D_alpha against the
counting measure.  The conditional functionals read the joint column by
column through ``_columns``, once for every order; the joint divergence, KL
and TV read one list of distinct (cell, reference) pairs with counts from
``uniform_product_terms``.  No per-cell or flattened pmfs are built.

Seeds in one orbit (``HashFamily.shift_digits``) give output-permuted
columns, so the divergence table reads one seed per orbit: the conditional
terms count once per member, and the joint terms once per member sharing a
reference float.  fsum sees the same multiset of terms as a walk over every
seed, so the correctly rounded results are the same bits.
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


def _divergence(ps, rs, a: Alpha, lnq: float | None, counts=None) -> float:
    """D_alpha of masses ps against reference masses rs, both Python floats,
    over the terms with p > 0; +inf when some p > 0 has r = 0.  With counts,
    pair i stands for counts[i] equal terms: each is formed once and fed to
    fsum that often (the max of D_inf ignores counts).  With lnq None, the
    power sum sum p^alpha r^(1-alpha) of a finite order itself.

    Terms stay scalar ``**`` and ``math.log`` under ``math.fsum``: numpy's
    vectorized power and log may differ in the last bit, and reports are
    pinned byte for byte.  A finite order whose power sum leaves floating
    point is refused.
    """
    pairs = zip(ps, rs, itertools.repeat(1) if counts is None else counts)
    repeated = itertools.chain.from_iterable
    try:
        if a.is_one:
            return math.fsum(repeated(
                itertools.repeat(pi * math.log(pi / ri), c) for pi, ri, c in pairs if pi > 0
            )) / lnq
        if a.is_infinite:
            return math.log(max(pi / ri for pi, ri, _ in pairs if pi > 0)) / lnq
        b = a.value
        s = math.fsum(repeated(
            itertools.repeat(pi ** b * ri ** (1.0 - b), c) for pi, ri, c in pairs if pi > 0
        ))
    except ZeroDivisionError:  # p > 0 over r = 0
        return math.inf
    except OverflowError:
        if any(ri == 0 for pi, ri, _ in pairs if pi > 0):  # the terms after the overflow
            return math.inf
        s = math.inf
    if not 0.0 < s < math.inf:
        raise ValueError(f"alpha={a.value} is too large for floating point; use 'inf'")
    return s if lnq is None else math.log(s) / ((a.value - 1.0) * lnq)


def renyi_entropy(p: Pmf, a) -> float:
    """H_alpha in base-q units: -D_alpha(p || counting measure), so Shannon
    at alpha=1 and min-entropy at infinity."""
    return -_divergence(
        p.probs.tolist(), itertools.repeat(1.0), as_alpha(a), math.log(p.base_q)
    )


def renyi_divergence(p: Pmf, r: Pmf, a) -> float:
    """D_alpha(p || r) in base-q units; +inf when p is not dominated by r."""
    if p.support_size != r.support_size:
        raise ValueError("pmfs must share a support size")
    return _divergence(p.probs.tolist(), r.probs.tolist(), as_alpha(a), math.log(p.base_q))


def _tv(ps, rs, counts=None) -> float:
    """Half the L1 distance; with counts as in ``_divergence``."""
    pairs = zip(ps, rs, itertools.repeat(1) if counts is None else counts)
    return 0.5 * math.fsum(itertools.chain.from_iterable(
        itertools.repeat(abs(pi - ri), c) for pi, ri, c in pairs
    ))


def tv_distance(p: Pmf, r: Pmf) -> float:
    if p.support_size != r.support_size:
        raise ValueError("pmfs must share a support size")
    return _tv(p.probs.tolist(), r.probs.tolist())


def _columns(arr: np.ndarray):
    """Yield (w, conditional column) for each column of arr read as
    (axis 0, rest) whose mass w is positive; the conditional column holds the
    positive masses only, each divided by w.

    Columns are the conditioning cells: z for an (x, z) joint, seed s or
    (s, z) for an output joint.  Each column is normalised in Python floats
    and must sum to 1, as a pmf would.
    """
    for col in arr.reshape(arr.shape[0], -1).T:
        col = col.tolist()
        w = math.fsum(col)
        if w == 0:
            continue
        cond = [p / w for p in col if p > 0]
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
        (pz, _divergence(cond, itertools.repeat(1.0), a, None))
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


def conditional_divergences(joint: JointPmf, alphas, orbit: int = 1) -> list[float]:
    """Seed-averaged divergences from uniform outputs, every order from one read:
    sum_s P_S(s) D_alpha(P(.|s) || uniform); over (s, z) cells for 3 axes.

    Each block of ``orbit`` consecutive seeds must hold output-permuted
    columns (``HashFamily.shift_digits``): only the block's first seed is read,
    and its terms count ``orbit`` times, so fsum sees the same multiset.
    """
    alphas = [as_alpha(a) for a in alphas]
    uniform = itertools.repeat(1.0 / joint.probs.shape[0])
    lnq = math.log(joint.base_q)
    terms = [[] for _ in alphas]
    for w, cond in _columns(joint.probs[:, ::orbit]):
        for a, column_terms in zip(alphas, terms):
            column_terms.append(w * _divergence(cond, uniform, a, lnq))
    return [
        math.fsum(itertools.chain.from_iterable(itertools.repeat(t, orbit) for t in column_terms))
        for column_terms in terms
    ]


def conditional_divergence(joint: JointPmf, a) -> float:
    """The seed-averaged divergence of one order."""
    return conditional_divergences(joint, [a])[0]


def uniform_product_terms(joint: JointPmf, orbit: int = 1):
    """The joint's (cell, reference) pairs against uniform outputs x the
    joint's own seed[,z] marginal, as (cells, refs, counts) lists.

    The reference is arr.sum(axis=0) / U over the whole joint; its last bit
    may differ between seeds whose columns are permutations of each other.
    So within each block of ``orbit`` consecutive seeds (output-permuted
    columns, as for ``conditional_divergences``) and each z, the members are
    grouped by distinct reference float: each group contributes the block's
    first column against that reference, counted once per member.  With
    orbit 1 every (s, z) is its own group of count 1.
    """
    arr = joint.probs
    n_out = arr.shape[0]
    ref = arr.sum(axis=0) / n_out
    n_z = ref[0].size  # 1 without a side channel
    # One row per (block, z): its members' references, sorted; each run of
    # equal floats is one group.
    members = np.sort(ref.reshape(-1, orbit, n_z).transpose(0, 2, 1), axis=2)
    new = np.ones(members.shape, dtype=bool)
    new[..., 1:] = members[..., 1:] != members[..., :-1]
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=new.size)
    first = arr.reshape(n_out, -1, orbit, n_z)[:, :, 0, :].reshape(n_out, -1)
    cells = first[:, starts // orbit].T  # one row per group
    return (
        cells.ravel().tolist(),
        np.repeat(members.ravel()[starts], n_out).tolist(),
        np.repeat(counts, n_out).tolist(),
    )


def joint_divergence_from_uniform(joint: JointPmf, a, terms=None) -> float:
    """D_alpha(joint || uniform-on-outputs x the joint's own seed[,z] marginal);
    ``terms`` is ``uniform_product_terms(joint, orbit)``, shared between calls
    (by default that of orbit 1)."""
    cells, refs, counts = uniform_product_terms(joint) if terms is None else terms
    return _divergence(cells, refs, as_alpha(a), math.log(joint.base_q), counts)


def joint_tv_from_uniform(joint: JointPmf, terms=None) -> float:
    """TV distance from the same reference."""
    return _tv(*(uniform_product_terms(joint) if terms is None else terms))
