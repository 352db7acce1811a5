"""Finite pmfs and the entropy / divergence functionals used throughout.

All logarithms are base q (the pmf's ``base_q``).  Sums of probability terms
use ``math.fsum`` so results are stable to well below the documented 1e-9
comparison tolerance.  Conventions: 0 log 0 = 0 and 0^a = 0 for a > 0.

D_alpha has one formula, ``_divergence``: every power sum, log-ratio and max
is formed there, on Python floats, for one or many columns at a time.  H_alpha
is minus D_alpha against the counting measure.  ``extract_joint`` groups an
output joint's columns by content once (``_group_columns``); the sum-to-1
check and the divergence table (``empirical_divergences``) read the groups.
Each term is formed once per distinct value and carries the number of cells
it stands for; ``_counted_fsum`` adds count x term exactly, so the correctly
rounded results are the bits of a walk over every cell, and no Python list
of every cell is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

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


def _freeze_probs(pmf, ndim: int, shape_error: str):
    """Store a read-only float copy of pmf.probs and check its shape, signs
    and sum over every cell.  The copy leaves the caller's array writeable."""
    arr = np.array(pmf.probs, dtype=float)
    arr.setflags(write=False)
    object.__setattr__(pmf, "probs", arr)
    if pmf.base_q < 2:
        raise ValueError("base_q must be >= 2")
    if arr.ndim != ndim:
        raise ValueError(shape_error)
    if arr.size == 0:
        raise ValueError("empty probability array")
    if np.any(arr < 0):
        raise ValueError("negative probability entry")
    _check_sum(arr.ravel().tolist())


def _check_sum(terms, counts=None, what: str = "probabilities") -> float:
    """The exact total of the terms (``_counted_fsum``), which must be 1
    within NORMALIZATION_TOL.  A total beyond floating point reads inf."""
    try:
        total = _counted_fsum(terms, counts)
    except OverflowError:
        total = math.inf
    # Negated so that a NaN total (a NaN or infinite entry) fails too.
    if not abs(total - 1.0) <= NORMALIZATION_TOL:
        raise ValueError(f"{what} sum to {total}, not 1")
    return total


# eq=False: equality and hashing by value fail on an ndarray field.
@dataclass(frozen=True, eq=False)
class Pmf:
    """Finitely supported pmf; ``base_q`` fixes the log base for reporting."""

    probs: np.ndarray
    base_q: int = 2

    def __post_init__(self):
        _freeze_probs(self, 1, "Pmf requires a 1-d probability vector")

    @property
    def support_size(self) -> int:
        return int(self.probs.size)

    @classmethod
    def uniform(cls, n: int, base_q: int = 2) -> "Pmf":
        return cls(np.full(n, 1.0 / n), base_q)


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Dense pmf of (x, z), the conditioning variable z on axis 1."""

    probs: np.ndarray
    base_q: int = 2

    def __post_init__(self):
        _freeze_probs(self, 2, "JointPmf requires 2 axes (x, z)")


def _counted_fsum(terms, counts=None) -> float:
    """The correctly rounded sum_i counts[i] * terms[i]; each term once without
    counts.

    Each count is split into its binary digits, and fsum gets the exact value
    ldexp(terms[i], j) for each set bit j of counts[i]: about log2(count)
    inputs in place of count copies.  fsum rounds the exact sum of its inputs
    once, so the result has the bits of fsum over the copies.  A product that
    leaves floating point enters as inf (numpy's overflow warning is silenced),
    so the sum is inf or fsum's OverflowError.
    """
    if counts is None:
        return math.fsum(terms)
    t = np.asarray(terms, dtype=float)[:, None]
    c = np.asarray(counts, dtype=np.int64)[:, None]
    bits = np.arange(int(c.max(initial=0)).bit_length(), dtype=np.intc)
    with np.errstate(over="ignore"):
        parts = np.ldexp(t, bits)[(c >> bits) & 1 == 1]
    return math.fsum(parts.tolist())


def _divergence(columns, rs, a: Alpha, lnq: float | None, counts=None) -> list[float]:
    """D_alpha of each column of masses ps against reference masses, all Python
    floats, over the terms with p > 0; +inf for a column where some p > 0 has
    r = 0.  ``rs`` is one positive reference shared by every mass of every
    column, or a list with one reference mass per entry of a single column.
    With counts (a single column), pair i stands for counts[i] equal terms:
    each is formed once and summed by ``_counted_fsum`` (the max of D_inf
    ignores counts).  With lnq None, the power sum sum p^alpha r^(1-alpha) of
    a finite order itself.

    Terms stay scalar ``**`` and ``math.log``: numpy's vectorized power and
    log may differ in the last bit, and reports are pinned byte for byte.  A
    shared reference's r^(1-alpha) is formed once per call, and each term is
    p^alpha times it, as with one reference per mass.  A zero mass adds a 0.0
    term, which leaves fsum unchanged.  A finite order whose power sum leaves
    floating point is refused.
    """
    b = a.value
    shared = not isinstance(rs, list)
    if shared:
        if a.is_finite_order:
            try:
                r_power = rs ** (1.0 - b)
            except OverflowError:  # every term is inf or NaN: refused below
                r_power = math.inf
        rs = itertools.repeat(rs)

    def column(ps) -> float:
        pairs = zip(ps, rs)
        try:
            if a.is_one:
                return _counted_fsum(
                    [pi * math.log(pi / ri) if pi > 0 else 0.0 for pi, ri in pairs],
                    counts,
                ) / lnq
            if a.is_infinite:
                return math.log(max(pi / ri for pi, ri in pairs if pi > 0)) / lnq
            if shared:
                terms = [pi ** b * r_power if pi > 0 else 0.0 for pi in ps]
            else:
                terms = [
                    pi ** b * ri ** (1.0 - b) if pi > 0 else 0.0 for pi, ri in pairs
                ]
            s = _counted_fsum(terms, counts)
        except ZeroDivisionError:  # p > 0 over r = 0
            return math.inf
        except OverflowError:
            if any(ri == 0 for pi, ri in pairs if pi > 0):  # the terms after it
                return math.inf
            s = math.inf
        if not 0.0 < s < math.inf:
            raise ValueError(f"alpha={b} is too large for floating point; use 'inf'")
        return s if lnq is None else math.log(s) / ((b - 1.0) * lnq)

    return [column(ps) for ps in columns]


def renyi_entropy(p: Pmf, a) -> float:
    """H_alpha in base-q units: -D_alpha(p || counting measure), so Shannon
    at alpha=1 and min-entropy at infinity."""
    return -_divergence([p.probs.tolist()], 1.0, as_alpha(a), math.log(p.base_q))[0]


def renyi_divergence(p: Pmf, r: Pmf, a) -> float:
    """D_alpha(p || r) in base-q units; +inf when p is not dominated by r."""
    if p.support_size != r.support_size:
        raise ValueError("pmfs must share a support size")
    lnq = math.log(p.base_q)
    return _divergence([p.probs.tolist()], r.probs.tolist(), as_alpha(a), lnq)[0]


def _tv(ps, rs, counts=None) -> float:
    """Half the L1 distance; with counts as in ``_divergence``."""
    return 0.5 * _counted_fsum([abs(pi - ri) for pi, ri in zip(ps, rs)], counts)


def tv_distance(p: Pmf, r: Pmf) -> float:
    if p.support_size != r.support_size:
        raise ValueError("pmfs must share a support size")
    return _tv(p.probs.tolist(), r.probs.tolist())


def _columns(arr: np.ndarray, counts=None):
    """Yield (w, conditional column, count) for each column of arr read as
    (axis 0, rest) whose mass w is positive; the conditional column holds the
    positive masses only, each divided by w, and count is the column's entry
    of ``counts`` (1 without them).

    Columns are the conditioning cells: z for an (x, z) joint, seed s or
    (s, z) for an output joint.  Each column is normalised in Python floats
    and must sum to 1, as a pmf would.
    """
    counts = itertools.repeat(1) if counts is None else counts
    for col, c in zip(arr.reshape(arr.shape[0], -1).T, counts):
        col = col.tolist()
        w = math.fsum(col)
        if w == 0:
            continue
        cond = [p / w for p in col if p > 0]
        _check_sum(cond)
        yield w, cond, c


def _conditional_power_sums(joint: JointPmf, a: Alpha, what: str):
    """(P_Z(z), sum_x P(x|z)^alpha) for every z with P_Z(z) > 0."""
    if not a.is_finite_order:
        raise ValueError(f"{what} is defined for finite alpha in (1, inf) only")
    pzs, conds, _ = zip(*_columns(joint.probs))
    return list(zip(pzs, _divergence(conds, 1.0, a, None)))


def conditional_renyi_entropy(joint: JointPmf, a) -> float:
    """H_alpha(X|Z):
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


def _group_columns(arr: np.ndarray, totals: np.ndarray, weight: int = 1):
    """An output joint's columns grouped by content, as (columns, refs,
    counts), checked to sum to 1.

    A column is a seed s or an (s, z) cell; its reference is its total over
    the U outputs, over U.  The joint's columns are V variants of each column
    c of arr: variant v holds c's entries in some order, totals totals[v, c]
    and stands for ``weight`` columns.  Columns whose sorted outputs and
    reference are the same bit for bit form a group: its sorted column,
    reference and member count.  One ``np.lexsort`` of the int64 bits of
    arr's sorted columns ranks them, and one of (rank, reference) over the
    variants orders the groups as a lexsort on the sorted column, then the
    reference, would.  The sum check adds each group's cells once per member.
    """
    n_out = arr.shape[0]
    bits = np.sort(arr.reshape(n_out, -1).T, axis=1).view(np.int64)
    order = np.lexsort(bits.T[::-1])
    bits = bits[order]
    new = np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)]
    rank = np.empty_like(order)
    rank[order] = np.cumsum(new) - 1
    distinct = bits[new]
    refs = (totals / n_out).ravel()
    rank = np.tile(rank, len(refs) // len(rank))
    order = np.lexsort((refs.view(np.int64), rank))
    rank, refs = rank[order], refs[order]
    ref_bits = refs.view(np.int64)
    new = (rank[1:] != rank[:-1]) | (ref_bits[1:] != ref_bits[:-1])
    starts = np.flatnonzero(np.r_[True, new])
    counts = np.diff(np.r_[starts, len(order)]) * weight
    cols, refs = distinct[rank[starts]].view(float).T, refs[starts]
    del bits, distinct, new, order, rank, ref_bits  # freed before the check allocates
    _check_sum(cols.T.ravel(), np.repeat(counts, cols.shape[0]))
    return cols, refs, counts


def _merge_runs(rows: np.ndarray, counts: np.ndarray):
    """(first row of each run, summed counts) over the runs of neighbouring
    rows that are equal bit for bit."""
    bits = rows.view(np.int64)
    starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)])
    return rows[starts], np.add.reduceat(counts, starts)


def _distinct_pairs(groups):
    """The distinct (cell, reference) pairs of a joint's column ``groups``
    (``_group_columns``) against uniform outputs x the joint's own seed[,z]
    marginal, as (cells, refs, counts): a pair's count is the number of the
    joint's cells it stands for."""
    cols, refs, counts = groups
    n_out = cols.shape[0]
    pairs = np.empty((cols.size, 2))
    pairs[:, 0] = cols.T.ravel()
    pairs[:, 1] = np.repeat(refs, n_out)
    bits = pairs.view(np.int64)
    order = np.lexsort((bits[:, 1], bits[:, 0]))
    merged, summed = _merge_runs(pairs[order], np.repeat(counts, n_out)[order])
    return merged[:, 0].tolist(), merged[:, 1].tolist(), summed


def _seed_averaged_divergences(groups, alphas: list[Alpha], lnq: float) -> list[float]:
    """Seed-averaged divergences from uniform outputs, every order from one read
    of a joint's column ``groups`` (``_group_columns``):
    sum_s P_S(s) D_alpha(P(.|s) || uniform); over (s, z) cells with side info.
    Groups that differ only in their reference are neighbours, so one compare
    of neighbours gives the distinct sorted columns.  Each is normalised once,
    and each order reads them all in one ``_divergence`` call; its terms count
    once per column that holds it."""
    cols, _, counts = groups
    cols, counts = _merge_runs(cols.T, counts)
    weights, conds, kept = zip(*_columns(cols.T, counts.tolist()))
    uniform = 1.0 / cols.shape[1]
    return [
        _counted_fsum(
            [w * d for w, d in zip(weights, _divergence(conds, uniform, a, lnq))], kept
        )
        for a in alphas
    ]


def conditional_divergence(joint, a) -> float:
    """The seed-averaged divergence of one order of an ``ExtractedJoint``."""
    return _seed_averaged_divergences(
        joint._groups, [as_alpha(a)], math.log(joint.base_q)
    )[0]


def joint_divergence_from_uniform(joint, a) -> float:
    """D_alpha(joint || uniform-on-outputs x the joint's own seed[,z] marginal)
    for an ``ExtractedJoint``."""
    cells, refs, counts = _distinct_pairs(joint._groups)
    return _divergence([cells], refs, as_alpha(a), math.log(joint.base_q), counts)[0]


class DivergenceRow(NamedTuple):
    alpha: Alpha
    joint: float
    conditional: float


class DivergenceTable(NamedTuple):
    rows: tuple[DivergenceRow, ...]
    tv_to_uniform: float
    kl_to_uniform: float
    conditional_inf: float


def empirical_divergences(joint, alphas) -> DivergenceTable:
    """Joint and conditional D_alpha per order, TV, KL and the conditional D_inf
    of an ``ExtractedJoint``, all from the grouping of its columns that
    ``extract_joint`` built it with."""
    alphas = [as_alpha(a) for a in alphas]
    lnq = math.log(joint.base_q)
    *conditional, conditional_inf = _seed_averaged_divergences(
        joint._groups, alphas + [Alpha.infinity()], lnq
    )
    cells, refs, counts = _distinct_pairs(joint._groups)

    def joint_d(a):
        return _divergence([cells], refs, a, lnq, counts)[0]

    rows = tuple(
        DivergenceRow(a, joint_d(a), c) for a, c in zip(alphas, conditional)
    )
    return DivergenceTable(
        rows, _tv(cells, refs, counts), joint_d(Alpha.one()), conditional_inf
    )
