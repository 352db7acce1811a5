"""Finite pmfs and the entropy / divergence functionals used throughout.

All logarithms are base q (the pmf's ``base_q``).  Sums of probability terms
use ``math.fsum`` so results are stable to well below the documented 1e-9
comparison tolerance.  Conventions: 0 log 0 = 0 and 0^a = 0 for a > 0.

D_alpha has one kernel, ``_kernel``, over one layout per joint (``_layout``),
built once and read by every order: the distinct masses and references, the
distinct (mass, reference) pairs and each row's parts.  H_alpha is minus
D_alpha against the counting measure.  Extraction groups an output joint's
columns once (``extraction._group_columns``); the table reads one row per
distinct normalised column for the seed-averaged D_alpha, and one row of the
distinct (cell, reference) pairs, counted through the set bits of each count
(``_counted_fsum``), for the joint D_alpha.  Each order raises each distinct
value to its power once, gathers and multiplies in numpy, and adds each row
with ``math.fsum``, which rounds correctly, so the results have the bits of a
walk over every cell.  Bit rule: numpy's *, /, -, abs, max and ldexp are
IEEE-exact, but np.power and np.log are not (numpy 2.4 on AVX-512: 10,872 of
200,000 inputs differ in the last bit for x**1.25, 708 for log), so powers
and logs stay scalar ``pow`` and ``math.log``.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._record import Record

NORMALIZATION_TOL = 1e-9
# Orders in (1, 1 + ALPHA_GAP) are rejected: the 1/(alpha-1) prefactor would
# amplify rounding; use the exact KL limit instead.
ALPHA_GAP = 1e-6


class Alpha(Record):
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
class Pmf(Record, eq=False):
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


class JointPmf(Record, eq=False):
    """Dense pmf of (x, z), the conditioning variable z on axis 1."""

    probs: np.ndarray
    base_q: int = 2

    def __post_init__(self):
        _freeze_probs(self, 2, "JointPmf requires 2 axes (x, z)")

    @cached_property
    def _conditional_layout(self):
        """(P_Z(z), the ``_layout`` of P(.|z)) over the z with P_Z(z) > 0."""
        pzs, conds, _ = _conditionals(self.probs.T)
        return pzs, _layout(conds, 1.0)


def _bits(counts):
    """(i, j) per set bit j of counts[i], bit by bit: counts[i] t = sum ldexp(t, j)."""
    c = np.asarray(counts, dtype=np.int64)
    i = [np.flatnonzero(c >> j & 1) for j in range(int(c.max(initial=0)).bit_length())]
    j = np.repeat(np.arange(len(i), dtype=np.intc), list(map(len, i)))
    return np.concatenate([*i, c[:0]]), j


def _counted_fsum(terms, counts=None, bits=None) -> float:
    """The correctly rounded sum_i counts[i] * terms[i] (each term once without
    counts), by fsum over the exact ldexp(terms[i], j) for each set bit j of
    counts[i] (``_bits``, or the bits given).  A product beyond floating point
    enters as inf, so the sum is inf or fsum's OverflowError."""
    if counts is None and bits is None:
        return math.fsum(terms)
    i, j = bits or _bits(counts)
    with np.errstate(over="ignore"):
        return math.fsum(np.ldexp(np.asarray(terms, dtype=float)[i], j).tolist())


def _scalar(f, xs, *args) -> np.ndarray:
    """f over the Python floats xs, as an array: np.power and np.log may
    differ from scalar pow and math.log in the last bit."""
    return np.fromiter(map(f, xs, *args), dtype=float)


def _distinct(x: np.ndarray, counts=None):
    """(the distinct entries of the 1-d x by their int64 bit patterns, the index
    of each entry among them, their summed counts or None): a lexsort of bit
    views; np.unique's inverse changed shape in numpy 2.0."""
    bits = x.view(np.int64)
    order = np.lexsort((bits,))
    new = np.concatenate(([True], np.diff(bits[order]) != 0))
    index = np.empty_like(order)
    index[order] = np.cumsum(new) - 1
    if counts is not None:
        counts = np.add.reduceat(counts[order], np.flatnonzero(new))
    return x[order[new]], index, counts


def _layout(masses: np.ndarray, refs, counts=None):
    """What ``_kernel`` reads for D_alpha of each row of masses against refs
    (broadcast to masses), over the positive masses: the distinct masses and
    references as Python floats (references None when one is 0); per distinct
    (mass, reference) pair its index into both, mass, reference and summed
    count; per row its parts, a pair index (-1: 0.0) and each count bit."""
    pos = masses > 0
    m, r = (x[pos] for x in np.broadcast_arrays(masses, refs))
    vals, vi, _ = _distinct(m)
    refs, ri, _ = _distinct(r)
    counts = None if counts is None else counts[pos.ravel()]
    keys, index, summed = _distinct(vi * len(refs) + ri, counts)
    vi, ri = np.divmod(keys, len(refs))
    src, exp = np.full(masses.shape, -1), None
    src[pos] = index
    if counts is not None:
        src, exp = (x[None] for x in _bits(summed))
    ps, rs = vals[vi], refs[ri]
    refs = None if (refs == 0).any() else refs.tolist()
    return vals.tolist(), refs, vi, ri, ps, rs, summed, src, exp


def _kernel(layout, a: Alpha, lnq: float | None) -> list[float]:
    """D_alpha of each row of a ``_layout`` (+inf in all when a positive mass
    has reference 0), or with lnq None the power sums of a finite order: one
    ``pow`` per distinct mass and reference, one ``math.log`` per distinct
    pair's p/r; D_inf's max ignores counts.  A finite order whose power or
    power sum leaves floating point is refused."""
    vals, refs, vi, ri, ps, rs, _, src, exp = layout
    if refs is None:
        return [math.inf] * len(src)
    b, sums = a.value, None
    with np.errstate(all="ignore"):
        try:
            if a.is_infinite:
                top = map(max, np.append(ps / rs, 0.0)[src].tolist())
                return (_scalar(math.log, list(top)) / lnq).tolist()
            if a.is_one:
                terms = ps * _scalar(math.log, (ps / rs).tolist())
            else:
                terms = _scalar(pow, vals, itertools.repeat(b))[vi]
                terms *= _scalar(pow, refs, itertools.repeat(1.0 - b))[ri]
            parts = np.append(terms, 0.0)[src]
            parts = parts if exp is None else np.ldexp(parts, exp)
            sums = _scalar(math.fsum, parts.tolist())
        except OverflowError:  # a power or a sum beyond floating point
            pass
    if sums is None or not (a.is_one or ((sums > 0.0) & (sums < math.inf)).all()):
        raise ValueError(f"alpha={b} is too large for floating point; use 'inf'")
    if a.is_one or lnq is None:  # KL, or the power sums themselves
        return (sums / (lnq or 1.0)).tolist()
    return (_scalar(math.log, sums.tolist()) / ((b - 1.0) * lnq)).tolist()


def renyi_entropy(p: Pmf, a) -> float:
    """H_alpha in base-q units: -D_alpha(p || counting measure), so Shannon
    at alpha=1 and min-entropy at infinity."""
    return -_kernel(_layout(p.probs[None], 1.0), as_alpha(a), math.log(p.base_q))[0]


def renyi_divergence(p: Pmf, r: Pmf, a) -> float:
    """D_alpha(p || r) in base-q units; +inf when p is not dominated by r."""
    if p.support_size != r.support_size:
        raise ValueError("pmfs must share a support size")
    a = as_alpha(a)
    return _kernel(_layout(p.probs[None], r.probs[None]), a, math.log(p.base_q))[0]


def _tv(ps: np.ndarray, rs: np.ndarray, counts=None) -> float:
    """Half the L1 distance, each |p - r| counted as in ``_counted_fsum``."""
    return 0.5 * _counted_fsum(np.where(ps > rs, ps - rs, rs - ps), counts)


def tv_distance(p: Pmf, r: Pmf) -> float:
    if p.support_size != r.support_size:
        raise ValueError("pmfs must share a support size")
    return _tv(p.probs, r.probs)


def _conditionals(rows: np.ndarray):
    """(w, P(.|c), kept) for the rows c of masses with positive total w: each
    total by ``math.fsum``, its row's positive masses divided by it and zeros
    elsewhere, each checked to sum to 1 as a pmf would; kept marks them."""
    w = _scalar(math.fsum, rows.tolist())
    kept = w != 0
    w, rows = w[kept], rows[kept]
    cond = np.where(rows > 0, rows / w[:, None], 0.0)
    for row in cond.tolist():
        if not abs(math.fsum(row) - 1.0) <= NORMALIZATION_TOL:
            _check_sum(row)  # refused, with its total in the message
    return w, cond, kept


def _conditional_power_sums(joint: JointPmf, a, what: str):
    """(P_Z(z), sum_x P(x|z)^alpha) over z with P_Z(z) > 0, and (1 - alpha) ln q."""
    a = as_alpha(a)
    if not a.is_finite_order:
        raise ValueError(f"{what} is defined for finite alpha in (1, inf) only")
    if not isinstance(joint, JointPmf):  # an output joint, read as (axis 0, rest)
        joint = JointPmf(joint.probs.reshape(len(joint.probs), -1), joint.base_q)
    pzs, layout = joint._conditional_layout
    scale = (1.0 - a.value) * math.log(joint.base_q)
    return pzs, np.array(_kernel(layout, a, None)), scale


def conditional_renyi_entropy(joint: JointPmf, a) -> float:
    """H_alpha(X|Z):
    (1/(1-alpha)) log_q sum_z P_Z(z) sum_x P(x|z)^alpha.
    """
    pzs, inner, scale = _conditional_power_sums(joint, a, "conditional Renyi entropy")
    return math.log(math.fsum((pzs * inner).tolist())) / scale


def tilde_conditional_entropy(joint: JointPmf, a) -> float:
    """Log-inside-the-average variant:
    (1/(1-alpha)) sum_z P_Z(z) log_q sum_x P(x|z)^alpha.
    """
    pzs, inner, scale = _conditional_power_sums(joint, a, "tilde conditional entropy")
    return math.fsum((pzs * _scalar(math.log, inner.tolist())).tolist()) / scale


def _merge_runs(rows: np.ndarray, counts: np.ndarray):
    """(first row of each run, summed counts) over the runs of neighbouring
    rows that are equal bit for bit."""
    bits = rows.view(np.int64)
    starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)])
    return rows[starts], np.add.reduceat(counts, starts)


def _averaged(groups, lnq: float):
    """sum_s P_S(s) D_alpha(P(.|s) || uniform) (over (s, z) with side info) of
    a joint's ``groups``, as a function of the order.  Groups that differ only
    in their reference are neighbours, so a compare of neighbours gives the
    distinct sorted columns: one ``_layout``'s rows, counted once per column."""
    cols, _, counts = groups
    rows, counts = _merge_runs(cols.T, counts)
    w, conds, kept = _conditionals(rows)
    layout, bits = _layout(conds, 1.0 / rows.shape[1]), _bits(counts[kept])
    return lambda a: _counted_fsum(w * _kernel(layout, a, lnq), bits=bits)


def _joint_layout(groups):
    """The one-row ``_layout`` of a joint's cells against uniform outputs x its
    seed[,z] marginal, and its TV: positive pairs' |p - r|, zero cells' r."""
    cols, refs, counts = groups
    n_out = cols.shape[0]
    cells = cols.T.ravel()[None], np.repeat(refs, n_out)[None]
    layout = _layout(*cells, np.repeat(counts, n_out))
    ps, rs, summed = layout[4:7]
    zeros = counts * (n_out - (cols > 0).sum(axis=0))
    tv = _tv(np.r_[ps, 0.0 * refs], np.r_[rs, refs], np.r_[summed, zeros])
    return layout, tv


def conditional_divergence(joint, a) -> float:
    """The seed-averaged divergence of one order of an ``ExtractedJoint``."""
    return _averaged(joint._groups, math.log(joint.base_q))(as_alpha(a))


def joint_divergence_from_uniform(joint, a) -> float:
    """D_alpha(joint || uniform-on-outputs x the joint's own seed[,z] marginal)
    for an ``ExtractedJoint``."""
    layout, _ = _joint_layout(joint._groups)
    return _kernel(layout, as_alpha(a), math.log(joint.base_q))[0]


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
    of an ``ExtractedJoint``, from its column groups: every order reads one
    layout for the conditional and one for the joint functionals, and each
    functional is computed once, whether or not the orders list 1 or inf."""
    alphas = [as_alpha(a) for a in alphas]
    lnq = math.log(joint.base_q)
    one, inf = Alpha.one(), Alpha.infinity()
    averaged = _averaged(joint._groups, lnq)
    conditional = {a: averaged(a) for a in dict.fromkeys(alphas + [inf])}
    layout, tv = _joint_layout(joint._groups)
    joint_d = {a: _kernel(layout, a, lnq)[0] for a in dict.fromkeys(alphas + [one])}
    rows = tuple(DivergenceRow(a, joint_d[a], conditional[a]) for a in alphas)
    return DivergenceTable(rows, tv, joint_d[one], conditional[inf])
