"""Finite pmfs and the entropy / divergence functionals used throughout.

All logarithms are base q (the pmf's ``base_q``).  Sums of probability terms
use ``math.fsum`` so results are stable to well below the documented 1e-9
comparison tolerance.  Conventions: 0 log 0 = 0 and 0^a = 0 for a > 0.

This module holds the records (``Alpha``, ``Pmf``, ``JointPmf`` and the
``Source`` a run hashes), the counted sum and the sum check, and every
public function.  D_alpha has one kernel over one layout per pmf or side of
an output joint's table, in ``_divergence``, which the first function that
computes an entropy or a divergence imports: a run that computes none, such
as a bucket experiment, does not compile it.  H_alpha is minus D_alpha
against the counting measure.
``_counted_fsum`` adds count x term as the exact ldexp(term, j) per set bit j
of the count, BLOCK terms at a time, into one ``math.fsum``.
Bit rule: numpy's *, /, -, abs, max and ldexp are IEEE-exact, but np.power
and np.log are not (numpy 2.4 on AVX-512: 10,872 of 200,000 inputs differ in
the last bit for x**1.25, 708 for log), so powers and logs stay scalar
``pow`` and ``math.log``.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from ._record import Record
from .bounds import SLACK
from .families import BLOCK

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
        from ._divergence import _conditionals, _layout

        pzs, conds, _ = _conditionals(self.probs.T)
        return pzs, _layout(conds, 1.0)


# eq=False: equality and hashing by value fail on an ndarray field.
class Source(Record, eq=False):
    """A pmf over a field's canonical input integers 0 .. q^n - 1, optionally
    with a side channel.

    ``probs.probs[i]`` is P(X=i); ``side_channel[i, z]`` is P(Z=z | X=i) and
    each row sums to 1.
    """

    probs: Pmf
    side_channel: np.ndarray | None = None

    def __post_init__(self):
        if self.side_channel is not None:
            sc = np.array(self.side_channel, dtype=float)  # a private copy
            sc.setflags(write=False)
            object.__setattr__(self, "side_channel", sc)
            if sc.ndim != 2 or sc.shape[0] != self.probs.support_size:
                raise ValueError("side channel needs one row per source symbol")
            if np.any(sc < 0):
                raise ValueError("side channel entries must be non-negative")
            for i, row in enumerate(sc):
                what = f"side-channel row {i}'s entries"
                _check_sum(row.tolist(), what=what)
            # Rows and source can each sum to 1 within tolerance while their
            # product, the (X, Z) joint, does not.
            xz = (self.probs.probs[:, None] * sc).ravel().tolist()
            _check_sum(xz, what="source entries times side-channel rows")
        object.__setattr__(self, "_computed", {})

    @property
    def n_side(self) -> int:
        return 0 if self.side_channel is None else self.side_channel.shape[1]

    def _once(self, key, compute):
        """compute() on the first call with key, its stored value after: a
        source is immutable, so a run computes each of its values once."""
        if key not in self._computed:
            self._computed[key] = compute()
        return self._computed[key]

    def xz_joint(self) -> JointPmf:
        """Joint pmf of (X, Z); requires a side channel."""
        if self.side_channel is None:
            raise ValueError("source has no side channel")
        return self._once(
            "xz",
            lambda: JointPmf(
                self.probs.probs[:, None] * self.side_channel, self.probs.base_q
            ),
        )

    def entropy(self, a) -> float:
        a = as_alpha(a)
        return self._once(("H", a), lambda: _nonnegative(renyi_entropy(self.probs, a)))

    def conditional_entropy(self, a) -> float:
        a = as_alpha(a)
        return self._once(
            ("H|Z", a), lambda: _nonnegative(conditional_renyi_entropy(self.xz_joint(), a))
        )

    def bound_entropy(self, a) -> float:
        """The entropy the paper's bounds take: H_alpha(X|Z) with a side
        channel, else H_alpha(X)."""
        if self.side_channel is None:
            return self.entropy(a)
        return self.conditional_entropy(a)


def _nonnegative(h: float) -> float:
    """An entropy that rounding took below 0 by at most SLACK reads 0: a point
    mass whose side-channel rows sum one ulp over 1 gives about -3e-16."""
    return 0.0 if -SLACK <= h < 0 else h


def _bits(c: np.ndarray):
    """(i, j) per set bit j of the int64 c[i], bit by bit: c[i] t = sum ldexp(t, j)."""
    i = [np.flatnonzero(c >> j & 1) for j in range(int(c.max(initial=0)).bit_length())]
    j = np.repeat(np.arange(len(i), dtype=np.intc), list(map(len, i)))
    return np.concatenate([*i, c[:0]]), j


def _counted_terms(terms, counts):
    """The exact ldexp(terms[i], j) for each set bit j of counts[i] (``_bits``),
    as one list per BLOCK terms; a product beyond floating point enters as inf."""
    terms, counts = np.asarray(terms, dtype=float), np.asarray(counts, dtype=np.int64)
    for start in range(0, len(terms), BLOCK):
        i, j = _bits(counts[start : start + BLOCK])
        with np.errstate(over="ignore"):
            chunk = np.ldexp(terms[start:][i], j)
        yield chunk.tolist()


def _counted_fsum(terms, counts=None) -> float:
    """The correctly rounded sum_i counts[i] * terms[i] (each term once without
    counts): one ``math.fsum`` streams ``_counted_terms``, so the sum is inf or
    fsum's OverflowError when a product leaves floating point."""
    if counts is None:
        return math.fsum(terms)
    return math.fsum(itertools.chain.from_iterable(_counted_terms(terms, counts)))


def renyi_entropy(p: Pmf, a) -> float:
    """H_alpha in base-q units: -D_alpha(p || counting measure), so Shannon
    at alpha=1 and min-entropy at infinity."""
    from ._divergence import _kernel, _layout

    return -_kernel(_layout(p.probs[None], 1.0), as_alpha(a), math.log(p.base_q))[0]


def renyi_divergence(p: Pmf, r: Pmf, a) -> float:
    """D_alpha(p || r) in base-q units; +inf when p is not dominated by r."""
    if p.support_size != r.support_size:
        raise ValueError("pmfs must share a support size")
    a = as_alpha(a)
    from ._divergence import _kernel, _layout

    return _kernel(_layout(p.probs[None], r.probs[None]), a, math.log(p.base_q))[0]


def tv_distance(p: Pmf, r: Pmf) -> float:
    if p.support_size != r.support_size:
        raise ValueError("pmfs must share a support size")
    from ._divergence import _tv

    return _tv(p.probs, r.probs)


def _conditional_power_sums(joint: JointPmf, a, what: str):
    """(P_Z(z), sum_x P(x|z)^alpha) over z with P_Z(z) > 0, and (1 - alpha) ln q."""
    a = as_alpha(a)
    if not a.is_finite_order:
        raise ValueError(f"{what} is defined for finite alpha in (1, inf) only")
    if not isinstance(joint, JointPmf):  # an output joint, read as (axis 0, rest)
        joint = JointPmf(joint.probs.reshape(len(joint.probs), -1), joint.base_q)
    pzs, layout = joint._conditional_layout
    scale = (1.0 - a.value) * math.log(joint.base_q)
    from ._divergence import _kernel

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
    from ._divergence import _scalar

    return math.fsum((pzs * _scalar(math.log, inner.tolist())).tolist()) / scale


def conditional_divergence(joint, a) -> float:
    """The seed-averaged divergence of one order of an ``ExtractedJoint``."""
    key = ("conditional", as_alpha(a))
    from ._divergence import _averaged

    return _averaged(joint._groups, [key], math.log(joint.base_q))[key]


def joint_divergence_from_uniform(joint, a) -> float:
    """D_alpha(joint || uniform-on-outputs x the joint's own seed[,z] marginal)
    for an ``ExtractedJoint``."""
    key = ("joint", as_alpha(a))
    from ._divergence import _joint

    return _joint(joint._groups, [key], math.log(joint.base_q))[key]


def _checked(key):
    """A divergence-table key with its order as an ``Alpha``: ("tv",), or a
    ("joint" | "conditional", order) pair whose order ``as_alpha`` takes.
    Anything else is a ValueError that names the key."""
    if key == ("tv",):
        return key
    try:
        side, a = key
        if side in ("joint", "conditional"):
            return side, as_alpha(a)
        problem = 'it is neither ("tv",) nor ("joint" | "conditional", order)'
    except (TypeError, ValueError, OverflowError) as e:
        problem = str(e)
    raise ValueError(f"bad divergence key {key!r}: {problem}")


def empirical_divergences(joint, keys) -> dict:
    """The divergence table of an ``ExtractedJoint`` as a map from the keys a
    run reads, ("joint", alpha), ("conditional", alpha) with alpha an
    ``Alpha`` or a number ``as_alpha`` takes, or ("tv",), to their values, in
    the keys' order and keyed by the keys as given, from its ranked columns.
    Every key is checked (``_checked``) before anything is computed.  Only
    the keys given are computed: the seed-averaged side builds its layout and
    evaluates its keys, then the joint side does, so one layout is held at a
    time, and a side no key names builds none."""
    given, lnq = {key: _checked(key) for key in keys}, math.log(joint.base_q)
    from ._divergence import _averaged, _joint

    wanted, groups = dict.fromkeys(given.values()), joint._groups
    values = {**_averaged(groups, wanted, lnq), **_joint(groups, wanted, lnq)}
    return {key: values[checked] for key, checked in given.items()}
