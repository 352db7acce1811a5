"""Exact extracted-output joints by exhaustive seed/source enumeration.

For a family h and source X (with optional side channel Z), the joint is
P(u, s) = P_S(s) sum_{x : h(s,x)=u} P_X(x), or its (u, s, z) analogue
P_S(s) sum_x 1{h(s,x)=u} P_X(x) P_{Z|X}(z|x).  The seed S is always uniform.

Sources and bucket subsets are canonical input integers 0 .. q^n - 1, the
field's elements.  Both the joint and the exact largest-bucket experiment
hash one seed per coset of the translate group T (``families._translates``):
adding a t in T to a seed shifts each of its outputs by one constant, so the
other seeds of a coset are output permutations of its representative, bit for
bit.  The representatives are hashed BLOCK at a time, their digit rows made
from their indices, so memory follows the block and the joint's columns, not
the number of representatives times their digits and inputs.  The joint adds
one input's mass at a time, so every cell sums its terms in canonical input
order.  It is kept as its column groups (``ExtractedJoint``), ranked once from
the representatives' columns and merged one distinct output shift at a time;
its dense U x seeds [x Z] array is built only when read.  A shift permutes
the buckets too, so a coset shares its largest bucket.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .bounds import SLACK
from .errors import BudgetExceededError
from .families import (
    DEFAULT_BUDGET, INT64_MAX, Cosets, HashFamily, Inputs, _all_digit_rows,
    _prepared, _translates, hash_table,
)
# Re-exported so perfbench/tracing.py can count calls here.
from .families import evaluate  # noqa: F401
from . import measures
from ._record import Record
from .measures import JointPmf, Pmf

# Coset representatives hashed per ``hash_table`` call, table cells and seed
# digits per call of the sampled bucket, and groups per chunk of the sum
# check: the block bounds memory, the budget bounds work.
BLOCK = 2**14


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
                measures._check_sum(row.tolist(), what=what)
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
        a = measures.as_alpha(a)
        return self._once(
            ("H", a), lambda: _nonnegative(measures.renyi_entropy(self.probs, a))
        )

    def conditional_entropy(self, a) -> float:
        a = measures.as_alpha(a)
        return self._once(
            ("H|Z", a),
            lambda: _nonnegative(
                measures.conditional_renyi_entropy(self.xz_joint(), a)
            ),
        )


def _nonnegative(h: float) -> float:
    """An entropy that rounding took below 0 by at most SLACK reads 0: a point
    mass whose side-channel rows sum one ulp over 1 gives about -3e-16."""
    return 0.0 if -SLACK <= h < 0 else h


class ExtractedJoint(Record, eq=False):
    """An output joint P(u, s[, z]) as its column groups, from
    ``_group_columns``, its coset representatives' columns and its
    ``Cosets``; ``probs``, the dense U x seeds [x Z] array, is built on first
    read."""

    base_q: int
    _groups: tuple
    _rep_columns: np.ndarray
    _layout: Cosets

    @cached_property
    def probs(self) -> np.ndarray:
        (_, translates, reduced, moves), q = self._layout, self.base_q
        columns = self._rep_columns
        seeds, m = translates * columns.shape[1], len(moves)
        digits = _all_digit_rows(m, q)
        acc = np.empty((len(digits), seeds) + columns.shape[2:])
        for start in range(0, seeds, BLOCK):  # BLOCK seeds' digit rows at a time
            at = np.arange(start, min(start + BLOCK, seeds))
            s = at[:, None] // q ** np.arange(reduced.shape[1]) % q
            rep = s @ reduced.T % q @ q ** np.arange(len(reduced))
            # Seed s holds its representative's column moved from output u to
            # lands[s, u] = u + shift(s) digitwise.
            lands = (digits + (s @ moves.T % q)[:, None]) % q @ q ** np.arange(m)
            acc[lands.T, at] = columns[:, rep]
        acc.setflags(write=False)
        return acc


class ExtractionResult(NamedTuple):
    """The exact joint over (u, s[, z]) together with its provenance."""

    joint: ExtractedJoint
    family: HashFamily
    source: Source

    @property
    def has_side_channel(self) -> bool:
        return self.source.side_channel is not None

    def source_entropy(self, a) -> float:
        """H_alpha(X|Z) when a side channel is present, else H_alpha(X)."""
        if self.has_side_channel:
            return self.source.conditional_entropy(a)
        return self.source.entropy(a)


def _group_columns(arr: np.ndarray, totals, weight: int = 1):
    """An output joint's columns grouped by content, as (columns, refs,
    counts), checked to sum to 1.

    A column is a seed s or an (s, z) cell; its reference is its total over
    the U outputs, over U.  The joint's columns are V variants of each column
    c of arr: variant v holds c's entries in some order, totals holds one
    array per variant, shaped as arr[0], whose entry c is variant v's total,
    and each variant stands for ``weight`` columns.  Columns whose sorted
    outputs and reference are the same bit for bit form a group: its sorted
    column, reference and member count.  One ``np.lexsort`` of the int64 bits
    of arr's sorted columns ranks them.  Each variant's (rank, reference)
    rows then join the groups so far, and a lexsort on (rank, reference bits)
    plus a merge of equal neighbours sums their counts, as
    ``measures._merge_runs`` does, so no V x C array is built and the groups
    come in the order of one lexsort on the sorted column, then the
    reference.  The sum check is ``_check_cells``.
    """
    n_out = arr.shape[0]
    bits = np.sort(arr.reshape(n_out, -1).T, axis=1).view(np.int64)
    order = np.lexsort(bits.T[::-1])
    bits = bits[order]
    new = np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)]
    rank = np.empty_like(order)
    rank[order] = np.cumsum(new) - 1
    distinct = bits[new]
    del bits, order, new
    kept, refs, counts, ones = rank[:0], np.empty(0), rank[:0], np.ones_like(rank)
    for total in totals:
        # One new array at a time, each freeing the one it replaces.
        refs = np.r_[refs, (total / n_out).ravel()]
        kept = np.r_[kept, rank]
        counts = np.r_[counts, ones]
        order = np.lexsort((refs.view(np.int64), kept))
        kept = kept[order]
        refs = refs[order]
        counts = counts[order]
        del order
        ref_bits = refs.view(np.int64)
        new = (kept[1:] != kept[:-1]) | (ref_bits[1:] != ref_bits[:-1])
        starts = np.flatnonzero(np.r_[True, new])
        kept, refs, counts = kept[starts], refs[starts], np.add.reduceat(counts, starts)
    cols, counts = distinct[kept].view(float).T, counts * weight
    _check_cells(cols, counts)
    return cols, refs, counts


def _check_cells(cols: np.ndarray, counts: np.ndarray) -> float:
    """The exact total of grouped columns, each group's cells once per member,
    checked to be 1 (``measures._check_sum``).  One streaming ``math.fsum``
    reads BLOCK groups at a time: per distinct cell value of a chunk, with its
    counts summed, the exact ldexp(value, j) for each set bit j of the count,
    which gives the exact total of one term per cell."""

    def chunks():
        for start in range(0, len(counts), BLOCK):
            chunk = cols[:, start : start + BLOCK]
            vals, _, summed = measures._distinct(
                chunk.T.ravel(), np.repeat(counts[start : start + BLOCK], len(cols))
            )
            i, j = measures._bits(summed)
            with np.errstate(over="ignore"):  # an overflowing term enters as inf
                terms = np.ldexp(vals[i], j).tolist()
            yield terms

    return measures._check_sum(itertools.chain.from_iterable(chunks()))


def _blocks(family: HashFamily, cosets: Cosets, inputs: Inputs):
    """(first index, hash table) per block of BLOCK coset representatives,
    in index order, each block's digit rows made from its indices."""
    q = family.field.q
    n_reps = q ** len(cosets.pivots)
    for start in range(0, n_reps, BLOCK):
        digits = cosets.representatives(q, start, min(start + BLOCK, n_reps))
        yield start, hash_table(family, digits, inputs)


def extract_joint(
    family: HashFamily,
    source: Source,
    budget: int = DEFAULT_BUDGET,
) -> ExtractionResult:
    """P(u, s[, z]) over every seed, grouped exactly as tabulating every seed
    would give it, bit for bit, from one hashed seed per translate coset."""
    f, n_inputs, base = family.field, source.probs.support_size, source.probs.base_q
    if (n_inputs, base) != (f.size, f.q):
        raise ValueError(
            f"source of {n_inputs} symbols in base {base} does not fit GF({f.q}^{f.n})"
        )
    q, n_out, seeds = f.q, family.output_size, family.seed_space_size
    # Each representative's table cells and columns.
    width = n_inputs + n_out * max(1, source.n_side)
    check = _charge(family, n_inputs, width, budget)
    if seeds * max(1, source.n_side) * n_out > INT64_MAX:  # counts sum to the cells
        raise ValueError(
            f"{q}^{family.seed_digits} seeds x {max(1, source.n_side)} side symbols"
            f" x {n_out} outputs are too many cells to count in int64"
        )
    inputs = _prepared(family, range(n_inputs))
    cosets = _translates(family, inputs, check)
    px = source.probs.probs
    sc = source.side_channel
    tail = () if sc is None else (source.n_side,)
    rep_joint = np.zeros((n_out, q ** len(cosets.pivots)) + tail)
    # One input at a time touches each seed's column once, so every cell sums
    # its terms in canonical input order.
    for start, table in _blocks(family, cosets, inputs):
        cols = np.arange(start, start + len(table))
        for i in range(n_inputs):
            rep_joint[table[:, i], cols] += px[i] if sc is None else px[i] * sc[i]
        del table
    rep_joint *= 1.0 / seeds
    # Seed rep + t holds rep's column moved by shift(t): its total adds rep's
    # entries at u - shift(t) for u = 0 .. U-1, as arr.sum(axis=0) adds the
    # dense joint.  t -> shift(t) is linear, so each of its V values is hit
    # |T| / V times.
    powers, digits = q ** np.arange(family.m), _all_digit_rows(family.m, q)
    back = (digits - cosets.shifts(q)[:, None]) % q @ powers  # back[v, u] = u - v
    totals = (_total(rep_joint, b) for b in back)
    groups = _group_columns(rep_joint, totals, cosets.translates // len(back))
    joint = ExtractedJoint(q, groups, rep_joint, cosets)
    return ExtractionResult(joint, family, source)


def _total(arr: np.ndarray, order: np.ndarray) -> np.ndarray:
    """arr[order[0]] + arr[order[1]] + ..., added in that order."""
    total = arr[order[0]].copy()
    for u in order[1:]:
        total += arr[u]
    return total


def _charge(family: HashFamily, n_inputs: int, width: int, budget: int):
    """Refuse the row reduction of the D x (inputs x m) basis differences over
    budget (each of at most min(D, inputs x m) pivots updates every cell), and
    return the check ``_translates`` runs once it knows the rank r: with it,
    the q^r representatives' D digits plus ``width`` cells each (their table
    and columns) must fit too.  The translates are counted, never listed."""
    q, n_digits, rows = family.field.q, family.seed_digits, n_inputs * family.m
    reduction = n_digits * rows * min(n_digits, rows)
    what = f"{n_digits} x {rows} basis differences x {min(n_digits, rows)} pivots"
    if reduction > budget:
        raise BudgetExceededError(f"{what} exceeds budget {budget}")

    def check(rank: int):
        reps = q**rank
        if reduction + reps * (n_digits + width) > budget:
            raise BudgetExceededError(
                f"{what} + {reps} representatives x ({n_digits} seed digits"
                f" + {width} cells) exceeds budget {budget}"
            )

    return check


class BucketEstimate(NamedTuple):
    mean: float
    stderr: float | None


def _largest_buckets(table: np.ndarray) -> np.ndarray:
    """Per row, the largest number of equal entries: the longest run of each
    sorted row, from one sort and the run starts of the flattened rows."""
    ordered = np.sort(table, axis=1)
    new = np.ones(ordered.shape, dtype=bool)
    new[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    starts = np.flatnonzero(new)  # every row's first entry starts a run
    runs = np.diff(starts, append=ordered.size)
    return np.maximum.reduceat(runs, np.flatnonzero(starts % ordered.shape[1] == 0))


def expected_max_bucket(
    family: HashFamily,
    subset: Sequence[int],
    mode: str = "exact",
    n_samples: int = 1000,
    rng_seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> BucketEstimate:
    """E_S[max bucket occupancy] when hashing every canonical input integer of
    the subset.

    Exact mode averages over the whole seed space; sampled mode draws seeds
    as numpy's ``default_rng(rng_seed).integers`` would (``_draws``) and
    reports the standard error of the mean.  It hashes them in stream order,
    at most BLOCK table cells and BLOCK seed digits at a time, and keeps one
    largest bucket per draw.
    ``hash_table`` refuses an integer outside the field.
    """
    if not subset:
        raise ValueError("subset must be non-empty")
    if len(set(subset)) != len(subset):
        raise ValueError("subset elements must be distinct")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    seeds, n_digits, size = family.seed_space_size, family.seed_digits, len(subset)
    if mode == "exact":
        # A translate permutes the buckets, so all seeds of a coset share the
        # largest bucket; the integer sum over all seeds is divided by their
        # number once, correctly rounded.
        check = _charge(family, size, size, budget)
        inputs = _prepared(family, subset)
        cosets = _translates(family, inputs, check)
        blocks = _blocks(family, cosets, inputs)
        loads = sum(int(_largest_buckets(table).sum()) for _, table in blocks)
        return BucketEstimate(loads * cosets.translates / seeds, None)
    # The cells a run touches: samples x D seed digits, a D x |subset| x m
    # basis and samples x |subset| table cells; D = m * q^n for full_table.
    # It holds one block of seeds at a time, at most BLOCK table cells and
    # BLOCK seed digits, the basis, and one largest bucket per sample.
    if n_samples * (n_digits + size) + n_digits * size * family.m > budget:
        raise BudgetExceededError(
            f"{n_samples} samples x ({n_digits} seed digits + {size} elements)"
            f" + {n_digits} x {size} x {family.m} basis cells exceeds budget {budget}"
        )
    from ._draws import integer_blocks  # numpy's default stream, without numpy.random

    inputs, rows = _prepared(family, subset), max(1, BLOCK // max(size, n_digits))
    if seeds - 1 <= INT64_MAX:
        draws = integer_blocks(rng_seed, seeds, n_samples, rows)
    else:  # seed integers beyond int64: draw their base-q digits
        q = family.field.q
        digits = integer_blocks(rng_seed, q, n_samples * n_digits, rows * n_digits)
        draws = (block.reshape(-1, n_digits) for block in digits)
    vals, done = np.empty(n_samples), 0
    for block in draws:
        vals[done:done + len(block)] = _largest_buckets(hash_table(family, block, inputs))
        done += len(block)
    stderr = float(vals.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return BucketEstimate(float(vals.mean()), stderr)
