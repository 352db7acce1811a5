"""Exact extracted-output joints by exhaustive seed/source enumeration.

For a family h and source X (with optional side channel Z), the joint is
P(u, s) = P_S(s) sum_{x : h(s,x)=u} P_X(x), or its (u, s, z) analogue
P_S(s) sum_x 1{h(s,x)=u} P_X(x) P_{Z|X}(z|x).  The seed S is always uniform.

Sources and bucket subsets are canonical input integers 0 .. q^n - 1, the
field's elements.  Both the joint and the exact largest-bucket experiment
hash one seed per coset of the translate group T, found by one coset walk
(``_cosets``, which imports ``_translates`` on first use): adding a t in T
to a seed shifts each of its outputs by one constant, so the other seeds of
a coset are output permutations of its representative, bit for bit.  The
representatives are hashed in blocks from their indices (``_blocks``),
against the basis rows of the pivot digits they set, so memory follows the
block and the joint's columns, not the number of representatives times
their inputs.  ``extract_joint`` checks its source and charges the walk,
then hands the blocks to ``_ranking``, imported on its first call, which
scatters them and keeps the joint as the ranking of its columns
(``_ranking.ExtractedJoint``).  A run that does not extract, such as a
sampled bucket experiment, compiles neither module.  A shift permutes the
buckets too, so a coset shares its largest bucket.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .bounds import SLACK
from .errors import charge
from .families import (
    BLOCK, DEFAULT_BUDGET, INT64_MAX, HashFamily, Inputs, _prepared, hash_table,
)
# Re-exported so perfbench/tracing.py can count calls here.
from .families import evaluate  # noqa: F401
from . import measures
from ._record import Record
from .measures import JointPmf, Pmf

if TYPE_CHECKING:  # imported on first use
    from ._ranking import ExtractedJoint
    from ._translates import Cosets

# BLOCK (``families``) bounds the table cells and the seed or pivot digits of
# each ``hash_table`` call, in extraction and in either bucket experiment.


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
            # Rows and source can each sum to 1 within tolerance while their
            # product, the (X, Z) joint, does not.
            xz = (self.probs.probs[:, None] * sc).ravel().tolist()
            measures._check_sum(xz, what="source entries times side-channel rows")
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


class ExtractionResult(Record):
    """The exact joint over (u, s[, z]) together with its provenance."""

    joint: ExtractedJoint
    family: HashFamily
    source: Source

    @property
    def has_side_channel(self) -> bool:
        return self.source.side_channel is not None


def _blocks(family: HashFamily, cosets: Cosets, inputs: Inputs):
    """(first index, hash table) per block of coset representatives, in index
    order, each hashed from its index against the basis rows of the pivot
    digits: index i sets pivot digit j to digit j of i.  A block holds at most
    BLOCK table cells and BLOCK pivot digits."""
    n_reps = family.field.q ** len(cosets.pivots)
    rows = max(1, BLOCK // max(len(inputs.xs), len(cosets.pivots)))
    reps = Inputs(family, inputs.xs, inputs.basis[cosets.pivots])
    for start in range(0, n_reps, rows):
        yield start, hash_table(family, np.arange(start, min(start + rows, n_reps)), reps)


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
    inputs, cosets = _cosets(family, range(n_inputs), width, budget)
    if seeds * max(1, source.n_side) * n_out > INT64_MAX:  # counts sum to the cells
        raise ValueError(
            f"{q}^{family.seed_digits} seeds x {max(1, source.n_side)} side symbols"
            f" x {n_out} outputs are too many cells to count in int64"
        )
    from ._ranking import ranked_joint

    joint = ranked_joint(family, source, cosets, _blocks(family, cosets, inputs))
    return ExtractionResult(joint, family, source)


def _cosets(family: HashFamily, xs, width: int, budget: int) -> tuple[Inputs, Cosets]:
    """The prepared inputs and their ``Cosets``, each phase refused over
    budget before it runs: the row reduction of the D x (inputs x m) basis
    differences (each of at most min(D, inputs x m) pivots updates every
    cell), then, once ``_translates`` knows the rank r, the reduction plus
    the q^r representatives' D digits and ``width`` cells each (their table
    and columns).  The translates are counted, never listed."""
    q, n_digits, rows = family.field.q, family.seed_digits, len(xs) * family.m
    reduction = n_digits * rows * min(n_digits, rows)
    what = f"{n_digits} x {rows} basis differences x {min(n_digits, rows)} pivots"
    charge(reduction, budget, what)
    from ._translates import _translates

    inputs = _prepared(family, xs)
    cosets = _translates(family, inputs)
    reps = q ** len(cosets.pivots)
    charge(
        reduction + reps * (n_digits + width), budget,
        f"{what} + {reps} representatives x ({n_digits} seed digits + {width} cells)",
    )
    return inputs, cosets


class BucketEstimate(Record):
    mean: float
    stderr: float | None


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
    ``hash_table`` refuses an integer outside the field.  The subset may be
    any sequence, a numpy array too; sampled mode needs ``n_samples`` >= 1.
    """
    if len(subset) == 0:  # not ``not subset``: an array has no truth value
        raise ValueError("subset must be non-empty")
    if len(set(subset)) != len(subset):
        raise ValueError("subset elements must be distinct")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    from ._tables import largest_buckets
    seeds, n_digits, size = family.seed_space_size, family.seed_digits, len(subset)
    if mode == "exact":
        # A translate permutes the buckets, so all seeds of a coset share the
        # largest bucket; the integer sum over all seeds is divided by their
        # number once, correctly rounded.
        inputs, cosets = _cosets(family, subset, size, budget)
        blocks = _blocks(family, cosets, inputs)
        n_out = family.output_size
        loads = sum(int(largest_buckets(table, n_out).sum()) for _, table in blocks)
        return BucketEstimate(loads * cosets.translates / seeds, None)
    # The cells a run touches: samples x D seed digits, a D x |subset| x m
    # basis and samples x |subset| table cells; D = m * q^n for full_table.
    # It holds one block of seeds at a time, at most BLOCK table cells and
    # BLOCK seed digits, the basis, and one largest bucket per sample.
    charge(
        n_samples * (n_digits + size) + n_digits * size * family.m, budget,
        f"{n_samples} samples x ({n_digits} seed digits + {size} elements)"
        f" + {n_digits} x {size} x {family.m} basis cells",
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
        table = hash_table(family, block, inputs)
        vals[done:done + len(block)] = largest_buckets(table, family.output_size)
        done += len(block)
    stderr = float(vals.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return BucketEstimate(float(vals.mean()), stderr)
