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
buckets too, so a coset shares its largest bucket.  ``expected_max_bucket``
runs the body in ``_bucket``, imported on its first call, which reads
BLOCK, ``hash_table`` and the coset walk through this module.  The
``Source`` a run hashes is a ``measures`` record, which this module does
not import: ``extraction.Source`` resolves on first access.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import charge
from .families import (
    BLOCK, DEFAULT_BUDGET, INT64_MAX, HashFamily, Inputs, _prepared, hash_table,
)
# Re-exported so perfbench/tracing.py can count calls here.
from .families import evaluate  # noqa: F401
from ._record import Record

if TYPE_CHECKING:  # imported on first use
    from ._ranking import ExtractedJoint
    from ._translates import Cosets
    from .measures import Source


# BLOCK (``families``) bounds the table cells and the seed or pivot digits of
# each ``hash_table`` call, in extraction and in either bucket experiment.


def __getattr__(name):
    if name != "Source":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .measures import Source

    return Source


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
    from ._bucket import expected_max_bucket

    return expected_max_bucket(family, subset, mode, n_samples, rng_seed, budget)
