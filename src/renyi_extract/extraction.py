"""Exact extracted-output joints by exhaustive seed/source enumeration.

For a family h and source X (with optional side channel Z), builds the dense
joint P(u, s) = P_S(s) sum_{x : h(s,x)=u} P_X(x), or its (u, s, z) analogue
P_S(s) sum_x 1{h(s,x)=u} P_X(x) P_{Z|X}(z|x).  The seed S is always uniform.

Sources and bucket subsets are canonical input integers 0 .. q^n - 1, the
field's elements.  Both the joint and the
largest-bucket experiment read h(s, x) from one ``families.hash_table`` (rows
are seeds, columns are inputs).  The joint adds one input's mass at a time, so
every cell sums its terms in canonical input order and the result is
deterministic.  Its divergences are ``measures.empirical_divergences``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import SLACK
from .errors import BudgetExceededError
from .families import DEFAULT_BUDGET, HashFamily, hash_table
# Re-exported so perfbench/tracing.py can count calls here.
from .families import evaluate  # noqa: F401
from . import measures
from .measures import JointPmf, Pmf


@dataclass(frozen=True)
class Source:
    """A pmf over a field's canonical input integers 0 .. q^n - 1, optionally
    with a side channel.

    ``probs.probs[i]`` is P(X=i); ``side_channel[i, z]`` is P(Z=z | X=i) and
    each row sums to 1.
    """

    probs: Pmf
    side_channel: np.ndarray | None = None

    def __post_init__(self):
        if self.side_channel is not None:
            sc = np.asarray(self.side_channel, dtype=float)
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


@dataclass(frozen=True)
class ExtractionResult:
    """The exact joint over (u, s[, z]) together with its provenance."""

    joint: JointPmf
    family: HashFamily
    source: Source

    @property
    def has_side_channel(self) -> bool:
        return self.joint.probs.ndim == 3

    def source_entropy(self, a) -> float:
        """H_alpha(X|Z) when a side channel is present, else H_alpha(X)."""
        if self.has_side_channel:
            return self.source.conditional_entropy(a)
        return self.source.entropy(a)


def extract_joint(
    family: HashFamily,
    source: Source,
    budget: int = DEFAULT_BUDGET,
) -> ExtractionResult:
    """Exhaustively enumerate P(u, s[, z]); deterministic up to float summation."""
    f, n_inputs, base = family.field, source.probs.support_size, source.probs.base_q
    if (n_inputs, base) != (f.size, f.q):
        raise ValueError(
            f"source of {n_inputs} symbols in base {base} does not fit GF({f.q}^{f.n})"
        )
    seeds, n_digits = family.seed_space_size, family.seed_digits
    # hash_table holds a seeds x D digit matrix; one width covers its seeds x
    # inputs table and the seeds x outputs x Z joint.
    width = max(n_inputs, family.output_size) * max(1, source.n_side)
    if seeds * (n_digits + width) > budget:
        raise BudgetExceededError(
            f"{seeds} seeds x ({n_digits} seed digits + {width} cells per seed)"
            f" exceeds budget {budget}"
        )
    all_seeds = np.arange(seeds)
    table = hash_table(family, all_seeds, range(n_inputs))
    px = source.probs.probs
    sc = source.side_channel
    shape = (family.output_size, seeds)
    if sc is not None:
        shape += (source.n_side,)
    acc = np.zeros(shape)
    # One input at a time touches each seed's column once, so every cell sums
    # its terms in canonical input order.
    for i in range(n_inputs):
        acc[table[:, i], all_seeds] += px[i] if sc is None else px[i] * sc[i]
    # Scaled in place, with the table gone: the joint is the one dense copy
    # alive while JointPmf groups its columns.
    del table
    acc *= 1.0 / seeds
    return ExtractionResult(JointPmf(acc, f.q), family, source)


@dataclass(frozen=True)
class BucketEstimate:
    mean: float
    stderr: float | None


def _largest_buckets(table: np.ndarray) -> np.ndarray:
    """Per row, the largest number of equal entries."""
    ordered = np.sort(table, axis=1)
    run = best = np.ones(len(ordered), dtype=np.int64)
    for j in range(1, ordered.shape[1]):
        run = np.where(ordered[:, j] == ordered[:, j - 1], run + 1, 1)
        best = np.maximum(best, run)
    return best


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
    with a seeded generator and reports the standard error of the mean.
    ``hash_table`` refuses an integer outside the field.
    """
    if not subset:
        raise ValueError("subset must be non-empty")
    if len(set(subset)) != len(subset):
        raise ValueError("subset elements must be distinct")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    seeds = family.seed_space_size
    rows = seeds if mode == "exact" else n_samples
    # hash_table holds a rows x D digit matrix, a D x |subset| x m basis and
    # the rows x |subset| table; D = m * q^n for full_table.
    n_digits, size = family.seed_digits, len(subset)
    if rows * (n_digits + size) + n_digits * size * family.m > budget:
        raise BudgetExceededError(
            f"{rows} {'seeds' if mode == 'exact' else 'samples'} x"
            f" ({n_digits} seed digits + {size} elements)"
            f" + {n_digits} x {size} x {family.m} basis cells"
            f" exceeds budget {budget}"
        )
    if mode == "exact":
        loads = _largest_buckets(hash_table(family, np.arange(seeds), subset))
        return BucketEstimate(math.fsum(loads.tolist()) / seeds, None)
    rng = np.random.default_rng(rng_seed)
    if seeds - 1 <= np.iinfo(np.int64).max:
        draws = rng.integers(0, seeds, size=n_samples)
    else:  # seed integers beyond int64: draw their base-q digits
        draws = rng.integers(0, family.field.q, size=(n_samples, family.seed_digits))
    vals = _largest_buckets(hash_table(family, draws, subset)).astype(float)
    stderr = float(vals.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return BucketEstimate(float(vals.mean()), stderr)
