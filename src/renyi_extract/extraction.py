"""Exact extracted-output joints by exhaustive seed/source enumeration.

For a family h and source X (with optional side channel Z), builds the dense
joint P(u, s) = P_S(s) sum_{x : h(s,x)=u} P_X(x), or its (u, s, z) analogue
P_S(s) sum_x 1{h(s,x)=u} P_X(x) P_{Z|X}(z|x).  The seed S is always uniform.

Sources and bucket subsets are canonical input integers 0 .. q^n - 1, the
field's elements.  Both the joint and the
largest-bucket experiment read h(s, x) from one ``families.hash_table`` (rows
are seeds, columns are inputs).  The joint adds one input's mass at a time, so
every cell sums its terms in canonical input order and the result is
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import SLACK
from .errors import BudgetExceededError
from .families import DEFAULT_BUDGET, HashFamily, hash_table
from .families import evaluate  # noqa: F401  re-exported so perfbench/tracing.py can count calls here
from . import measures
from .measures import Alpha, JointPmf, Pmf, as_alpha


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
            for row in sc:
                # Negated so that a NaN or infinite entry fails too.
                if not abs(math.fsum(row.tolist()) - 1.0) <= measures.NORMALIZATION_TOL:
                    raise ValueError("each side-channel row must sum to 1")

    @property
    def n_side(self) -> int:
        return 0 if self.side_channel is None else self.side_channel.shape[1]

    def xz_joint(self) -> JointPmf:
        """Joint pmf of (X, Z); requires a side channel."""
        if self.side_channel is None:
            raise ValueError("source has no side channel")
        arr = self.probs.probs[:, None] * self.side_channel
        return JointPmf(arr, self.probs.base_q)

    def entropy(self, a) -> float:
        return _nonnegative(measures.renyi_entropy(self.probs, a))

    def conditional_entropy(self, a) -> float:
        return _nonnegative(measures.conditional_renyi_entropy(self.xz_joint(), a))


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
    seeds = family.seed_space_size
    if seeds * n_inputs > budget:
        raise BudgetExceededError(
            f"{seeds} seeds x {n_inputs} inputs exceeds budget {budget}"
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
    joint = JointPmf(acc * (1.0 / seeds), f.q)
    return ExtractionResult(joint, family, source)


@dataclass(frozen=True)
class DivergenceRow:
    alpha: Alpha
    joint: float
    conditional: float


@dataclass(frozen=True)
class DivergenceTable:
    rows: tuple[DivergenceRow, ...]
    tv_to_uniform: float
    kl_to_uniform: float
    conditional_inf: float


def empirical_divergences(result: ExtractionResult, alphas: Sequence) -> DivergenceTable:
    """Joint and conditional D_alpha per order, TV, KL and the conditional D_inf,
    all from one grouping of the joint's columns by content."""
    alphas = [as_alpha(a) for a in alphas]
    joint = result.joint
    columns = measures.distinct_columns(joint)
    *conditional, conditional_inf = measures.conditional_divergences(
        joint, alphas + [Alpha.infinity()], columns
    )
    terms = measures.uniform_product_terms(joint, columns)
    rows = tuple(
        DivergenceRow(a, measures.joint_divergence_from_uniform(joint, a, terms), c)
        for a, c in zip(alphas, conditional)
    )
    return DivergenceTable(
        rows,
        measures.joint_tv_from_uniform(joint, terms),
        measures.joint_divergence_from_uniform(joint, Alpha.one(), terms),
        conditional_inf,
    )


@dataclass(frozen=True)
class BucketEstimate:
    mean: float
    stderr: float | None
    mode: str
    n_seeds: int
    rng_seed: int | None = None


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
    seeds = family.seed_space_size
    if mode == "exact":
        if seeds * len(subset) > budget:
            raise BudgetExceededError(
                f"{seeds} seeds x {len(subset)} elements exceeds budget {budget}"
            )
        loads = _largest_buckets(hash_table(family, np.arange(seeds), subset))
        return BucketEstimate(math.fsum(loads.tolist()) / seeds, None, "exact", seeds)
    if mode == "sampled":
        if n_samples * len(subset) > budget:
            raise BudgetExceededError("sample count exceeds budget")
        rng = np.random.default_rng(rng_seed)
        if seeds - 1 <= np.iinfo(np.int64).max:
            draws = rng.integers(0, seeds, size=n_samples)
        else:  # seed integers beyond int64: draw their base-q digits
            draws = rng.integers(0, family.field.q, size=(n_samples, family.seed_digits))
        vals = _largest_buckets(hash_table(family, draws, subset)).astype(float)
        stderr = float(vals.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
        return BucketEstimate(float(vals.mean()), stderr, "sampled", n_samples, rng_seed)
    raise ValueError(f"unknown mode {mode!r}")
