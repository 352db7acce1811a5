"""Exact extracted-output joints by exhaustive seed/source enumeration.

For a family h and source X (with optional side channel Z), builds the dense
joint P(u, s) = P_S(s) sum_{x : h(s,x)=u} P_X(x), or its (u, s, z) analogue
P_S(s) sum_x 1{h(s,x)=u} P_X(x) P_{Z|X}(z|x).  The seed S is always uniform.

Both the joint and the largest-bucket experiment read h(s, x) from one
``families.hash_table`` (rows are seeds, columns are inputs).  The joint adds
one support point's mass at a time, so every cell sums its terms in support
order and the result is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError
from .families import DEFAULT_BUDGET, HashFamily, hash_table
from .families import evaluate  # noqa: F401  re-exported so perfbench/tracing.py can count calls here
from .fields import FieldElement
from . import measures
from .measures import Alpha, JointPmf, Pmf, as_alpha


@dataclass(frozen=True)
class Source:
    """A pmf over distinct field elements, optionally with a side channel.

    ``side_channel[i, z]`` is P(Z=z | X=support[i]); each row sums to 1.
    """

    support: tuple[FieldElement, ...]
    probs: Pmf
    side_channel: np.ndarray | None = None

    def __post_init__(self):
        if len(self.support) != self.probs.support_size:
            raise ValueError("support and probability vector lengths differ")
        if len({x.to_int() for x in self.support}) != len(self.support):
            raise ValueError("support elements must be distinct")
        fields = {x.field for x in self.support}
        if len(fields) != 1:
            raise ValueError("support elements must share one field")
        if self.side_channel is not None:
            sc = np.asarray(self.side_channel, dtype=float)
            sc.setflags(write=False)
            object.__setattr__(self, "side_channel", sc)
            if sc.ndim != 2 or sc.shape[0] != len(self.support):
                raise ValueError("side channel needs one row per support element")
            if np.any(sc < 0):
                raise ValueError("side channel entries must be non-negative")
            for row in sc:
                # Negated so that a NaN or infinite entry fails too.
                if not abs(math.fsum(row.tolist()) - 1.0) <= measures.NORMALIZATION_TOL:
                    raise ValueError("each side-channel row must sum to 1")

    @property
    def field_params(self):
        return self.support[0].field

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
        return measures.renyi_entropy(self.probs, a)

    def conditional_entropy(self, a) -> float:
        return measures.conditional_renyi_entropy(self.xz_joint(), a)


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


def _check_source_field(family: HashFamily, source: Source):
    if source.field_params != family.field:
        raise ValueError("source support lies outside the family's field")


def extract_joint(
    family: HashFamily,
    source: Source,
    budget: int = DEFAULT_BUDGET,
) -> ExtractionResult:
    """Exhaustively enumerate P(u, s[, z]); deterministic up to float summation."""
    _check_source_field(family, source)
    seeds = family.seed_space_size
    n_sup = len(source.support)
    if seeds * n_sup > budget:
        raise BudgetExceededError(
            f"{seeds} seeds x {n_sup} support points exceeds budget {budget}"
        )
    all_seeds = np.arange(seeds)
    table = hash_table(family, all_seeds, [x.to_int() for x in source.support])
    px = source.probs.probs
    sc = source.side_channel
    shape = (family.output_size, seeds)
    if sc is not None:
        shape += (source.n_side,)
    acc = np.zeros(shape)
    # One support point at a time touches each seed's column once, so every
    # cell sums its terms in support order.
    for i in range(n_sup):
        acc[table[:, i], all_seeds] += px[i] if sc is None else px[i] * sc[i]
    joint = JointPmf(acc * (1.0 / seeds), family.field.q)
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


def _check_seed_orbits(probs: np.ndarray, orbit: int):
    """Every block of orbit consecutive seeds must hold output permutations
    of its first seed's columns, bit for bit: sorted along the outputs, each
    member's column equals the first's."""
    blocks = np.sort(probs.reshape(probs.shape[0], -1, orbit, *probs.shape[2:]), axis=0)
    bits = blocks.view(np.int64)
    if not (bits == bits[:, :, :1]).all():
        raise RuntimeError(
            f"seeds in blocks of {orbit} do not hash to output-permuted columns"
        )


def empirical_divergences(result: ExtractionResult, alphas: Sequence) -> DivergenceTable:
    """Joint and conditional D_alpha per order, TV, KL and the conditional D_inf.

    Seeds that differ only in their lowest ``shift_digits`` digits give
    output-permuted columns; that is checked, and then each such orbit is read
    once.
    """
    alphas = [as_alpha(a) for a in alphas]
    joint = result.joint
    orbit = result.family.field.q ** result.family.shift_digits
    _check_seed_orbits(joint.probs, orbit)
    *conditional, conditional_inf = measures.conditional_divergences(
        joint, alphas + [Alpha.infinity()], orbit
    )
    terms = measures.uniform_product_terms(joint, orbit)
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
    subset: Sequence[FieldElement],
    mode: str = "exact",
    n_samples: int = 1000,
    rng_seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> BucketEstimate:
    """E_S[max bucket occupancy] when hashing every element of the subset.

    Exact mode averages over the whole seed space; sampled mode draws seeds
    with a seeded generator and reports the standard error of the mean.
    """
    if not subset:
        raise ValueError("subset must be non-empty")
    x_ints = [x.to_int() for x in subset]
    if len(set(x_ints)) != len(x_ints):
        raise ValueError("subset elements must be distinct")
    for x in subset:
        if x.field != family.field:
            raise ValueError("subset element from the wrong field")
    seeds = family.seed_space_size
    if mode == "exact":
        if seeds * len(subset) > budget:
            raise BudgetExceededError(
                f"{seeds} seeds x {len(subset)} elements exceeds budget {budget}"
            )
        loads = _largest_buckets(hash_table(family, np.arange(seeds), x_ints))
        return BucketEstimate(math.fsum(loads.tolist()) / seeds, None, "exact", seeds)
    if mode == "sampled":
        if n_samples * len(subset) > budget:
            raise BudgetExceededError("sample count exceeds budget")
        rng = np.random.default_rng(rng_seed)
        if seeds - 1 <= np.iinfo(np.int64).max:
            draws = rng.integers(0, seeds, size=n_samples)
        else:  # seed integers beyond int64: draw their base-q digits
            draws = rng.integers(0, family.field.q, size=(n_samples, family.seed_digits))
        vals = _largest_buckets(hash_table(family, draws, x_ints)).astype(float)
        stderr = float(vals.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
        return BucketEstimate(float(vals.mean()), stderr, "sampled", n_samples, rng_seed)
    raise ValueError(f"unknown mode {mode!r}")
