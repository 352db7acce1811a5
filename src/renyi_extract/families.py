"""Seeded hash families h : S x GF(q^n) -> Z_q^m and exact universality checks.

Three kinds are supported:

* ``polynomial`` -- the seed encodes k field coefficients (s_0, ..., s_{k-1});
  h(s, x) is the first m coefficients of sum_i s_i x^i evaluated in GF(q^n).
  This family is k-wise independent, hence l-universal for every l <= k.
* ``full_table`` -- the seed indexes an arbitrary truth table GF(q^n) -> Z_q^m;
  the uniform seed makes all hash values independent and uniform.
* ``constant`` -- a single seed mapping everything to 0^m.  Deliberately
  broken; useful as a negative control for the certifier.

Collision probabilities are exact rationals (Fraction), never floats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError
from .fields import FieldParams, gf_add, gf_mul

DEFAULT_BUDGET = 10_000_000

KINDS = ("polynomial", "full_table", "constant")


@dataclass(frozen=True)
class HashFamily:
    kind: str
    field: FieldParams
    k: int
    m: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.k < 2:
            raise ValueError("independence order k must be >= 2")
        if self.m < 1:
            raise ValueError("output length m must be >= 1")
        if self.kind == "polynomial" and self.m > self.field.n:
            raise ValueError("polynomial kind requires m <= n")

    @property
    def seed_digits(self) -> int:
        """Number of base-q digits of a seed; h is Z_q-linear in them."""
        if self.kind == "polynomial":
            return self.k * self.field.n
        if self.kind == "full_table":
            return self.m * self.field.size
        return 0

    @property
    def seed_space_size(self) -> int:
        return self.field.q ** self.seed_digits

    @property
    def output_size(self) -> int:
        return self.field.q ** self.m


def _check_input(field: FieldParams, x: int):
    if not 0 <= x < field.size:
        raise ValueError(f"input {x} outside [0, {field.size})")


def evaluate(family: HashFamily, seed: int, x: int) -> int:
    """h(seed, x) as an output integer in [0, q^m) for a canonical input
    integer x; output digit j is the coefficient of x^j."""
    if not 0 <= seed < family.seed_space_size:
        raise ValueError(f"seed {seed} outside [0, {family.seed_space_size})")
    f = family.field
    _check_input(f, x)
    if family.kind == "polynomial":
        # Seed digits base q^n are s_0 (least significant) .. s_{k-1}; Horner.
        acc = 0
        for i in reversed(range(family.k)):
            acc = gf_add(f, gf_mul(f, acc, x), seed // f.size**i % f.size)
        return acc % family.output_size
    if family.kind == "full_table":
        return seed // family.output_size**x % family.output_size
    return 0


def hash_table(family: HashFamily, seeds, inputs) -> np.ndarray:
    """h(s, x) as output integers: one row per seed, one column per canonical
    input integer.  ``seeds`` is a 1-d array of seed integers or a 2-d matrix
    of their base-q digits, least significant first, one row per seed (for
    seed spaces beyond int64).

    Every family is Z_q-linear in the base-q digits of its seed (for the
    polynomial kind this is the Wegman-Carter construction), so the table is
    digits(seeds) @ B mod q, where row d of B holds h(q^d, x) over the inputs.
    """
    f = family.field
    q, m, n_digits = f.q, family.m, family.seed_digits
    xs = [int(v) for v in inputs]
    for x in xs:
        _check_input(f, x)
    basis = np.array(
        [
            [[u // q**j % q for j in range(m)] for u in (evaluate(family, q**d, x) for x in xs)]
            for d in range(n_digits)
        ],
        dtype=np.int64,
    ).reshape(n_digits, len(xs), m)
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.ndim == 2:
        digits = seeds
        if digits.shape[1] != n_digits or np.any((digits < 0) | (digits >= q)):
            raise ValueError(f"seed digit rows must hold {n_digits} digits in [0, {q})")
    else:
        digits = np.empty((seeds.size, n_digits), dtype=np.int64)
        rest = seeds
        for d in range(n_digits):
            rest, digits[:, d] = np.divmod(rest, q)
        if np.any(rest):
            raise ValueError(f"seeds outside [0, {family.seed_space_size})")
    table = np.zeros((len(digits), len(xs)), dtype=np.int64)
    out = np.empty_like(table)
    for j in reversed(range(m)):
        table *= q
        np.matmul(digits, basis[:, :, j], out=out)
        out %= q
        table += out
    return table


def verify_universality(
    family: HashFamily, l: int, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """Max over distinct l-tuples of Pr_S[h(S,x_1) = ... = h(S,x_l)], exactly.

    The family is l-universal iff the returned ratio is <= q^{-m(l-1)}.
    The all-equal event is symmetric in the tuple, so unordered l-subsets
    suffice.
    """
    if l < 2:
        raise ValueError("universality order l must be >= 2")
    n_inputs = family.field.size
    if l > n_inputs:
        raise ValueError(f"l={l} exceeds domain size {n_inputs}")
    seeds = family.seed_space_size
    if seeds * n_inputs > budget:
        raise BudgetExceededError(
            f"{seeds} seeds x {n_inputs} inputs exceeds budget {budget}"
        )
    columns = hash_table(family, np.arange(seeds), range(n_inputs)).T.copy()
    worst = 0
    for first, *rest in itertools.combinations(range(n_inputs), l):
        same = np.all(columns[rest] == columns[first], axis=0)
        worst = max(worst, int(np.count_nonzero(same)))
    return Fraction(worst, seeds)


@dataclass(frozen=True)
class UniversalityVerdict:
    l: int
    collision_probability: Fraction
    threshold: Fraction
    passed: bool


def certify_k_star(
    family: HashFamily, budget: int = DEFAULT_BUDGET
) -> list[UniversalityVerdict]:
    """Check l-universality for every l in {2, ..., k}.

    The family is k*-universal iff every verdict passes.
    """
    verdicts = []
    for l in range(2, family.k + 1):
        ratio = verify_universality(family, l, budget=budget)
        threshold = Fraction(1, family.output_size ** (l - 1))
        verdicts.append(UniversalityVerdict(l, ratio, threshold, ratio <= threshold))
    return verdicts


def is_k_star_universal(family: HashFamily, budget: int = DEFAULT_BUDGET) -> bool:
    return all(v.passed for v in certify_k_star(family, budget=budget))
