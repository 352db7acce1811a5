"""Seeded hash families h : S x GF(q^n) -> Z_q^m and exact universality checks.

Three kinds are supported:

* ``polynomial`` -- the seed encodes k field coefficients (s_0, ..., s_{k-1});
  h(s, x) is the first m coefficients of sum_i s_i x^i evaluated in GF(q^n).
  This family is k-wise independent, hence l-universal for every l <= k.
* ``full_table`` -- the seed indexes an arbitrary truth table GF(q^n) -> Z_q^m;
  the uniform seed makes all hash values independent and uniform.
* ``constant`` -- a single seed mapping everything to 0^m.  Deliberately
  broken; useful as a negative control for the certifier.

Every family is Z_q-linear in its seed digits: h(s, x) is digits(s) . B_x
mod q for a basis B built in closed form with numpy, and ``hash_table``
reads it from windowed lookup tables over B (``_tables``).  An l-subset
collides with probability exactly q^{-r}, r the GF(q)-rank of its stacked
basis differences (Carter & Wegman 1979): certification reads one basis,
builds no seed table and carries each certificate as the integer r.  Maps of
the inputs that permute the seeds keep every rank: affine ones for the
polynomial kind, all of them for the others, so one rule picks the subsets
to rank.  They are ranked along their combination tree (``_certify``,
imported only to certify): each prefix of l - 1 inputs is row-reduced once
(``_translates._row_reduce``), then its leaves' new rows block by block.
The seeds t with t . B_x the same for every input x form a group T; adding
t to a seed shifts all its outputs by one constant, so extraction and the
exact bucket experiment hash one seed per coset of T (``_translates``,
imported by their coset walk on first use).  All of this is exact int64
arithmetic; a family that would leave int64 is refused.  The scalar
``evaluate`` (Horner with ``gf_mul`` and ``gf_add``) is the public
single-value API and the tests' oracle; no run path calls it.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ._record import Record
from .errors import charge
from .fields import FieldParams, gf_add, gf_mul

DEFAULT_BUDGET = 10_000_000

# Table cells per hashed block (extraction and both bucket experiments), and
# cells, terms or seeds per step elsewhere (``_tables``, ``_certify``,
# ``measures``): the block bounds memory, the budget bounds work.
BLOCK = 2**14

INT64_MAX = np.iinfo(np.int64).max

KINDS = ("polynomial", "full_table", "constant")


class HashFamily(Record):
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
        # hash_table sums D products of two digits, and inputs and outputs
        # are canonical integers, all in int64.
        q, n_digits = self.field.q, self.seed_digits
        if max(n_digits * (q - 1) ** 2, self.field.size, self.output_size) > INT64_MAX:
            raise ValueError(
                f"q={q} is too large for exact int64 arithmetic: {n_digits} seed"
                f" digits x (q-1)^2, q^n and q^m must stay below 2^63"
            )

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


def _input_array(field: FieldParams, inputs) -> np.ndarray:
    """Canonical input integers as an int64 array; ValueError for one outside
    the field."""
    xs = [int(v) for v in inputs]
    for x in xs:
        _check_input(field, x)
    return np.array(xs, dtype=np.int64)


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


def _basis(family: HashFamily, xs: np.ndarray) -> np.ndarray:
    """B[d, c, j] = digit j of h(q^d, xs[c]), in closed form: no field
    arithmetic on scalars, and any inputs, in any order, with repeats."""
    f, m, n_digits = family.field, family.m, family.seed_digits
    q, n, k = f.q, f.n, family.k
    if family.kind == "full_table":
        # Seed q^d sets output digit d % m of input d // m to 1.
        d = np.arange(n_digits)[:, None]
        at_input = xs == d // m  # (D, inputs)
        at_digit = np.arange(m) == d % m  # (D, m)
        return (at_input[:, :, None] & at_digit[:, None, :]).astype(np.int64)
    if family.kind == "constant":
        return np.empty((n_digits, len(xs), m), dtype=np.int64)
    # Seed q^(i*n + t) is the polynomial with s_i = X^t, so row i*n + t holds
    # X^t * x^i.  The digits of X^e for e < 2n - 1, times X by shifting the
    # coefficients up, with X^n = -(modulus) mod q:
    power, monomials = [1] + [0] * (n - 1), []
    for _ in range(2 * n - 1):
        monomials.append(power)
        top = power[-1]
        power = [(c - top * r) % q for c, r in zip([0] + power[:-1], f.modulus)]
    # times[r, (s, j)] = digit j of X^(r + s), so a @ times is the digit rows
    # of a * X^s, for every s at once.
    at = np.arange(n)
    times = np.array(monomials, dtype=np.int64)[at[:, None] + at].reshape(n, n * n)
    # x^0 .. x^(k-1) per input by doubling: x^(h + i) = x^i * x^h.
    x_digits = xs[:, None] // q ** at % q  # (inputs, n)
    x_powers = np.zeros((len(xs), 1, n), dtype=np.int64)
    x_powers[:, 0, 0] = 1
    step = x_digits[:, None, :]  # x^h, h = x_powers.shape[1]
    while x_powers.shape[1] < k:
        by_step = (step @ times).reshape(len(xs), n, n) % q  # rows X^s * x^h
        more = x_powers[:, : k - x_powers.shape[1]] @ by_step % q
        x_powers = np.concatenate([x_powers, more], axis=1)
        step = step @ by_step % q
    rows = (x_powers.reshape(-1, n) @ times).reshape(len(xs), k, n, n)[..., :m] % q
    rows = rows.transpose(1, 2, 0, 3).reshape(n_digits, len(xs), m)
    return np.ascontiguousarray(rows)


# eq=False: equality and hashing by value fail on an ndarray field.
class Inputs(Record, eq=False):
    """Checked canonical input integers ``xs`` from ``_prepared`` and the
    ``basis`` rows of the family's seed digits over them.  Their window
    tables, ``windows`` (``_tables.windows``), are built on first read and
    kept, so that a run hashing many blocks of seeds on the same inputs
    builds them once."""

    family: HashFamily
    xs: np.ndarray
    basis: np.ndarray

    @cached_property
    def windows(self) -> tuple:
        from . import _tables

        return _tables.windows(self.family.field.q, self.family.m, self.basis)


def _prepared(family: HashFamily, inputs) -> Inputs:
    """``inputs`` checked, with ``_basis`` over them; an ``Inputs`` made for
    this family as it is."""
    if isinstance(inputs, Inputs):
        if inputs.family != family:
            raise ValueError("inputs were prepared for another family")
        return inputs
    xs = _input_array(family.field, inputs)
    return Inputs(family, xs, _basis(family, xs))


def hash_table(family: HashFamily, seeds, inputs) -> np.ndarray:
    """h(s, x) as output integers: one row per seed, one column per canonical
    input integer.  ``seeds`` is a 1-d array of seed integers or a 2-d matrix
    of their base-q digits, least significant first, one row per seed (for
    seed spaces beyond int64).  ``inputs`` may be an ``Inputs`` from
    ``_prepared``, so that many calls share one basis and its window tables;
    one whose basis holds the rows of some digits only hashes seed integer i
    as the seed whose j-th of those digits is digit j of i, the others 0.

    Every family is Z_q-linear in the base-q digits of its seed (for the
    polynomial kind this is the Wegman-Carter construction): h(s, x) is
    sum_d s_d B_d mod q digitwise, where row d of the basis B holds h(q^d, x)
    over the inputs.  B is built in closed form for the requested inputs
    only: X^t x^i for the polynomial kind, one indicator per digit for
    full_table, nothing for the constant kind.  Each window of w seed digits
    adds its tabulated entry (``_tables.windows``), all m output digits at
    once in packed lanes, and one lookup reduces the lanes mod q.  The first
    call for BLOCK / 2 cells or more builds the tables.  Before, fewer cells
    are hashed faster by digits(seeds) @ B mod q than the tables are built
    (and, without a bytecode cache, than their module compiles); so is every
    call for a large q, whose tables would not fit.
    """
    q = family.field.q
    inputs = _prepared(family, inputs)
    xs, basis = inputs.xs, inputs.basis
    n_digits = len(basis)
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.ndim == 2:
        if seeds.shape[1] != n_digits or np.any((seeds < 0) | (seeds >= q)):
            raise ValueError(f"seed digit rows must hold {n_digits} digits in [0, {q})")
    else:
        seeds = seeds.reshape(-1)
        low, top = (int(seeds.min()), int(seeds.max())) if seeds.size else (0, 0)
        if low < 0 or top >= q**n_digits:
            raise ValueError(f"seeds outside [0, {q**n_digits})")
    if "windows" in vars(inputs) or len(seeds) * len(xs) >= BLOCK // 2:
        from . import _tables

        if inputs.windows[0]:
            return _tables.windowed(q, inputs.windows, seeds)
    if seeds.ndim == 1:  # digits past the top seed's are 0; q^width fits int64
        width = 0
        while width < n_digits and q**width <= top:
            width += 1
        digits = np.zeros((seeds.size, n_digits), dtype=np.int64)
        digits[:, :width] = seeds[:, None] // q ** np.arange(width) % q
        seeds = digits
    table = np.zeros((len(seeds), len(xs)), dtype=np.int64)
    out = np.empty_like(table)
    for j in reversed(range(family.m)):
        table *= q
        np.matmul(seeds, basis[:, :, j], out=out)
        out %= q
        table += out
    return table


def _all_digit_rows(n: int, q: int) -> np.ndarray:
    """Every row of n base-q digits, least significant first, in the order of
    the integers they spell."""
    return np.arange(q**n)[:, None] // q ** np.arange(n) % q


def verify_universality(family: HashFamily, l: int, budget: int = DEFAULT_BUDGET) -> int:
    """The least GF(q)-rank r over distinct l-subsets: the largest
    Pr_S[h(S,x_1) = ... = h(S,x_l)] is exactly q^{-r}.

    The family is l-universal iff r = m(l-1).  The all-equal event is
    symmetric in the tuple, so unordered l-subsets suffice.  For a uniform
    seed it has probability q^{-r}, r the GF(q)-rank of the D x m(l-1) matrix
    [B_{x_2} - B_{x_1} | ... | B_{x_l} - B_{x_1}] over ``hash_table``'s basis
    B, so no seed is enumerated.  Maps of the inputs that permute the seeds
    keep every rank and take any ``moved`` inputs to 0 .. moved-1: 2 for the
    polynomial kind (x -> ax + b), all N for the others (a seed is an
    arbitrary table).  So only the S subsets of the first ``ranked`` inputs
    (N if l > moved, else l) holding 0 .. fixed-1 (fixed = min(moved, l-1))
    are ranked, along their combination tree (``_certify``): each of the P
    prefixes of l-1 inputs is row-reduced once, then its leaves' m new rows
    in blocks.  The charge is those rows and the basis: D(ranked + P m(l-2) + S m).
    """
    if l < 2:
        raise ValueError("universality order l must be >= 2")
    n_inputs = family.field.size
    if l > n_inputs:
        raise ValueError(f"l={l} exceeds domain size {n_inputs}")
    q, m, n_digits = family.field.q, family.m, family.seed_digits
    moved = 2 if family.kind == "polynomial" else n_inputs
    ranked, fixed = n_inputs if l > moved else l, min(moved, l - 1)
    n_subsets = math.comb(ranked - fixed, l - fixed)
    n_prefixes = math.comb(ranked - 1 - fixed, l - 1 - fixed)  # each has a leaf
    charge(
        n_digits * (ranked + n_prefixes * m * (l - 2) + n_subsets * m), budget,
        f"{n_digits} seed digits x ({ranked} inputs + {n_prefixes} prefixes x"
        f" {m * (l - 2)} rows + {n_subsets} {l}-subsets x {m} rows)",
    )
    from ._certify import least_rank

    basis = _basis(family, np.arange(ranked)).transpose(1, 2, 0)  # (x, j, d)
    return least_rank(np.ascontiguousarray(basis), q, l, fixed)


class UniversalityVerdict(Record):
    """Order l's certificate: the least rank over l-subsets, against the
    required m(l-1); the collision probability is q^-rank."""

    l: int
    rank: int
    required: int
    passed: bool


def certify_k_star(
    family: HashFamily, budget: int = DEFAULT_BUDGET
) -> list[UniversalityVerdict]:
    """Check l-universality for every l in {2, ..., k}.

    The family is k*-universal iff every verdict passes.
    """
    verdicts = []
    for l in range(2, family.k + 1):
        rank = verify_universality(family, l, budget=budget)
        required = family.m * (l - 1)
        verdicts.append(UniversalityVerdict(l, rank, required, rank >= required))
    return verdicts
