"""Seeded hash families h : S x GF(q^n) -> Z_q^m and exact universality checks.

Three kinds are supported:

* ``polynomial`` -- the seed encodes k field coefficients (s_0, ..., s_{k-1});
  h(s, x) is the first m coefficients of sum_i s_i x^i evaluated in GF(q^n).
  This family is k-wise independent, hence l-universal for every l <= k.
* ``full_table`` -- the seed indexes an arbitrary truth table GF(q^n) -> Z_q^m;
  the uniform seed makes all hash values independent and uniform.
* ``constant`` -- a single seed mapping everything to 0^m.  Deliberately
  broken; useful as a negative control for the certifier.

Every family is Z_q-linear in its seed digits, so ``hash_table`` is a digit
matrix times a basis B, which it builds in closed form with numpy.  An
l-subset collides with probability exactly q^{-r}, r the GF(q)-rank of its
stacked basis differences (Carter & Wegman 1979): certification reads one
basis, builds no seed table and carries each certificate as the integer r;
the polynomial kind ranks only the subsets holding inputs 0 and 1, since
affine maps of the inputs permute its seeds.  The seeds t with t . B_x the
same for every input x form a group T; adding t to a seed shifts all its
outputs by one constant, so extraction and the exact bucket experiment hash
one seed per coset of T (``_translates``, one row reduction of the basis
differences).  All of this is exact int64 arithmetic; a family that would
leave int64 is refused.  The scalar ``evaluate`` (Horner
with ``gf_mul`` and ``gf_add``) is the public single-value API and the tests'
oracle; no run path calls it.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

from ._record import Record
from .errors import BudgetExceededError
from .fields import FieldParams, gf_add, gf_mul

DEFAULT_BUDGET = 10_000_000

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


class Inputs(tuple):
    """(family, xs, basis) from ``_prepared``: checked canonical input
    integers and their basis, so that a run hashing many blocks of seeds on
    the same inputs builds the basis once.  A plain tuple subclass, since a
    NamedTuple class costs about 0.2 ms to create at import."""

    __slots__ = ()


def _prepared(family: HashFamily, inputs) -> Inputs:
    """``inputs`` checked, with ``_basis`` over them; an ``Inputs`` made for
    this family as it is."""
    if isinstance(inputs, Inputs):
        if inputs[0] != family:
            raise ValueError("inputs were prepared for another family")
        return inputs
    xs = _input_array(family.field, inputs)
    return Inputs((family, xs, _basis(family, xs)))


def hash_table(family: HashFamily, seeds, inputs) -> np.ndarray:
    """h(s, x) as output integers: one row per seed, one column per canonical
    input integer.  ``seeds`` is a 1-d array of seed integers or a 2-d matrix
    of their base-q digits, least significant first, one row per seed (for
    seed spaces beyond int64).  ``inputs`` may be an ``Inputs`` from
    ``_prepared``, so that many calls share one basis.

    Every family is Z_q-linear in the base-q digits of its seed (for the
    polynomial kind this is the Wegman-Carter construction), so the table is
    digits(seeds) @ B mod q, where row d of B holds h(q^d, x) over the inputs.
    B is built in closed form for the requested inputs only: X^t x^i for the
    polynomial kind, one indicator per digit for full_table, nothing for the
    constant kind.
    """
    q, m, n_digits = family.field.q, family.m, family.seed_digits
    _, xs, basis = _prepared(family, inputs)
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.ndim == 2:
        digits = seeds
        if digits.shape[1] != n_digits or np.any((digits < 0) | (digits >= q)):
            raise ValueError(f"seed digit rows must hold {n_digits} digits in [0, {q})")
    else:
        seeds = seeds.reshape(-1)
        low, top = (int(seeds.min()), int(seeds.max())) if seeds.size else (0, 0)
        if low < 0 or top >= family.seed_space_size:
            raise ValueError(f"seeds outside [0, {family.seed_space_size})")
        # Digits past the top seed's are 0, and q^width stays in int64.
        width = 0
        while width < n_digits and q**width <= top:
            width += 1
        digits = np.zeros((seeds.size, n_digits), dtype=np.int64)
        digits[:, :width] = seeds[:, None] // q ** np.arange(width) % q
    table = np.zeros((len(digits), len(xs)), dtype=np.int64)
    out = np.empty_like(table)
    for j in reversed(range(m)):
        table *= q
        np.matmul(digits, basis[:, :, j], out=out)
        out %= q
        table += out
    return table


def _all_digit_rows(n: int, q: int) -> np.ndarray:
    """Every row of n base-q digits, least significant first, in the order of
    the integers they spell."""
    return np.arange(q**n)[:, None] // q ** np.arange(n) % q


class Cosets(NamedTuple):
    """The cosets of the translate group T on some inputs (``_translates``).

    Representative i sets seed digit pivots[j] to digit j of i, least
    significant first, and every other digit to 0; there are q^r of them for
    r pivots, and each coset holds ``translates`` = q^(D - r) seeds.  A seed
    with digit row s lies in the coset of the representative whose pivot
    digits are reduced @ s mod q, and its outputs are that representative's
    shifted digitwise by moves @ s mod q.
    """

    pivots: np.ndarray  # (r,)
    translates: int
    reduced: np.ndarray  # (r, D)
    moves: np.ndarray  # (m, D)

    def representatives(self, q: int, start: int, stop: int) -> np.ndarray:
        """Representatives start .. stop - 1 as seed digit rows."""
        rows = np.zeros((stop - start, self.reduced.shape[1]), dtype=np.int64)
        powers = q ** np.arange(len(self.pivots))
        rows[:, self.pivots] = np.arange(start, stop)[:, None] // powers % q
        return rows

    def shifts(self, q: int) -> np.ndarray:
        """The distinct output shifts t . B_{x_0} over t in T, as m-digit rows
        in increasing order of their output integers: the span of the columns
        of moves, grown by one generator outside it at a time."""
        m = len(self.moves)
        digits, powers = _all_digit_rows(m, q), q ** np.arange(m)
        hit = np.zeros(len(digits), dtype=bool)
        hit[0] = True
        # A dict, not np.unique: its sort would page in numpy's int64 sort code.
        for g in dict.fromkeys((self.moves.T @ powers).tolist()):
            if not hit[g]:
                span = digits[hit]
                for c in range(1, q):
                    hit[(span + c * digits[g]) % q @ powers] = True
        return digits[hit]


def _translates(
    family: HashFamily, inputs, check: Callable[[int], None] | None = None
) -> Cosets:
    """The ``Cosets`` of the translate group T on the given inputs, listing
    neither the representatives nor the translates.  ``check(rank)``, when
    given, runs once the rank is known (a budget check: there are q^rank
    representatives).

    T holds the seeds t with t . (B_x - B_{x_0}) = 0 mod q for every input x,
    so h(r + t, x) = h(r, x) + t . B_{x_0} digitwise: adding t shifts every
    output of a seed by one constant.  Row reduction of the D x (inputs * m)
    matrix [B_x - B_{x_0}]_x mod q finds its pivot digits; every seed is
    r + t (digitwise mod q) for exactly one representative r (zero off the
    pivots) and one t in T, whose free digits are the seed's.  T's basis
    vector for free digit f is e_f minus the pivot digits that cancel column f
    of the reduced rows, so t . B_{x_0} is linear in the seed: column f of
    ``moves`` is that vector's shift, and a pivot column is 0.  The inputs
    must be non-empty, and may be an ``Inputs`` (``_prepared``).
    """
    q, n_digits = family.field.q, family.seed_digits
    _, xs, basis = _prepared(family, inputs)  # basis (D, inputs, m)
    a = (basis - basis[:, :1]).transpose(1, 2, 0) % q  # a row per (x, j)
    a = a.reshape(xs.size * family.m, n_digits)
    pivots, row, d = [], 0, 0
    while row < len(a):
        # The next pivot is the first column from d with a non-zero below row.
        ahead = np.flatnonzero(a[row:, d:].any(axis=0))
        if not ahead.size:
            break
        d += int(ahead[0])
        below = np.flatnonzero(a[row:, d])
        a[[row, row + below[0]]] = a[[row + below[0], row]]
        a[row] = a[row] * pow(int(a[row, d]), -1, q) % q
        factor = a[:, d].copy()
        factor[row] = 0
        a = (a - factor[:, None] * a[row]) % q
        pivots.append(d)
        row, d = row + 1, d + 1
    if check is not None:
        check(len(pivots))
    pivots, reduced, b0 = np.array(pivots, dtype=np.int64), a[:row].copy(), basis[:, 0]
    moves = (b0 - reduced.T @ b0[pivots]).T % q  # 0 in the pivot columns
    return Cosets(pivots, q ** (n_digits - row), reduced, moves)


def _ranks_mod_q(a: np.ndarray, q: int) -> np.ndarray:
    """GF(q)-rank of each matrix in a stack with entries in [0, q), q prime."""
    if a.shape[1] > a.shape[2]:  # eliminate along the shorter side
        a = a.transpose(0, 2, 1)
    for i in range(a.shape[1]):
        row, below = a[:, i : i + 1], a[:, i + 1 :]
        col = (row != 0).argmax(axis=2)[..., None]
        pivot = np.take_along_axis(row, col, axis=2)
        factor = np.take_along_axis(below, col, axis=2)
        # Scaling a row by a unit keeps the rank, so no inverse mod q is needed.
        below[...] = (np.where(pivot, pivot, 1) * below - factor * row) % q
    return np.count_nonzero(a.any(axis=2), axis=1)


def verify_universality(family: HashFamily, l: int, budget: int = DEFAULT_BUDGET) -> int:
    """The least GF(q)-rank r over distinct l-subsets: the largest
    Pr_S[h(S,x_1) = ... = h(S,x_l)] is exactly q^{-r}.

    The family is l-universal iff r = m(l-1).  The all-equal event is
    symmetric in the tuple, so unordered l-subsets suffice.  For a uniform
    seed it has probability q^{-r}, where r is the GF(q)-rank of the
    D x m(l-1) matrix [B_{x_2} - B_{x_1} | ... | B_{x_l} - B_{x_1}] over
    ``hash_table``'s basis B, so no seed is enumerated.  An affine map of the
    inputs permutes the polynomial kind's seeds and takes any two inputs to
    0 and 1, so for that kind only the C(N-2, l-2) subsets holding 0 and 1
    are ranked; the other kinds rank all C(N, l).
    """
    if l < 2:
        raise ValueError("universality order l must be >= 2")
    n_inputs = family.field.size
    if l > n_inputs:
        raise ValueError(f"l={l} exceeds domain size {n_inputs}")
    q, m, n_digits = family.field.q, family.m, family.seed_digits
    fixed = (0, 1) if family.kind == "polynomial" else ()
    rest = range(len(fixed), n_inputs)
    n_subsets = math.comb(len(rest), l - len(fixed))
    if n_digits * (n_inputs + n_subsets * m * (l - 1)) > budget:
        held = " holding 0 and 1" if fixed else ""
        raise BudgetExceededError(
            f"{n_digits} seed digits x ({n_inputs} inputs + {n_subsets} {l}-subsets"
            f"{held} x {m * (l - 1)} output digits) exceeds budget {budget}"
        )
    basis = _basis(family, np.arange(n_inputs)).transpose(1, 2, 0)  # (x, j, d)
    basis = basis.astype(np.min_scalar_type(-q * q))  # signed, holds +-q^2
    chosen = itertools.combinations(rest, l - len(fixed))
    subsets = np.array([fixed + c for c in chosen], dtype=np.int64).reshape(n_subsets, l)
    stacked = basis[subsets[:, 1:]] - basis[subsets[:, :1]]  # (subset, l-1, m, D)
    ranks = _ranks_mod_q(stacked.reshape(n_subsets, m * (l - 1), n_digits) % q, q)
    return int(ranks.min())


class UniversalityVerdict(NamedTuple):
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
