"""Arithmetic in GF(q^n) on canonical integers.

An element is a canonical integer in [0, q^n).  Its base-q digits, least
significant first, are the coefficients of 1, x, ..., x^(n-1) of a polynomial
over Z_q.  The modulus polynomial is monic of degree n and is stored as its
n low-order coefficients, constant term first; the leading coefficient 1 is
implicit.  Fields stay small (n <= 16), so schoolbook arithmetic is plenty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

MAX_DEGREE = 16


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def _poly_trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mod(a: list[int], mod: list[int], q: int) -> list[int]:
    """Remainder of a divided by mod over Z_q; mod must be monic."""
    a = list(a)
    d = len(mod) - 1
    while len(_poly_trim(a)) - 1 >= d:
        shift = len(a) - 1 - d
        factor = a[-1] % q
        for i, c in enumerate(mod):
            a[shift + i] = (a[shift + i] - factor * c) % q
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int], q: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % q
    return out


def _monic_polys(q: int, degree: int):
    """All monic polynomials of the given degree, as full coefficient lists."""
    for low in itertools.product(range(q), repeat=degree):
        yield list(low) + [1]


def is_irreducible(low_coeffs: tuple[int, ...], q: int) -> bool:
    """Trial division against every lower-degree monic polynomial."""
    n = len(low_coeffs)
    poly = list(low_coeffs) + [1]
    if n == 1:
        return True
    for d in range(1, n // 2 + 1):
        for divisor in _monic_polys(q, d):
            if not _poly_trim(_poly_mod(poly, divisor, q)):
                return False
    return True


def find_irreducible(q: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest (constant term first) monic irreducible
    polynomial of degree n over Z_q, returned as its n low-order coefficients.
    """
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"n must be in [1, {MAX_DEGREE}], got {n}")
    for low in itertools.product(range(q), repeat=n):
        if is_irreducible(low, q):
            return low
    raise AssertionError("no irreducible polynomial found")  # unreachable


@dataclass(frozen=True)
class FieldParams:
    """Parameters of GF(q^n): prime q, degree n, monic modulus polynomial."""

    q: int
    n: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError(f"q must be prime, got {self.q}")
        if not 1 <= self.n <= MAX_DEGREE:
            raise ValueError(f"n must be in [1, {MAX_DEGREE}], got {self.n}")
        if len(self.modulus) != self.n:
            raise ValueError("modulus must list exactly n low-order coefficients")
        if any(not 0 <= c < self.q for c in self.modulus):
            raise ValueError("modulus coefficients must lie in [0, q)")
        if not is_irreducible(self.modulus, self.q):
            raise ValueError("modulus polynomial is reducible")

    @classmethod
    def create(cls, q: int, n: int) -> "FieldParams":
        """Field with the canonical (lexicographically smallest) modulus."""
        return cls(q, n, find_irreducible(q, n))

    @property
    def size(self) -> int:
        return self.q ** self.n

    def digits(self, value: int) -> list[int]:
        """The n base-q digits of a canonical integer in [0, q^n), least
        significant first: the coefficient of x^i is digit i."""
        if not 0 <= value < self.size:
            raise ValueError(f"value {value} outside [0, {self.size})")
        digits = []
        for _ in range(self.n):
            value, c = divmod(value, self.q)
            digits.append(c)
        return digits

    def from_digits(self, digits: list[int]) -> int:
        """The canonical integer of at most n base-q digits, least significant
        first."""
        if len(digits) > self.n or any(not 0 <= c < self.q for c in digits):
            raise ValueError(f"need at most {self.n} digits in [0, {self.q})")
        value = 0
        for c in reversed(digits):
            value = value * self.q + c
        return value


def gf_add(field: FieldParams, a: int, b: int) -> int:
    q = field.q
    return field.from_digits([(x + y) % q for x, y in zip(field.digits(a), field.digits(b))])


def gf_mul(field: FieldParams, a: int, b: int) -> int:
    q = field.q
    prod = _poly_mul(field.digits(a), field.digits(b), q)
    return field.from_digits(_poly_mod(prod, list(field.modulus) + [1], q))
