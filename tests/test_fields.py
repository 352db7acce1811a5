import itertools

import pytest

from renyi_extract.fields import (
    FieldParams,
    find_irreducible,
    gf_add,
    gf_mul,
    is_prime,
)


def has_root(low_coeffs, q):
    """Exhaustive root test for a monic polynomial over Z_q."""
    poly = list(low_coeffs) + [1]
    for r in range(q):
        acc = 0
        for c in reversed(poly):
            acc = (acc * r + c) % q
        if acc == 0:
            return True
    return False


def test_degree_one_always_irreducible():
    assert find_irreducible(2, 1) == (0,)
    assert find_irreducible(5, 1) == (0,)


def test_gf4_modulus_is_x2_x_1():
    # Only monic degree-2 polynomial over Z_2 without a root.
    assert find_irreducible(2, 2) == (1, 1)
    candidates = [
        low for low in itertools.product(range(2), repeat=2) if not has_root(low, 2)
    ]
    assert candidates == [(1, 1)]


def test_gf9_modulus_is_x2_plus_1():
    assert find_irreducible(3, 2) == (1, 0)
    # Lexicographically first rootless monic quadratic over Z_3.
    first = next(
        low for low in itertools.product(range(3), repeat=2) if not has_root(low, 3)
    )
    assert first == (1, 0)


def test_find_irreducible_rejects_bad_inputs():
    with pytest.raises(ValueError):
        find_irreducible(4, 2)
    with pytest.raises(ValueError):
        find_irreducible(2, 0)
    with pytest.raises(ValueError):
        find_irreducible(2, 17)


def test_is_prime_small():
    primes = [p for p in range(2, 30) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_gf4_x_times_x(gf4):
    assert gf_mul(gf4, 2, 2) == 3  # x^2 = x + 1 mod x^2+x+1


def test_gf9_x_times_x(gf9):
    assert gf_mul(gf9, 3, 3) == 2  # x^2 = -1 mod x^2+1


def test_multiplicative_identity(gf8):
    for a in range(gf8.size):
        assert gf_mul(gf8, a, 1) == a


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 1)])
def test_inverse_exhaustive(q, n):
    # Every nonzero element has exactly one inverse, found by search.
    f = FieldParams.create(q, n)
    for a in range(1, f.size):
        assert len([b for b in range(f.size) if gf_mul(f, a, b) == 1]) == 1


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2)])
def test_ring_axioms_exhaustive(q, n):
    f = FieldParams.create(q, n)
    elems = range(f.size)
    for a, b in itertools.product(elems, repeat=2):
        assert gf_add(f, a, b) == gf_add(f, b, a)
        assert gf_mul(f, a, b) == gf_mul(f, b, a)
    for a, b, c in itertools.product(elems[:4], elems[:4], elems):
        assert gf_mul(f, gf_mul(f, a, b), c) == gf_mul(f, a, gf_mul(f, b, c))
        assert gf_mul(f, a, gf_add(f, b, c)) == gf_add(f, gf_mul(f, a, b), gf_mul(f, a, c))


@pytest.mark.parametrize("bad", [-1, 4, 7])
def test_integers_outside_the_field_rejected(gf4, bad):
    # 7 is an element of GF(8), not of GF(4).
    with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
        gf_add(gf4, bad, 1)
    with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
        gf_mul(gf4, 1, bad)


def test_digit_round_trip(gf9):
    for v in range(gf9.size):
        assert gf9.from_digits(gf9.digits(v)) == v
    assert gf9.digits(5) == [2, 1]  # 5 = 2 + 1*3: the element 2 + x
    for bad in ([3], [0, 0, 1]):  # a digit of 3, or a third digit
        with pytest.raises(ValueError):
            gf9.from_digits(bad)


def test_modulus_validation():
    with pytest.raises(ValueError):
        FieldParams(2, 2, (0, 0))  # x^2 is reducible
    with pytest.raises(ValueError):
        FieldParams(2, 2, (1,))  # wrong length
