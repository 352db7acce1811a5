import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from renyi_extract import HashFamily, certify_k_star, evaluate, verify_universality
from renyi_extract.errors import BudgetExceededError
from renyi_extract.families import KINDS, hash_table
from renyi_extract.fields import FieldParams

from conftest import poly_family


def test_zero_seed_maps_everything_to_zero(gf8):
    fam = poly_family(gf8, 3, 2)
    for x in range(gf8.size):
        assert evaluate(fam, 0, x) == 0


def test_hand_evaluated_linear_seed(gf4):
    # seed = (s_0 = 0, s_1 = x): base-q^n decoding puts s_1 in the second digit.
    fam = poly_family(gf4, 2, 1)
    seed = 2 * gf4.size  # s_0 = 0, s_1 = element 2 = "x"
    assert evaluate(fam, seed, 2) == 1  # x * x = x + 1, first coefficient 1
    # At m = n the output integer holds every coefficient: x + 1 is 1 + 1*2.
    assert evaluate(poly_family(gf4, 2, 2), seed, 2) == 3


def test_degree_one_seeds_are_bijective(gf8):
    fam = poly_family(gf8, 2, 3)  # m = n: no truncation
    for s1 in range(1, gf8.size):
        seed = s1 * gf8.size + 3  # s_0 = 3, s_1 = s1 != 0
        outputs = {evaluate(fam, seed, x) for x in range(gf8.size)}
        assert len(outputs) == gf8.size


def test_evaluate_is_pure(gf8):
    fam = poly_family(gf8, 2, 2)
    assert evaluate(fam, 17, 5) == evaluate(fam, 17, 5)


@pytest.mark.parametrize("kind", KINDS)
def test_evaluate_rejects_bad_inputs(gf4, kind):
    fam = HashFamily(kind, gf4, 2, 1)
    with pytest.raises(ValueError):
        evaluate(fam, fam.seed_space_size, 0)
    for x in (-1, gf4.size, 7):  # 7 is an element of GF(8), not of GF(4)
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            evaluate(fam, 0, x)


def test_polynomial_family_k_tuple_joint_is_uniform(gf4):
    # k-wise independence: over uniform seeds, (h(S,x1), h(S,x2)) is uniform
    # on (Z_q^m)^2 for any distinct pair.  Exhaustive at q=2, n=2, k=2, m=1.
    fam = poly_family(gf4, 2, 1)
    table = hash_table(fam, np.arange(fam.seed_space_size), range(gf4.size))
    for i, j in itertools.combinations(range(gf4.size), 2):
        counts = Counter(zip(table[:, i].tolist(), table[:, j].tolist()))
        assert all(c == fam.seed_space_size // 4 for c in counts.values())
        assert len(counts) == 4


def test_full_table_collision_probability_exact():
    f = FieldParams.create(2, 2)
    fam = HashFamily("full_table", f, 4, 1)
    for l in (2, 3, 4):
        assert verify_universality(fam, l, budget=10**7) == Fraction(1, 2 ** (l - 1))


def test_polynomial_pairwise_universality(gf4):
    fam = poly_family(gf4, 2, 1)
    assert verify_universality(fam, 2) <= Fraction(1, 2)


def test_polynomial_order2_family_fails_higher_order(gf4):
    # k = 2 does not promise 3-universality; at m = 2 the constant seeds give
    # collision probability 1/4 > q^{-2m} = 1/16.
    fam = poly_family(gf4, 2, 2)
    ratio = verify_universality(fam, 3)
    assert ratio == Fraction(1, 4)
    assert ratio > Fraction(1, 16)


def test_certify_k_star_polynomial(gf8):
    for k in (2, 3):
        fam = poly_family(gf8, k, 2)
        verdicts = certify_k_star(fam)
        assert [v.l for v in verdicts] == list(range(2, k + 1))
        assert all(v.passed for v in verdicts)


def test_certify_constant_family_fails(gf4):
    fam = HashFamily("constant", gf4, 2, 1)
    verdicts = certify_k_star(fam)
    assert verdicts[0].l == 2
    assert verdicts[0].collision_probability == 1
    assert not verdicts[0].passed


def test_certify_full_table(gf4):
    fam = HashFamily("full_table", gf4, 3, 1)
    assert all(v.passed for v in certify_k_star(fam))


def test_budget_enforced(gf8):
    fam = poly_family(gf8, 3, 2)
    with pytest.raises(BudgetExceededError):
        verify_universality(fam, 2, budget=10)


def test_seed_space_sizes(gf4):
    assert poly_family(gf4, 2, 1).seed_space_size == 2 ** 4
    assert HashFamily("full_table", gf4, 2, 1).seed_space_size == 2 ** 4
    assert HashFamily("constant", gf4, 2, 1).seed_space_size == 1


TABLE_FAMILIES = [
    ("polynomial", 2, 3, 3, 2),
    ("polynomial", 3, 2, 2, 1),
    ("full_table", 2, 2, 2, 1),
    ("full_table", 2, 2, 2, 2),
    ("constant", 2, 3, 2, 2),
]


@pytest.mark.parametrize("kind,q,n,k,m", TABLE_FAMILIES)
def test_hash_table_matches_evaluate(kind, q, n, k, m):
    field = FieldParams.create(q, n)
    fam = HashFamily(kind, field, k, m)
    last = fam.seed_space_size - 1
    order = [last, 0, last, *range(last, -1, -max(1, last // 37)), 1 % (last + 1), 0]
    seeds = np.stack([order, order], axis=1)[:, 0]  # repeated, unordered, strided
    assert not seeds.flags.c_contiguous
    inputs = [field.size - 1, 0, 2 % field.size, 1]
    table = hash_table(fam, seeds, inputs)
    assert table.shape == (len(seeds), len(inputs))
    for r, s in enumerate(seeds.tolist()):
        for c, v in enumerate(inputs):
            assert table[r, c] == evaluate(fam, s, v)


def test_hash_table_rejects_out_of_range_seeds(gf4):
    fam = poly_family(gf4, 2, 1)
    for bad in (-1, fam.seed_space_size):
        with pytest.raises(ValueError):
            hash_table(fam, np.array([0, bad]), range(gf4.size))


@pytest.mark.parametrize("kind", KINDS)
def test_hash_table_rejects_inputs_outside_field(gf4, kind):
    # The constant kind never evaluates a basis row, so the check is separate.
    fam = HashFamily(kind, gf4, 2, 1)
    for bad in (-1, gf4.size):
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            hash_table(fam, np.arange(2), [0, bad])


def test_hash_table_takes_digit_rows_beyond_int64():
    # GF(2^4), m=4: 64 seed digits, so seed integers reach 2^64 - 1.
    field = FieldParams.create(2, 4)
    fam = HashFamily("full_table", field, 2, 4)
    assert fam.seed_space_size > np.iinfo(np.int64).max + 1
    digits = np.random.default_rng(5).integers(0, 2, size=(40, fam.seed_digits))
    digits[0] = 1  # the largest seed
    inputs = [0, 15, 3, 9, 14]
    table = hash_table(fam, digits, inputs)
    for r, row in enumerate(digits.tolist()):
        seed = sum(d * 2**i for i, d in enumerate(row))  # a Python int
        for c, v in enumerate(inputs):
            assert table[r, c] == evaluate(fam, seed, v)


def test_hash_table_rejects_bad_digit_rows(gf4):
    fam = poly_family(gf4, 2, 1)
    for bad in (np.zeros((2, fam.seed_digits + 1)), np.full((2, fam.seed_digits), 2)):
        with pytest.raises(ValueError):
            hash_table(fam, bad.astype(np.int64), range(gf4.size))


def test_seed_digits_give_seed_space_sizes(gf4, gf9):
    assert poly_family(gf9, 3, 1).seed_digits == 3 * 2
    assert HashFamily("full_table", gf4, 2, 2).seed_digits == 2 * 4
    assert HashFamily("constant", gf4, 2, 1).seed_digits == 0
    for fam in (poly_family(gf9, 3, 1), HashFamily("full_table", gf4, 2, 2)):
        assert fam.seed_space_size == fam.field.q ** fam.seed_digits


SHIFT_FAMILIES = (
    [
        ("polynomial", q, n, k, m)
        for q, n in ((2, 3), (3, 2), (5, 1))
        for k in (2, 3)
        for m in range(1, n + 1)
    ]
    + [("full_table", 2, 2, 2, m) for m in (1, 2)]
    + [("constant", 2, 3, 2, 2)]
)


@pytest.mark.parametrize("kind,q,n,k,m", SHIFT_FAMILIES)
def test_shift_digits_only_shift_outputs(kind, q, n, k, m):
    # For the polynomial kind the n lowest seed digits are those of s_0, which
    # adds one constant to every output: within each block of q**n
    # consecutive seeds, every row is the block's first row plus one constant
    # digit vector mod q.  The other kinds have no such digits.
    field = FieldParams.create(q, n)
    fam = HashFamily(kind, field, k, m)
    block = q**n if kind == "polynomial" else 1
    table = hash_table(fam, np.arange(fam.seed_space_size), range(field.size))
    digits = table[..., None] // q ** np.arange(m) % q  # (seed, input, output digit)
    blocks = digits.reshape(-1, block, field.size, m)
    shift = (blocks - blocks[:, :1]) % q
    assert (shift == shift[:, :, :1]).all()

