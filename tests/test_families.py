import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from renyi_extract import HashFamily, certify_k_star, evaluate, verify_universality
from renyi_extract.errors import BudgetExceededError
from renyi_extract.families import hash_table, output_to_int
from renyi_extract.fields import FieldParams

from conftest import poly_family


def test_zero_seed_maps_everything_to_zero(gf8):
    fam = poly_family(gf8, 3, 2)
    for x in gf8.elements():
        assert evaluate(fam, 0, x) == (0, 0)


def test_hand_evaluated_linear_seed(gf4):
    # seed = (s_0 = 0, s_1 = x): base-q^n decoding puts s_1 in the second digit.
    fam = poly_family(gf4, 2, 1)
    seed = 2 * gf4.size  # s_0 = 0, s_1 = element 2 = "x"
    x = gf4.from_int(2)
    assert evaluate(fam, seed, x) == (1,)  # x * x = x + 1, first coefficient 1


def test_degree_one_seeds_are_bijective(gf8):
    fam = poly_family(gf8, 2, 3)  # m = n: no truncation
    for s1 in range(1, gf8.size):
        seed = s1 * gf8.size + 3  # s_0 = 3, s_1 = s1 != 0
        outputs = {evaluate(fam, seed, x) for x in gf8.elements()}
        assert len(outputs) == gf8.size


def test_evaluate_is_pure(gf8):
    fam = poly_family(gf8, 2, 2)
    x = gf8.from_int(5)
    assert evaluate(fam, 17, x) == evaluate(fam, 17, x)


def test_evaluate_rejects_bad_inputs(gf4, gf8):
    fam = poly_family(gf4, 2, 1)
    with pytest.raises(ValueError):
        evaluate(fam, fam.seed_space_size, gf4.zero())
    with pytest.raises(ValueError):
        evaluate(fam, 0, gf8.zero())


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
            assert table[r, c] == output_to_int(evaluate(fam, s, field.from_int(v)), q)


def test_hash_table_rejects_out_of_range_seeds(gf4):
    fam = poly_family(gf4, 2, 1)
    for bad in (-1, fam.seed_space_size):
        with pytest.raises(ValueError):
            hash_table(fam, np.array([0, bad]), range(gf4.size))


def test_seed_digits_give_seed_space_sizes(gf4, gf9):
    assert poly_family(gf9, 3, 1).seed_digits == 3 * 2
    assert HashFamily("full_table", gf4, 2, 2).seed_digits == 2 * 4
    assert HashFamily("constant", gf4, 2, 1).seed_digits == 0
    for fam in (poly_family(gf9, 3, 1), HashFamily("full_table", gf4, 2, 2)):
        assert fam.seed_space_size == fam.field.q ** fam.seed_digits


def test_output_encoding_round_trip():
    assert output_to_int((1, 0, 1), 2) == 5
    assert output_to_int((2, 1), 3) == 5
