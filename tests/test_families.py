import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from renyi_extract import HashFamily, certify_k_star, evaluate, verify_universality
from renyi_extract.errors import BudgetExceededError
from renyi_extract import families
from renyi_extract.families import KINDS, hash_table
from renyi_extract.fields import FieldParams

from conftest import full_rank_scan, loop_basis, poly_family


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
        assert verify_universality(fam, l, budget=10**7) == l - 1  # 2^-(l-1)


def test_polynomial_pairwise_universality(gf4):
    fam = poly_family(gf4, 2, 1)
    assert verify_universality(fam, 2) >= 1  # collision probability <= 1/2


def test_polynomial_order2_family_fails_higher_order(gf4):
    # k = 2 does not promise 3-universality; at m = 2 the constant seeds give
    # collision probability 1/4 > q^{-2m} = 1/16.
    fam = poly_family(gf4, 2, 2)
    rank = verify_universality(fam, 3)
    assert rank == 2  # 1/4
    assert rank < 4  # 1/4 > 1/16


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
    assert (verdicts[0].rank, verdicts[0].required) == (0, 1)  # probability 1
    assert not verdicts[0].passed


def test_certify_full_table(gf4):
    fam = HashFamily("full_table", gf4, 3, 1)
    assert all(v.passed for v in certify_k_star(fam))


@pytest.mark.parametrize(
    "kind,k,subsets", [("polynomial", 3, math.comb(30, 1)), ("full_table", 3, math.comb(32, 3))]
)
def test_budget_is_the_certification_charge(kind, k, subsets):
    # GF(2^5), m=2 at l=3: the basis (D x N, N = 32 inputs) and one stacked
    # D x m(l-1) matrix per ranked 3-subset.  The polynomial kind ranks only
    # the C(30, 1) subsets holding inputs 0 and 1: D = 15, so 2,280 cells,
    # where all C(32, 3) were charged 298,080.  full_table ranks every subset.
    fam = HashFamily(kind, FieldParams.create(2, 5), k, 2)
    d = fam.seed_digits
    charge = d * 32 + subsets * d * 2 * 2
    if kind == "polynomial":
        assert charge == 2_280
    with pytest.raises(BudgetExceededError, match=f"exceeds budget {charge - 1}$"):
        verify_universality(fam, 3, budget=charge - 1)
    assert verify_universality(fam, 3, budget=charge) == 4  # 1/16


def test_family_beyond_int64_is_refused():
    # At q = 2147483659, k = 4, the digit products summed in hash_table reach
    # 4 (q-1)^2 > 2^63: int64 wrapped, and hash_table gave 2147483180 where
    # evaluate gives 5.  The family is refused, naming q.
    field = FieldParams(2147483659, 1, (0,))
    for k in (2, 4):
        with pytest.raises(ValueError, match=r"q=2147483659 is too large"):
            HashFamily("polynomial", field, k, 1)


def test_largest_int64_family_matches_evaluate():
    # q = 2^31 - 1, k = 2: 2 (q-1)^2 < 2^63, the largest prime q admitted at
    # n = 1, k = 2.  Its sums of digit products stay exact.
    q = 2**31 - 1
    fam = HashFamily("polynomial", FieldParams(q, 1, (0,)), 2, 1)
    seeds = [0, 1, q - 1, q, fam.seed_space_size - 1, (q - 2) * q + q - 3]
    inputs = [0, 1, 2, q - 2, q - 1]
    table = hash_table(fam, seeds, inputs)
    assert table.tolist() == [[evaluate(fam, s, x) for x in inputs] for s in seeds]
    with pytest.raises(ValueError, match=rf"q={q} is too large"):
        HashFamily("polynomial", fam.field, 3, 1)


def test_seed_space_sizes(gf4):
    assert poly_family(gf4, 2, 1).seed_space_size == 2 ** 4
    assert HashFamily("full_table", gf4, 2, 1).seed_space_size == 2 ** 4
    assert HashFamily("constant", gf4, 2, 1).seed_space_size == 1


TABLE_FAMILIES = (
    [
        ("polynomial", q, n, k, m)
        for q, n in [(2, n) for n in range(1, 9)] + [(3, 1), (3, 2), (3, 3), (5, 1),
                                                      (5, 2), (7, 1), (7, 2), (11, 1),
                                                      (13, 1)]
        for k in (2, 3, 4)
        for m in range(1, n + 1)
    ]
    + [("full_table", q, n, 2, m) for q, n in ((2, 1), (2, 2), (3, 2), (5, 1))
       for m in (1, 2, 3)]
    + [("constant", 2, 3, 2, 2), ("constant", 7, 1, 3, 1)]
    # Seed spaces beyond int64: 64, 64, 40 and 96 seed digits.
    + [("polynomial", 2, 8, 8, 8), ("full_table", 2, 4, 2, 4),
       ("polynomial", 3, 8, 5, 2), ("full_table", 2, 5, 2, 3)]
)


@pytest.mark.parametrize("kind,q,n,k,m", TABLE_FAMILIES)
def test_hash_table_matches_evaluate(kind, q, n, k, m):
    # The closed-form basis against the scalar oracle on every cell, for
    # shuffled and repeated inputs.  Seeds come as base-q digit rows and,
    # where the seed space fits int64, as a repeated, unordered, strided array.
    field = FieldParams.create(q, n)
    fam = HashFamily(kind, field, k, m)
    rng = np.random.default_rng([q, n, k, m])
    inputs = rng.integers(0, field.size, size=min(field.size, 12) + 4).tolist()
    inputs += [inputs[0], field.size - 1, 0, field.size - 1]
    digits = rng.integers(0, q, size=(6, fam.seed_digits))
    digits[0] = q - 1  # the largest seed
    seeds = [sum(d * q**i for i, d in enumerate(row)) for row in digits.tolist()]
    tables = [(seeds, hash_table(fam, digits, inputs))]
    last = fam.seed_space_size - 1
    if last <= np.iinfo(np.int64).max:
        order = [last, 0, last, *range(last, -1, -max(1, last // 11)), 1 % (last + 1), 0]
        strided = np.stack([order, order], axis=1)[:, 0]
        assert not strided.flags.c_contiguous
        tables.append((order, hash_table(fam, strided, inputs)))
    for seeds, table in tables:
        assert table.shape == (len(seeds), len(inputs))
        for r, s in enumerate(seeds):
            for c, v in enumerate(inputs):
                assert table[r, c] == evaluate(fam, s, v)


@pytest.mark.parametrize(
    "q,n,k,m",
    [(2, 1, 2, 1), (2, 3, 3, 2), (3, 2, 4, 2), (5, 1, 3, 1), (2, 8, 3, 4),
     (7, 2, 6, 2), (2, 5, 17, 5), (2, 16, 3, 9), (2, 1, 1000, 1), (3, 3, 2000, 2)],
)
def test_basis_by_doubling_matches_the_digit_loop(q, n, k, m):
    # Powers of each input by doubling, bit for bit the k * n loop's basis,
    # for shuffled and repeated inputs.
    fam = HashFamily("polynomial", FieldParams.create(q, n), k, m)
    rng = np.random.default_rng([q, n, k, m])
    xs = rng.integers(0, fam.field.size, size=min(fam.field.size, 40) + 3)
    got = families._basis(fam, xs)
    want = loop_basis(fam, xs)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.flags.c_contiguous


@pytest.mark.parametrize(
    "kind,q,n,k,m",
    [("full_table", 2, 4, 2, 4), ("polynomial", 2, 8, 8, 8), ("polynomial", 3, 8, 5, 2)],
)
def test_seed_integers_in_a_seed_space_beyond_int64(kind, q, n, k, m):
    # An int64 seed of a larger seed space has its high digits 0: the integer
    # and its digit row hash alike.
    fam = HashFamily(kind, FieldParams.create(q, n), k, m)
    top = np.iinfo(np.int64).max
    seeds = np.array([top, 0, 12345, top // q, 1, q - 1])
    rows = [[s // q**d % q for d in range(fam.seed_digits)] for s in seeds.tolist()]
    inputs = list(range(min(fam.field.size, 20)))
    want = hash_table(fam, np.array(rows), inputs)
    assert np.array_equal(hash_table(fam, seeds, inputs), want)


def test_prepared_inputs_share_one_basis(gf8, monkeypatch):
    # hash_table and _translates take an Inputs as they take the integers it
    # holds, without building another basis; another family's is refused.
    fam = poly_family(gf8, 3, 2)
    inputs = families._prepared(fam, [5, 0, 3, 5])
    monkeypatch.setattr(families, "_basis", lambda *a: pytest.fail("basis rebuilt"))
    seeds = np.arange(0, fam.seed_space_size, 7)
    assert np.array_equal(hash_table(fam, seeds, inputs), hash_table(fam, seeds, inputs))
    assert len(families._translates(fam, inputs).pivots) > 0
    monkeypatch.undo()
    want = hash_table(fam, seeds, [5, 0, 3, 5])
    assert np.array_equal(hash_table(fam, seeds, inputs), want)
    with pytest.raises(ValueError, match="prepared for another family"):
        hash_table(poly_family(gf8, 2, 2), seeds[:3], inputs)


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



def translate_shifts(cosets, q):
    """Every translate's output shift, as m digits: T's elements are its
    basis vectors' combinations by the free digits, and a shift is linear."""
    free = np.setdiff1d(np.arange(cosets.reduced.shape[1]), cosets.pivots)
    coef = families._all_digit_rows(len(free), q)
    return coef @ cosets.moves[:, free].T % q


@pytest.mark.parametrize("kind,q,n,k,m", SHIFT_FAMILIES)
def test_translates_reach_every_seed_once_by_output_shifts(kind, q, n, k, m):
    # Every seed lies in the coset of the representative whose pivot digits
    # are reduced @ s, each coset holds ``translates`` seeds, and a seed's
    # table row is its representative's shifted digitwise by moves @ s, on the
    # whole domain and on a subset (whose translate group is larger).
    field = FieldParams.create(q, n)
    fam = HashFamily(kind, field, k, m)
    seeds = families._all_digit_rows(fam.seed_digits, q)
    for inputs in (range(field.size), [field.size - 1, 1]):
        cosets = families._translates(fam, inputs)
        n_reps = q ** len(cosets.pivots)
        assert n_reps * cosets.translates == fam.seed_space_size
        reps = np.zeros_like(seeds)
        reps[:, cosets.pivots] = seeds @ cosets.reduced.T % q
        index = reps[:, cosets.pivots] @ q ** np.arange(len(cosets.pivots))
        assert np.bincount(index).tolist() == [cosets.translates] * n_reps
        # A representative is its own: its digits off the pivots are 0.
        own = seeds[(seeds == reps).all(axis=1)]
        free = np.setdiff1d(np.arange(fam.seed_digits), cosets.pivots)
        assert len(own) == n_reps and not own[:, free].any()

        def out_digits(table):
            return table[..., None] // q ** np.arange(m) % q

        shift = seeds @ cosets.moves.T % q
        rows = out_digits(hash_table(fam, seeds, inputs))
        shifted = (out_digits(hash_table(fam, reps, inputs)) + shift[:, None]) % q
        assert np.array_equal(rows, shifted)
        # The distinct shifts, in increasing order of their output integers.
        powers = q ** np.arange(m)
        assert (cosets.shifts(q) @ powers).tolist() == sorted(set(shift @ powers))


@pytest.mark.parametrize(
    "kind,q,n,k,m,dim_t,dim_ker",
    [("polynomial", 3, 2, 4, 1, 4, 3), ("polynomial", 3, 2, 4, 2, 2, 0),
     ("polynomial", 2, 4, 3, 2, 4, 2), ("polynomial", 2, 6, 3, 3, 6, 3),
     ("full_table", 2, 2, 2, 1, 1, 0), ("full_table", 2, 2, 2, 2, 2, 0),
     ("full_table", 3, 1, 2, 2, 2, 0)],
)
def test_translate_group_dimensions(kind, q, n, k, m, dim_t, dim_ker):
    # T holds the seeds that shift every output by one constant; the kernel,
    # the translates whose shift is 0, those that change no output at all.
    fam = HashFamily(kind, FieldParams.create(q, n), k, m)
    cosets = families._translates(fam, range(q**n))
    assert cosets.translates == q**dim_t
    assert len(cosets.pivots) == fam.seed_digits - dim_t
    shifts = translate_shifts(cosets, q)
    assert np.count_nonzero(~shifts.any(axis=1)) == q**dim_ker


def test_constant_family_has_no_seed_digits(gf4):
    cosets = families._translates(HashFamily("constant", gf4, 2, 2), range(4))
    assert cosets.pivots.shape == (0,) and cosets.translates == 1
    assert cosets.reduced.shape == (0, 0) and cosets.moves.shape == (2, 0)
    assert translate_shifts(cosets, 2).tolist() == [[0, 0]]


def seed_scan(family, l):
    """Max over l-subsets of Pr_S[h(S,x_1) = ... = h(S,x_l)], by counting the
    colliding seeds in the whole seed table: the oracle for the rank."""
    n_inputs, seeds = family.field.size, family.seed_space_size
    columns = hash_table(family, np.arange(seeds), range(n_inputs)).T.copy()
    worst = 0
    for first, *rest in itertools.combinations(range(n_inputs), l):
        same = np.all(columns[rest] == columns[first], axis=0)
        worst = max(worst, int(np.count_nonzero(same)))
    return Fraction(worst, seeds)


ORACLE_FAMILIES = (
    [
        ("polynomial", q, n, k, m)
        # q = 11 is the largest prime whose products fit int8; 13 needs int16.
        for q, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1),
                     (11, 1), (13, 1))
        for k in (2, 3, 4)
        for m in range(1, n + 1)
    ]
    + [("polynomial", 5, 2, 2, m) for m in (1, 2)]
    + [("full_table", q, n, 2, m) for q, n in ((2, 2), (3, 1)) for m in (1, 2)]
    + [("constant", q, n, 3, 1) for q, n in ((2, 2), (3, 1), (5, 1))]
)


@pytest.mark.parametrize("kind,q,n,k,m", ORACLE_FAMILIES)
def test_rank_matches_seed_scan(kind, q, n, k, m):
    # Every order the certifier checks, plus k + 1 where the domain allows:
    # polynomial families fail there, so the ratio is not just the threshold.
    # 126 (family, l) cases in all.
    fam = HashFamily(kind, FieldParams.create(q, n), k, m)
    for l in range(2, min(k + 1, fam.field.size) + 1):
        assert Fraction(1, q ** verify_universality(fam, l)) == seed_scan(fam, l), l


AFFINE_FAMILIES = [
    (q, n, k, m)
    for q, n in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2))
    for k in (2, 3, 4)
    for m in range(1, n + 1)
]


@pytest.mark.parametrize("q,n,k,m", AFFINE_FAMILIES)
def test_affine_reduction_matches_full_scan(q, n, k, m):
    # Ranking only the subsets that hold inputs 0 and 1 gives the least rank
    # over all C(N, l) subsets: at every order the certifier checks, and at
    # k + 1, where the family fails and the least rank is below m * k, when
    # there are at most 40,000 (k + 1)-subsets to scan.
    fam = poly_family(FieldParams.create(q, n), k, m)
    orders = [l for l in range(2, min(k + 1, q**n) + 1)
              if l <= k or math.comb(q**n, l) <= 40_000]
    for l in orders:
        assert verify_universality(fam, l) == full_rank_scan(fam, l), l


def test_certification_reads_only_the_basis(monkeypatch):
    # Certification tabulates no seed, not even the single-digit ones: it
    # reads one basis per order and never calls hash_table.
    bases = []

    def spy_basis(family, xs):
        bases.append(len(xs))
        return basis(family, xs)

    def no_table(family, seeds, inputs):
        pytest.fail("certification called hash_table")

    basis = families._basis
    monkeypatch.setattr(families, "_basis", spy_basis)
    monkeypatch.setattr(families, "hash_table", no_table)
    for kind, q, n, k, m in [("polynomial", 2, 4, 3, 2), ("polynomial", 3, 2, 4, 1),
                             ("full_table", 2, 2, 3, 2), ("constant", 2, 2, 2, 1)]:
        fam = HashFamily(kind, FieldParams.create(q, n), k, m)
        bases.clear()
        certify_k_star(fam)
        assert bases == [fam.field.size] * (k - 1)
