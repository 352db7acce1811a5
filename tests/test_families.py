import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from renyi_extract import HashFamily, certify_k_star
from renyi_extract.errors import BudgetExceededError
from renyi_extract import _tables, _translates, families
from renyi_extract.families import KINDS, evaluate, hash_table, verify_universality
from renyi_extract.fields import FieldParams

from conftest import full_rank_scan, loop_basis, matmul_table, poly_family


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
    "kind,n,l,m,ranked,prefixes,subsets,charge",
    [("polynomial", 5, 3, 2, 32, 1, math.comb(30, 1), 1_410),
     ("full_table", 5, 3, 2, 3, 1, 1, 448),
     ("full_table", 6, 4, 1, 4, 1, 1, 448)],
)
def test_budget_is_the_certification_charge(kind, n, l, m, ranked, prefixes, subsets,
                                            charge):
    # Order l of GF(2^n), k = l, is charged the basis over the ranked inputs
    # (D x ranked), the m(l-2) rows of each prefix (the first l-1 inputs of a
    # ranked subset, with an input above them) and the m new rows of each
    # ranked l-subset, D cells a row.  The polynomial kind's affine maps move
    # 2 inputs, so on GF(2^5), m=2 it ranks the C(30, 1) 3-subsets of all 32
    # inputs holding 0 and 1, under the one prefix {0, 1}: D = 15, so 1,410
    # cells.  full_table's permutations move every input, so it ranks the one
    # subset {0, ..., l-1} over a basis of l inputs: D = 64 on both fields,
    # so 448 cells, where every subset under every prefix was charged 696,448
    # (GF(2^5), m=2) and 45,751,168 (GF(2^6), m=1, refused at the default
    # budget).
    fam = HashFamily(kind, FieldParams.create(2, n), l, m)
    d = fam.seed_digits
    assert d * (ranked + prefixes * m * (l - 2) + subsets * m) == charge
    with pytest.raises(BudgetExceededError, match=f"exceeds budget {charge - 1}$"):
        verify_universality(fam, l, budget=charge - 1)
    assert verify_universality(fam, l, budget=charge) == m * (l - 1)


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
    # Small calls multiply by the basis; through inputs whose window tables
    # are built, they read the tables.
    built = families._prepared(fam, inputs)
    built.windows  # built now, as a call for BLOCK / 2 cells or more would
    tables = [(seeds, hash_table(fam, digits, i)) for i in (inputs, built)]
    last = fam.seed_space_size - 1
    if last <= np.iinfo(np.int64).max:
        order = [last, 0, last, *range(last, -1, -max(1, last // 11)), 1 % (last + 1), 0]
        strided = np.stack([order, order], axis=1)[:, 0]
        assert not strided.flags.c_contiguous
        tables += [(order, hash_table(fam, strided, i)) for i in (inputs, built)]
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
    assert len(_translates._translates(fam, inputs).pivots) > 0
    monkeypatch.undo()
    want = hash_table(fam, seeds, [5, 0, 3, 5])
    assert np.array_equal(hash_table(fam, seeds, inputs), want)
    with pytest.raises(ValueError, match="prepared for another family"):
        hash_table(poly_family(gf8, 2, 2), seeds[:3], inputs)


WINDOW_FAMILIES = (
    [
        ("polynomial", q, n, k, m)
        for q, n in ((2, 3), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2))
        for k in (2, 3)
        for m in sorted({1, n})
    ]
    + [("full_table", q, n, 2, m) for q, n in ((2, 2), (3, 1), (3, 2), (5, 1), (7, 1))
       for m in (1, 3)]
    + [("constant", q, 1, 2, 1) for q in (2, 3, 5, 7, 2147483659)]
    # Seed spaces beyond int64: 64, 64, 40 and 96 seed digits.
    + [("polynomial", 2, 8, 8, 8), ("full_table", 2, 4, 2, 4),
       ("polynomial", 3, 8, 5, 2), ("full_table", 2, 5, 2, 3)]
)


def _window_case(kind, q, n, k, m):
    fam = HashFamily(kind, FieldParams.create(q, n), k, m)
    size = fam.field.size
    rng = np.random.default_rng([q, n, k, m])
    inputs = rng.integers(0, size, size=min(size, 40)).tolist() + [0, size - 1, 0]
    return fam, rng, inputs


@pytest.mark.parametrize("kind,q,n,k,m", WINDOW_FAMILIES)
def test_windows_match_the_matmul(kind, q, n, k, m):
    # The window tables against the digit matrix times the basis, bit for
    # bit, for digit rows and for seed integers (below 2^63 where the seed
    # space is larger, so their high digits are 0), through one Inputs.
    fam, rng, inputs = _window_case(kind, q, n, k, m)
    prepared = families._prepared(fam, inputs)
    built = prepared.windows  # built now: the small calls read them
    digits = rng.integers(0, q, size=(60, fam.seed_digits))
    digits[0] = q - 1  # the largest seed
    assert np.array_equal(hash_table(fam, digits, prepared), matmul_table(fam, digits, inputs))
    top = min(fam.seed_space_size, 2**63) - 1
    seeds = [0, top, top // q, 1 % (top + 1)]
    seeds += [int(v) * top // 10**6 for v in rng.integers(0, 10**6, size=40)]
    got = hash_table(fam, np.array(seeds), prepared)
    assert np.array_equal(got, matmul_table(fam, np.array(seeds), inputs))
    # q = 2 always reads windows; a q near 2^31 multiplies by the basis.
    if q == 2:
        assert built[0] > 0
    if q > 2**31:
        assert built[0] == 0


def test_window_families_cover_lanes_groups_padding_and_no_digits():
    # The cases above include windows for q = 3, 5 and 7, several lookup
    # groups, a last window shorter than w, a family with no seed digits and
    # a family with no windows at all.
    groups, qs, padded, empty, matmul = set(), set(), False, False, False
    for case in WINDOW_FAMILIES:
        fam, _, inputs = _window_case(*case)
        w, tables, _ = families._prepared(fam, inputs).windows
        if not w:
            matmul = True
            continue
        qs.add(fam.field.q)
        groups.add(len(tables))
        padded |= fam.seed_digits % w != 0
        empty |= fam.seed_digits == 0
    assert qs == {2, 3, 5, 7} and max(groups) >= 3 and padded and empty and matmul


@pytest.mark.parametrize(
    "kind,q,n,k,m",
    [("polynomial", 2, 4, 3, 2), ("polynomial", 3, 2, 4, 2), ("polynomial", 5, 2, 3, 1),
     ("full_table", 3, 1, 2, 2), ("constant", 2, 2, 2, 1)],
)
def test_pivoted_inputs_hash_representative_indices(kind, q, n, k, m):
    # Index i through the basis rows of the pivot digits is the seed whose
    # digit pivots[j] is digit j of i and whose other digits are 0.
    fam = HashFamily(kind, FieldParams.create(q, n), k, m)
    inputs = families._prepared(fam, range(fam.field.size))
    pivots = _translates._translates(fam, inputs).pivots
    index = np.arange(q ** len(pivots))
    rows = np.zeros((len(index), fam.seed_digits), dtype=np.int64)
    rows[:, pivots] = index[:, None] // q ** np.arange(len(pivots)) % q
    want = matmul_table(fam, rows, range(fam.field.size))
    reps = families.Inputs(fam, inputs.xs, inputs.basis[pivots])
    assert np.array_equal(hash_table(fam, index, reps), want)  # by the matmul
    reps.windows  # built now
    assert np.array_equal(hash_table(fam, index, reps), want)  # by the windows


@pytest.mark.parametrize(
    "kind,q,n,k,m,n_inputs",
    [("polynomial", 2, 8, 3, 4, 32), ("polynomial", 2, 6, 4, 3, 64),
     ("polynomial", 3, 2, 4, 2, 9), ("polynomial", 5, 2, 3, 2, 25),
     ("full_table", 2, 4, 2, 4, 16), ("full_table", 3, 2, 2, 3, 9)],
)
def test_window_tables_hold_at_most_a_block(kind, q, n, k, m, n_inputs):
    # Tables and lookup tables hold at most TABLE_CELLS (a quarter block) or
    # the basis's own cells, and so at most BLOCK cells here; building them
    # traces at most three blocks of int64 at once.
    fam = HashFamily(kind, FieldParams.create(q, n), k, m)
    basis = families._basis(fam, np.arange(n_inputs))
    limit = max(_tables.TABLE_CELLS, basis.size)
    assert limit <= _tables.BLOCK
    tracemalloc.start()
    try:
        width, tables, luts = _tables.windows(q, m, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert width > 0
    assert tables.size + (0 if luts is None else luts.size) <= limit
    assert peak < 3 * 8 * _tables.BLOCK


def test_small_calls_multiply_until_a_large_one_builds_the_tables(monkeypatch):
    # Fewer than BLOCK / 2 cells through inputs without tables go through
    # the matmul, and build no tables; a call for more builds them once, and
    # every later call reads them.  All give the same table.
    fam = HashFamily("polynomial", FieldParams.create(2, 8), 3, 4)
    inputs = families._prepared(fam, range(32))
    built, windows = [], _tables.windows
    monkeypatch.setattr(_tables, "windows", lambda *a: built.append(1) or windows(*a))
    seeds = np.arange(0, fam.seed_space_size, 997)[: families.BLOCK // 32]
    small = hash_table(fam, seeds[:100], inputs)
    assert built == [] and "windows" not in vars(inputs)
    whole = hash_table(fam, seeds, inputs)
    assert built == [1] and inputs.windows[0] > 0
    assert np.array_equal(hash_table(fam, seeds[:100], inputs), small)
    assert np.array_equal(whole[:100], small) and built == [1]
    assert np.array_equal(whole, matmul_table(fam, seeds, range(32)))


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
        cosets = _translates._translates(fam, inputs)
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
        # The distinct shifts, each once, in no set order.
        powers = q ** np.arange(m)
        listed = (cosets.shifts(q) @ powers).tolist()
        assert len(listed) == len(set(listed)) and set(listed) == set(shift @ powers)


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
    cosets = _translates._translates(fam, range(q**n))
    assert cosets.translates == q**dim_t
    assert len(cosets.pivots) == fam.seed_digits - dim_t
    shifts = translate_shifts(cosets, q)
    assert np.count_nonzero(~shifts.any(axis=1)) == q**dim_ker


def test_constant_family_has_no_seed_digits(gf4):
    cosets = _translates._translates(HashFamily("constant", gf4, 2, 2), range(4))
    assert cosets.pivots.shape == (0,) and cosets.translates == 1
    assert cosets.reduced.shape == (0, 0) and cosets.moves.shape == (2, 0)
    assert translate_shifts(cosets, 2).tolist() == [[0, 0]]
    assert cosets.shifts(2).tolist() == [[0, 0]]


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
        # Every prime q up to 13 at n = 1, and the small extension fields.
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


# Every kind: the polynomial kind ranks the subsets holding 0 and 1,
# full_table and constant the one subset {0, ..., l-1}, at l = 4 too on
# GF(2^3) and GF(3^2).  The polynomial ids are q-n-k-m.
FULL_SCAN_FAMILIES = (
    [pytest.param("polynomial", *f, id="-".join(map(str, f))) for f in AFFINE_FAMILIES]
    + [("full_table", q, n, k, m) for q, n in ((2, 2), (2, 3), (3, 1), (3, 2))
       for k in (2, 3) for m in (1, 2)]
    + [("full_table", q, n, 4, 1) for q, n in ((2, 3), (3, 2))]
    + [("constant", q, n, 3, m) for q, n in ((2, 2), (2, 3), (3, 1)) for m in (1, 2)]
)


@pytest.mark.parametrize("kind,q,n,k,m", FULL_SCAN_FAMILIES)
def test_affine_reduction_matches_full_scan(kind, q, n, k, m):
    # The certificate, ranked along the combination tree over the subsets
    # that hold inputs 0 .. fixed-1 of the ranked inputs, is the least rank
    # over all C(N, l) subsets, each row-reduced on its own: at every order
    # the certifier checks, and at k + 1, where a polynomial family fails and
    # the least rank is below m * k, when there are at most 40,000
    # (k + 1)-subsets to scan.
    fam = HashFamily(kind, FieldParams.create(q, n), k, m)
    orders = [l for l in range(2, min(k + 1, q**n) + 1)
              if l <= k or math.comb(q**n, l) <= 40_000]
    for l in orders:
        assert verify_universality(fam, l) == full_rank_scan(fam, l), l


def test_certification_reads_only_the_basis(monkeypatch):
    # Certification tabulates no seed, not even the single-digit ones: it
    # reads one basis per order, over the ranked inputs only (2 at l = 2 and
    # all N above for the polynomial kind, l for the others), and never calls
    # hash_table.
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
        if kind == "polynomial":
            assert bases == [2] + [fam.field.size] * (k - 2)
        else:
            assert bases == list(range(2, k + 1))


@pytest.mark.parametrize("block", [1, 37, 2**14])
def test_certificate_does_not_depend_on_the_block(monkeypatch, block):
    # The leaves of a prefix are ranked BLOCK cells at a time (at least one
    # leaf of m x D cells): every batch stays inside that, and the least rank
    # equals the full scan whatever the block.  The walk builds what the
    # budget charges: m(l-2) rows per prefix, m rows per ranked subset, over
    # the subsets of the first ``ranked`` inputs holding 0 .. fixed-1.  A
    # full_table or constant order is one prefix with one leaf.
    from renyi_extract import _certify

    batches, leaves, prefix_rows = [], [], []
    ranks, row_reduce = _certify._ranks_mod_q, _translates._row_reduce

    def spy_ranks(a, q):
        batches.append(a.size)
        leaves.append(len(a))
        return ranks(a, q)

    def spy_reduce(a, q):
        prefix_rows.append(len(a))
        return row_reduce(a, q)

    monkeypatch.setattr(_certify, "BLOCK", block)
    monkeypatch.setattr(_certify, "_ranks_mod_q", spy_ranks)
    monkeypatch.setattr(_certify, "_row_reduce", spy_reduce)
    for kind, q, n, k, m in [("polynomial", 2, 4, 4, 2), ("polynomial", 3, 2, 3, 2),
                             ("full_table", 2, 2, 3, 1), ("full_table", 3, 1, 3, 2),
                             ("full_table", 2, 3, 4, 1), ("constant", 2, 2, 3, 2)]:
        fam = HashFamily(kind, FieldParams.create(q, n), k, m)
        n_inputs, d = fam.field.size, fam.seed_digits
        moved = 2 if kind == "polynomial" else n_inputs
        for l in range(2, k + 1):
            ranked, fixed = n_inputs if l > moved else l, min(moved, l - 1)
            batches.clear()
            leaves.clear()
            prefix_rows.clear()
            assert verify_universality(fam, l) == full_rank_scan(fam, l), (kind, l)
            assert max(batches) <= max(block, m * d)
            assert sum(leaves) == math.comb(ranked - fixed, l - fixed)
            assert sum(batches) == sum(leaves) * m * d
            prefixes = math.comb(ranked - 1 - fixed, l - 1 - fixed)
            assert prefix_rows == [m * (l - 2)] * prefixes
            if kind != "polynomial":
                assert len(prefix_rows) == sum(leaves) == 1, (kind, l)


def test_certification_memory_follows_the_block():
    # GF(2^8), k=4, m=4 ranks 32,131 4-subsets.  One stack of their
    # 12 x 32 matrices held 12.3 M cells; the tree holds the basis, one
    # prefix's rows and one block of leaves.  The peak is the basis build
    # (its N k x n^2 products, 0.5 MB) and a few 2^14-cell int64 blocks.
    fam = poly_family(FieldParams.create(2, 8), 4, 4)
    tracemalloc.start()
    try:
        verdicts = certify_k_star(fam, budget=10**8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(v.passed for v in verdicts)
    assert peak < 2**21
