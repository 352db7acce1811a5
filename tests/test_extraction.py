import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from renyi_extract import (
    Alpha,
    HashFamily,
    Pmf,
    Source,
    empirical_divergences,
    expected_max_bucket,
    extract_joint,
)
from renyi_extract import extraction, families, harness, measures
from renyi_extract.bounds import SLACK
from renyi_extract.config import parse_config
from renyi_extract.errors import BudgetExceededError
from renyi_extract.extraction import _nonnegative
from renyi_extract.families import evaluate, hash_table
from renyi_extract.fields import FieldParams
from renyi_extract.harness import run_sweep, run_verify

from conftest import (
    bits, column_loop_largest_buckets, dense_joint, lexsorted_groups, make_source,
    outcome, poly_family, uniform_source, variant_totals, vxc_groups, whole_check,
)

SIDE_ROWS_8 = np.array([[0.8, 0.2], [0.3, 0.7]] * 4)


def coset_charge(family, inputs, width):
    """What extraction and the exact bucket are charged: the row reduction
    of the D x (|inputs| x m) basis differences (min(D, |inputs| x m) pivots
    over every cell), and D digits plus ``width`` cells for each of the q^r
    representatives.  The q^(D-r) translates are counted, never listed."""
    d, rows = family.seed_digits, len(inputs) * family.m
    reps = family.field.q ** len(families._translates(family, inputs).pivots)
    return d * rows * min(d, rows) + reps * (d + width)


def oracle_joint(family, source):
    """Direct double loop over (seed, input), independent of extract_joint."""
    seeds = family.seed_space_size
    shape = (family.output_size, seeds)
    if source.side_channel is not None:
        shape += (source.side_channel.shape[1],)
    arr = np.zeros(shape)
    for s in range(seeds):
        for i in range(source.probs.support_size):
            u = evaluate(family, s, i)
            if source.side_channel is None:
                arr[u, s] += source.probs.probs[i] / seeds
            else:
                arr[u, s, :] += source.probs.probs[i] * source.side_channel[i] / seeds
    return arr


class TestExtractJoint:
    def test_point_mass_source(self, gf8):
        fam = poly_family(gf8, 2, 2)
        probs = np.zeros(8)
        probs[5] = 1.0
        src = make_source(gf8, probs)
        result = extract_joint(fam, src)
        for s in range(fam.seed_space_size):
            u = evaluate(fam, s, 5)
            col = result.joint.probs[:, s]
            assert col[u] == pytest.approx(1.0 / fam.seed_space_size)
            assert col.sum() == pytest.approx(col[u])

    def test_full_table_output_marginal_uniform(self, gf4):
        # Averaged over all tables each input lands uniformly, so the output
        # marginal is exactly uniform even for a skewed source.
        fam = HashFamily("full_table", gf4, 2, 1)
        src = make_source(gf4, [0.4, 0.3, 0.2, 0.1])
        result = extract_joint(fam, src)
        arr = result.joint.probs
        assert np.allclose(arr.sum(axis=1), 1 / fam.output_size, atol=1e-12)

    def test_matches_double_loop_oracle(self, gf4):
        fam = poly_family(gf4, 2, 1)
        src = uniform_source(gf4)
        result = extract_joint(fam, src)
        assert np.allclose(result.joint.probs, oracle_joint(fam, src), atol=1e-15)

    def test_matches_oracle_with_side_channel(self, gf8):
        fam = poly_family(gf8, 2, 2)
        src = uniform_source(gf8, side_channel=SIDE_ROWS_8)
        result = extract_joint(fam, src)
        assert result.has_side_channel
        assert np.allclose(result.joint.probs, oracle_joint(fam, src), atol=1e-15)

    def test_total_mass_and_seed_marginal(self, gf8):
        fam = poly_family(gf8, 3, 1)
        src = make_source(gf8, [0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05])
        result = extract_joint(fam, src)
        arr = result.joint.probs
        assert abs(arr.sum() - 1.0) <= 1e-9
        assert np.allclose(arr.sum(axis=0), 1.0 / fam.seed_space_size, atol=1e-12)

    def test_side_channel_marginalizes_to_plain_joint(self, gf8):
        fam = poly_family(gf8, 2, 2)
        plain = extract_joint(fam, uniform_source(gf8))
        sided = extract_joint(fam, uniform_source(gf8, side_channel=SIDE_ROWS_8))
        assert np.allclose(
            sided.joint.probs.sum(axis=2), plain.joint.probs, atol=1e-12
        )

    def test_budget_enforced(self, gf8):
        fam = poly_family(gf8, 2, 2)
        with pytest.raises(BudgetExceededError):
            extract_joint(fam, uniform_source(gf8), budget=100)

    @pytest.mark.parametrize(
        "kind,q,n,k,m,side,pinned",
        [("full_table", 2, 3, 2, 2, 0, 462_848), ("polynomial", 2, 1, 4, 1, 0, 32),
         ("polynomial", 3, 2, 2, 1, 3, 342), ("polynomial", 2, 3, 2, 2, 2, 752)],
    )
    def test_budget_is_the_coset_charge(self, kind, q, n, k, m, side, pinned):
        # The row reduction, then per representative its D digits, its q^n
        # table cells and its q^m x max(1, Z) columns (coset_charge).  The
        # full_table GF(2^3), m=2 family has 2^16 seeds: 2^14 representatives
        # of 4 seeds each; the old whole-seed-space charge was 2^16 x (16 + 8).
        field = FieldParams.create(q, n)
        fam = HashFamily(kind, field, k, m)
        rows = np.full((field.size, side), 1.0 / side) if side else None
        source = uniform_source(field, side_channel=rows)
        width = field.size + fam.output_size * max(1, side)
        charge = coset_charge(fam, range(field.size), width)
        assert charge == pinned
        with pytest.raises(BudgetExceededError, match=f"exceeds budget {charge - 1}$"):
            extract_joint(fam, source, budget=charge - 1)
        joint = extract_joint(fam, source, budget=charge).joint
        assert joint.probs.shape[1] == fam.seed_space_size

    def test_row_reduction_is_charged_before_it_runs(self, monkeypatch):
        # full_table GF(2^8), m=4: D = 1024 seed digits against 1024 rows of
        # basis differences, so the reduction alone is 2^30 cells.
        fam = HashFamily("full_table", FieldParams.create(2, 8), 2, 4)
        monkeypatch.setattr(extraction, "_translates", lambda *a: pytest.fail("reduced"))
        with pytest.raises(BudgetExceededError, match=r"1024 pivots exceeds budget"):
            extract_joint(fam, uniform_source(fam.field))
        with pytest.raises(BudgetExceededError, match=r"1024 pivots exceeds budget"):
            expected_max_bucket(fam, range(256))

    def test_cell_counts_beyond_int64_are_refused(self):
        # GF(2^2), k=32: 2^64 seeds in 8 cosets, so the charge is small, but
        # the group counts would leave int64.
        fam = poly_family(FieldParams.create(2, 2), 32, 1)
        too_many = r"2\^64 seeds x 1 side symbols x 2 outputs"
        with pytest.raises(ValueError, match=too_many):
            extract_joint(fam, uniform_source(fam.field))

    def test_wrong_field_rejected(self, gf4, gf8):
        fam = poly_family(gf4, 2, 1)
        with pytest.raises(ValueError):
            extract_joint(fam, uniform_source(gf8))

    def test_source_log_base_must_match_family_q(self, gf9):
        # Nine symbols fit GF(3^2), but entropies in bits would be compared
        # with a joint and bounds in base 3.
        fam = poly_family(gf9, 2, 1)
        src = Source(Pmf(np.full(9, 1 / 9), base_q=2))
        with pytest.raises(ValueError, match=r"base 2 does not fit GF\(3\^2\)"):
            extract_joint(fam, src)


def _family(kind, q, n, k, m):
    return HashFamily(kind, FieldParams.create(q, n), k, m)


COSET_FAMILIES = [
    (kind, q, n, k, m)
    for q, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1))
    for k in (2, 3, 4)
    for kind, ms in (("polynomial", range(1, n + 1)), ("full_table", (1, 2)),
                     ("constant", (1,)))
    for m in ms
    if _family(kind, q, n, k, m).seed_space_size <= 2**14
] + [  # the benchmark's extractions
    ("polynomial", 2, 4, 3, 2), ("polynomial", 3, 2, 4, 1), ("polynomial", 3, 2, 4, 2),
]


class TestCosetExtraction:
    """extract_joint hashes one seed per translate coset and fills the other
    seeds by output shifts; the joint and its groups are those of tabulating
    every seed, bit for bit."""

    @pytest.mark.parametrize("side", [0, 3])
    @pytest.mark.parametrize("kind,q,n,k,m", COSET_FAMILIES)
    def test_matches_every_seed_enumeration(self, kind, q, n, k, m, side):
        fam = _family(kind, q, n, k, m)
        field = fam.field
        rng = np.random.default_rng([q, n, k, m, side])
        probs = rng.dirichlet(np.ones(field.size))
        probs[0] = 0.0  # a zero mass
        rows = rng.dirichlet(np.ones(side), size=field.size) if side else None
        source = make_source(field, probs / probs.sum(), side_channel=rows)
        joint = extract_joint(fam, source).joint
        dense = dense_joint(fam, source)
        for got, want in zip(joint._groups, lexsorted_groups(dense)):
            assert bits(got) == bits(want)
        # The dense array is built only now, when it is read.
        assert "probs" not in vars(joint)
        assert bits(joint.probs) == bits(dense)
        assert not joint.probs.flags.writeable


def _dirichlet_source(field, side, seed):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(field.size))
    probs[0] = 0.0  # a zero mass
    rows = rng.dirichlet(np.ones(side), size=field.size) if side else None
    return make_source(field, probs / probs.sum(), side_channel=rows)


class TestShiftMerge:
    """The groups merge one output shift at a time; the V x C grouping they
    replaced (``conftest.vxc_groups``) is the oracle, bit for bit."""

    @pytest.mark.parametrize("side", [0, 3])
    @pytest.mark.parametrize("kind,q,n,k,m", COSET_FAMILIES)
    def test_extracted_groups_match_the_vxc_grouping(self, kind, q, n, k, m, side):
        fam = _family(kind, q, n, k, m)
        source = _dirichlet_source(fam.field, side, [q, n, k, m])
        joint = extract_joint(fam, source).joint
        want = vxc_groups(joint._rep_columns, *variant_totals(joint))
        for got, expected in zip(joint._groups, want):
            assert bits(got) == bits(expected)

    @pytest.mark.parametrize("seed", range(20))
    def test_colliding_variants_match_the_vxc_grouping(self, seed):
        # Repeated columns, in shuffled output order, and variant totals drawn
        # from three values, so (rank, reference) pairs recur within and
        # across variants.
        rng = np.random.default_rng(seed)
        n_out, n_cols, n_variants, weight = 4, 40, 5, 3
        base = rng.dirichlet(np.ones(n_out), size=6)
        arr = rng.permuted(base[rng.integers(0, 6, n_cols)], axis=1).T.copy()
        arr /= n_variants * weight * math.fsum(arr.ravel().tolist())
        totals = rng.choice([0.25, 0.5, 1 / 3], size=(n_variants, n_cols))
        got = extraction._group_columns(arr, totals, weight)
        for g, w in zip(got, vxc_groups(arr, totals, weight)):
            assert bits(g) == bits(w)
        assert len(got[2]) < n_variants * n_cols


BLOCK_FAMILIES = [
    ("polynomial", 2, 3, 3, 2), ("polynomial", 3, 2, 2, 2), ("polynomial", 5, 1, 3, 1),
    ("full_table", 2, 2, 2, 1), ("full_table", 3, 1, 2, 2), ("full_table", 5, 1, 2, 1),
    ("constant", 2, 2, 2, 1), ("constant", 3, 1, 2, 1), ("constant", 5, 1, 2, 1),
]


class TestBlocks:
    """Extraction and the exact bucket hash BLOCK coset representatives at a
    time; nothing they return depends on the block size."""

    @pytest.mark.parametrize("side", [0, 3])
    @pytest.mark.parametrize("kind,q,n,k,m", BLOCK_FAMILIES)
    def test_results_do_not_depend_on_the_block_size(
        self, monkeypatch, kind, q, n, k, m, side
    ):
        fam = _family(kind, q, n, k, m)
        source = _dirichlet_source(fam.field, side, [q, n, k, m, side])
        subset = [fam.field.size - 1, 0, 1][: fam.field.size]

        def run():
            joint = extract_joint(fam, source).joint
            subsets = (range(fam.field.size), subset)
            buckets = [expected_max_bucket(fam, s).mean for s in subsets]
            return joint, buckets

        monkeypatch.setattr(extraction, "BLOCK", 2**62)  # one block
        whole, buckets = run()
        for block in (1, 5, 2**14):
            monkeypatch.setattr(extraction, "BLOCK", block)
            joint, got = run()
            for g, w in zip(joint._groups, whole._groups):
                assert bits(g) == bits(w)
            assert bits(joint._rep_columns) == bits(whole._rep_columns)
            assert bits(joint.probs) == bits(whole.probs)
            assert got == buckets

    def test_hash_table_is_called_once_per_block(self, monkeypatch):
        # Through the module global, so a tracer that wraps it sees each block.
        fam = poly_family(FieldParams.create(2, 4), 3, 2)
        calls, table = [], extraction.hash_table

        def counting(family, digits, inputs):
            calls.append(len(digits))
            return table(family, digits, inputs)

        monkeypatch.setattr(extraction, "hash_table", counting)
        monkeypatch.setattr(extraction, "BLOCK", 100)
        extract_joint(fam, uniform_source(fam.field))
        n_reps = 2 ** len(families._translates(fam, range(16)).pivots)
        assert calls == [100] * (n_reps // 100) + [n_reps % 100]
        calls.clear()
        expected_max_bucket(fam, range(16))
        assert sum(calls) == n_reps and max(calls) == 100


class TestSampledBlocks:
    """The sampled bucket draws, hashes and counts max(1, BLOCK // max(|subset|,
    D)) seeds at a time; its mean and stderr do not depend on the block size."""

    @pytest.mark.parametrize(
        "kind,q,n,k,m",
        BLOCK_FAMILIES + [("polynomial", 2, 8, 3, 4), ("full_table", 2, 4, 2, 4)],
    )
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch, kind, q, n, k, m):
        # The last family has 2^64 seeds, so it draws digit rows.
        fam = _family(kind, q, n, k, m)
        size = fam.field.size
        rng = np.random.default_rng([q, n, k, m])
        subsets = [range(size), rng.choice(size, min(size, 3), replace=False).tolist()]
        for subset in subsets:

            def run():
                est = expected_max_bucket(
                    fam, subset, mode="sampled", n_samples=157, rng_seed=q * n + k
                )
                return bits(np.array(est))

            monkeypatch.setattr(extraction, "BLOCK", 2**62)  # one block
            whole = run()
            for block in (1, 5, 7 * len(subset), 2**14):
                monkeypatch.setattr(extraction, "BLOCK", block)
                assert run() == whole, (subset, block)

    @pytest.mark.parametrize(
        "kind,k,subset", [("polynomial", 3, range(256)), ("full_table", 2, [0, 1])]
    )
    def test_memory_follows_the_block_not_the_samples(self, kind, k, subset):
        # GF(2^8), m=4: 10,000 samples x 256 table cells, or x 1024 seed
        # digits, would take 20 or 82 MB at once; a run holds one block's
        # arrays, the basis, one chunk of the draw stream (about 3 MB at
        # most) and one float per sample.
        fam = HashFamily(kind, FieldParams.create(2, 8), k, 4)
        tracemalloc.start()
        try:
            expected_max_bucket(
                fam, list(subset), mode="sampled", n_samples=10_000, budget=10**8
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000 * 8 + 2**23

    def test_one_table_per_block_and_one_basis_per_run(self, monkeypatch):
        # Each block goes through the module global, so a tracer that wraps
        # it sees every block; the basis is built once.
        fam = poly_family(FieldParams.create(2, 4), 3, 2)
        calls, bases, table, basis = [], [], extraction.hash_table, families._basis

        def counting(family, digits, inputs):
            calls.append(len(digits))
            return table(family, digits, inputs)

        def counting_basis(family, xs):
            bases.append(len(xs))
            return basis(family, xs)

        monkeypatch.setattr(extraction, "hash_table", counting)
        monkeypatch.setattr(families, "_basis", counting_basis)
        monkeypatch.setattr(extraction, "BLOCK", 100)
        subset = [3, 0, 9, 12, 5]
        expected_max_bucket(fam, subset, mode="sampled", n_samples=130)
        assert calls == [8] * 16 + [2]  # 12 seed digits per seed
        assert bases == [5]
        calls.clear()
        expected_max_bucket(fam, range(16), mode="sampled", n_samples=130)
        assert calls == [6] * 21 + [4]  # 16 table cells per seed
        calls.clear()
        bases.clear()
        expected_max_bucket(fam, range(16))  # exact: the cosets share it too
        assert max(calls) == 100 and bases == [16]


class TestLargestBuckets:
    """One sort and the run lengths of the flattened rows give each row's
    largest bucket, as the per-column walk did."""

    @pytest.mark.parametrize(
        "rows,cols,values",
        [(1, 1, 1), (5, 1, 4), (1, 9, 1), (6, 9, 1), (7, 9, 2), (40, 13, 3),
         (33, 32, 16), (64, 256, 16), (200, 8, 1000)],
    )
    def test_matches_the_column_walk(self, rows, cols, values):
        # Ties, one column, all-equal rows and all-distinct rows.
        rng = np.random.default_rng([rows, cols, values])
        table = rng.integers(0, values, size=(rows, cols))
        table[0] = table[0, 0]  # an all-equal row
        got = extraction._largest_buckets(table)
        assert got.dtype == np.int64
        assert np.array_equal(got, column_loop_largest_buckets(table))

    def test_distinct_and_tied_rows(self):
        table = np.array([[0, 1, 2, 3], [3, 3, 1, 1], [2, 0, 2, 2], [7, 7, 7, 7]])
        assert extraction._largest_buckets(table).tolist() == [1, 2, 3, 4]


class TestSumCheck:
    """Extraction checks its groups' exact total once per distinct cell value,
    with summed counts: the total and the verdict of one counted term per
    group cell."""

    @staticmethod
    def _per_cell(cols, counts):
        return measures._check_sum(cols.T.ravel(), np.repeat(counts, len(cols)))

    @staticmethod
    def _joints():
        field = FieldParams.create(2, 4)
        probs = np.random.default_rng(3).dirichlet(np.full(field.size, 0.3))
        side = np.random.default_rng(4).dirichlet(np.ones(3), size=field.size)
        for k, m, sc in [(2, 1, None), (3, 2, None), (3, 2, side)]:
            yield extract_joint(poly_family(field, k, m), make_source(field, probs, sc)).joint

    def test_same_total_as_every_cell(self):
        shared = []
        for joint in self._joints():
            cols, _, counts = joint._groups
            assert extraction._check_cells(cols, counts) == self._per_cell(cols, counts)
            shared.append(len(np.unique(cols)) < cols.size)
        assert shared == [False, True, True]  # groups share cell values

    @pytest.mark.parametrize("off", [1e-6, -1e-6])
    def test_same_refusal_as_every_cell(self, off):
        for joint in self._joints():
            cols, _, counts = joint._groups
            cols = cols * (1.0 + off)
            with pytest.raises(ValueError, match="not 1") as per_cell:
                self._per_cell(cols, counts)
            with pytest.raises(ValueError) as distinct:
                extraction._check_cells(cols, counts)
            assert str(distinct.value) == str(per_cell.value)


    @pytest.mark.parametrize("off", [0.0, 1e-6, -1e-6])
    @pytest.mark.parametrize("block", [1, 7, 2**14])
    def test_chunks_match_the_whole_array_check(self, monkeypatch, block, off):
        # BLOCK groups per chunk: the same exact total, or the same refusal.
        monkeypatch.setattr(extraction, "BLOCK", block)
        for joint in self._joints():
            cols, _, counts = joint._groups
            cols = cols * (1.0 + off)
            got = outcome(extraction._check_cells, cols, counts)
            assert got == outcome(whole_check, cols, counts)
            if off == 0:
                assert abs(float(got) - 1.0) < 1e-15
            else:
                assert got[1].endswith(", not 1")


class TestNoDenseJoint:
    """An extracted joint is its column groups: no run path builds the dense
    U x seeds [x Z] array, which ``probs`` builds (and caches) on first read."""

    @pytest.mark.parametrize("side", [None, [[0.25, 0.75], [0.5, 0.5]] * 4])
    def test_runs_read_only_the_groups(self, monkeypatch, side):
        results, extract = [], harness.extract_joint

        def capturing(*args, **kwargs):
            results.append(extract(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(harness, "extract_joint", capturing)
        raw = {
            "family": {"q": 2, "n": 3, "k": 3, "m": 2},
            "source": {"preset": "geometric", "param": 0.8},
            "alphas": [1.5, 2, 3, "inf"],
        }
        if side is not None:
            raw["side_channel"] = side
        assert run_verify(parse_config(dict(raw, epsilons=[0.1, 0.3])))["all_satisfied"]
        run_sweep(parse_config(dict(raw, sweep={"m_values": [1, 2, 3]})))
        assert len(results) == 1 + 3
        for result in results:
            assert result.has_side_channel == (side is not None)
            assert "probs" not in vars(result.joint)

    @pytest.mark.parametrize("side", [None, SIDE_ROWS_8[:, ::-1]])
    def test_divergence_readers_read_only_the_groups(self, gf8, side):
        result = extract_joint(poly_family(gf8, 3, 2), uniform_source(gf8, side))
        empirical_divergences(result.joint, [Alpha(2.0), Alpha.infinity()])
        for a in (Alpha.one(), Alpha(1.5), Alpha.infinity()):
            measures.conditional_divergence(result.joint, a)
            measures.joint_divergence_from_uniform(result.joint, a)
        assert result.has_side_channel == (side is not None)
        assert "probs" not in vars(result.joint)
        assert result.joint.probs.ndim == (2 if side is None else 3)

    def test_extraction_holds_less_than_the_dense_joint(self):
        # Polynomial GF(2^6), k=3, m=3: 2^18 seeds x 8 outputs, so the dense
        # joint alone would be 16 MiB.
        field = FieldParams.create(2, 6)
        family = poly_family(field, 3, 3)
        probs = np.random.default_rng(0).dirichlet(np.full(field.size, 0.3))
        source = make_source(field, probs)
        tracemalloc.start()
        try:
            result = extract_joint(family, source, budget=30_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < family.output_size * family.seed_space_size * 8
        assert "probs" not in vars(result.joint)


class TestSourceValidation:
    def test_side_channel_row_count_checked(self, gf4):
        rows = np.array([[0.5, 0.5]] * 3)
        with pytest.raises(ValueError):
            uniform_source(gf4, side_channel=rows)

    def test_side_channel_row_sums_checked(self, gf4):
        rows = np.array([[0.5, 0.4]] * 4)
        with pytest.raises(ValueError):
            uniform_source(gf4, side_channel=rows)

    def test_stores_a_read_only_copy_of_the_side_channel(self, gf4):
        # The caller's rows stay writeable; the source keeps its own frozen copy.
        rows = np.array([[0.25, 0.75]] * 4)
        src = uniform_source(gf4, side_channel=rows)
        assert rows.flags.writeable
        assert not src.side_channel.flags.writeable
        assert src.side_channel.tobytes() == rows.tobytes()
        assert not np.shares_memory(src.side_channel, rows)
        rows[0] = [0.5, 0.5]
        assert src.side_channel[0].tolist() == [0.25, 0.75]

    def test_conditional_entropy_requires_side_channel(self, gf4):
        src = uniform_source(gf4)
        with pytest.raises(ValueError):
            src.conditional_entropy(Alpha(2.0))


class TestSourceEntropies:
    # Every row sums one ulp over 1, within NORMALIZATION_TOL.
    ROWS = np.array([[0.1, 0.9000000000000001]] * 16)

    def test_rounding_negative_conditional_entropy_reads_0(self):
        field = FieldParams.create(2, 4)
        src = make_source(field, np.eye(16)[3], self.ROWS)
        a = Alpha(2.0)
        assert -SLACK <= measures.conditional_renyi_entropy(src.xz_joint(), a) < 0
        assert src.conditional_entropy(a) == 0.0

    def test_point_mass_entropy_keeps_its_bits(self, gf4):
        # -0.0 is not below 0, so the point mass still reads -0.0.
        h = make_source(gf4, np.eye(4)[1]).entropy(Alpha(2.0))
        assert h == 0.0 and math.copysign(1.0, h) == -1.0

    def test_only_rounding_is_forgiven(self):
        assert _nonnegative(-SLACK) == 0.0
        assert _nonnegative(-2 * SLACK) == -2 * SLACK
        assert _nonnegative(0.5) == 0.5


class TestEmpiricalDivergences:
    def test_full_table_seed_averaged_tv_worked_value(self, gf4):
        # Uniform source, all 16 tables of 4 inputs into 2 buckets: the
        # seed-averaged TV is E|Bin(4, 1/2) - 2| / 4 = 0.1875 exactly.
        fam = HashFamily("full_table", gf4, 2, 1)
        result = extract_joint(fam, uniform_source(gf4))
        table = empirical_divergences(
            result.joint, [Alpha(1.5), Alpha(2.0), Alpha.infinity()]
        )
        assert table.tv_to_uniform == pytest.approx(0.1875, abs=1e-12)
        assert table.kl_to_uniform > 0.0
        for row in table.rows:
            assert row.conditional > 0.0
            assert row.joint >= row.conditional - 1e-12

    def test_nondecreasing_in_alpha(self, gf8):
        fam = poly_family(gf8, 2, 2)
        result = extract_joint(
            fam, make_source(gf8, [0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05])
        )
        grid = [Alpha(1.25), Alpha(1.5), Alpha(2.0), Alpha(3.0), Alpha.infinity()]
        table = empirical_divergences(result.joint, grid)
        joints = [r.joint for r in table.rows]
        conds = [r.conditional for r in table.rows]
        for lo, hi in zip(joints, joints[1:]):
            assert hi >= lo - 1e-9
        for lo, hi in zip(conds, conds[1:]):
            assert hi >= lo - 1e-9

    def test_small_instance_against_flat_oracle(self, gf4):
        fam = poly_family(gf4, 2, 1)
        src = make_source(gf4, [0.4, 0.3, 0.2, 0.1])
        result = extract_joint(fam, src)
        arr = result.joint.probs
        a = 2.0
        seeds = fam.seed_space_size
        total = sum(
            arr[u, s] ** a * ((1 / seeds) / 2) ** (1 - a)
            for u in range(2)
            for s in range(seeds)
        )
        expected = math.log2(total) / (a - 1)
        table = empirical_divergences(result.joint, [Alpha(a)])
        assert table.rows[0].joint == pytest.approx(expected, abs=1e-12)


def oracle_full_table_max_load(n_items, n_buckets):
    """E[max load] over all assignments of n_items into n_buckets, exactly."""
    total = 0
    count = 0
    for table in itertools.product(range(n_buckets), repeat=n_items):
        counts = [0] * n_buckets
        for b in table:
            counts[b] += 1
        total += max(counts)
        count += 1
    return total / count


class TestExpectedMaxBucket:
    def test_singleton_subset(self, gf8):
        fam = poly_family(gf8, 2, 2)
        est = expected_max_bucket(fam, [3])
        assert est.mean == 1.0

    @pytest.mark.parametrize("m", [1, 2])
    def test_full_table_matches_balls_into_bins(self, m):
        f = FieldParams.create(2, 2)
        fam = HashFamily("full_table", f, 2, m)
        est = expected_max_bucket(fam, range(f.size))
        assert est.mean == pytest.approx(oracle_full_table_max_load(4, 2**m), abs=1e-12)

    def test_polynomial_family_worked_value(self, gf8):
        # Degree-1 seeds are bijections (max load 2 into 4 buckets); the 8
        # constant seeds pile all 8 elements into one bucket.
        fam = poly_family(gf8, 2, 2)
        est = expected_max_bucket(fam, range(gf8.size))
        assert est.mean == pytest.approx((8 * 8 + 56 * 2) / 64)

    def test_subset_permutation_invariance(self, gf8):
        fam = poly_family(gf8, 2, 2)
        subset = list(range(5))
        a = expected_max_bucket(fam, subset)
        b = expected_max_bucket(fam, list(reversed(subset)))
        assert a.mean == b.mean

    @pytest.mark.parametrize(
        "kind,q,n,k,m", [f for f in COSET_FAMILIES if _family(*f).seed_space_size <= 2**12]
    )
    def test_exact_mode_matches_every_seed(self, kind, q, n, k, m):
        # One seed per coset of the subset's translate group, weighted by the
        # group's size: the same float as the mean over every seed.
        fam = _family(kind, q, n, k, m)
        field, seeds = fam.field, fam.seed_space_size
        rng = np.random.default_rng([q, n, k, m])
        for size in sorted({2, min(3, field.size), field.size}):
            subset = sorted(rng.choice(field.size, size, replace=False).tolist())
            table = hash_table(fam, np.arange(seeds), subset)
            loads = [max(Counter(row).values()) for row in table.tolist()]
            assert expected_max_bucket(fam, subset).mean == math.fsum(loads) / seeds

    def test_sampled_mode_reproducible(self, gf8):
        fam = poly_family(gf8, 2, 2)
        a = expected_max_bucket(fam, range(gf8.size), mode="sampled", n_samples=200, rng_seed=42)
        b = expected_max_bucket(fam, range(gf8.size), mode="sampled", n_samples=200, rng_seed=42)
        assert a.mean == b.mean
        assert a.stderr == b.stderr
        assert a.stderr is not None and a.stderr > 0

    @pytest.mark.parametrize("kind,k,m", [("polynomial", 3, 2), ("full_table", 2, 1)])
    def test_sampled_mode_matches_evaluate_on_same_draws(self, gf8, kind, k, m):
        fam = HashFamily(kind, gf8, k, m)
        subset = [6, 1, 3, 7, 0]
        est = expected_max_bucket(fam, subset, mode="sampled", n_samples=300, rng_seed=11)
        draws = np.random.default_rng(11).integers(0, fam.seed_space_size, size=300)
        vals = np.array(
            [max(Counter(evaluate(fam, int(s), x) for x in subset).values()) for s in draws],
            dtype=float,
        )
        assert est.mean == float(vals.mean())
        assert est.stderr == float(vals.std(ddof=1) / math.sqrt(300))

    def test_sampled_mode_beyond_int64_seed_space(self):
        # 2^64 seeds: integer draws would overflow int64, so digits are drawn.
        f = FieldParams.create(2, 4)
        fam = HashFamily("full_table", f, 2, 4)
        subset = [0, 3, 5, 7, 9, 14]
        est = expected_max_bucket(fam, subset, mode="sampled", n_samples=200, rng_seed=8)
        again = expected_max_bucket(fam, subset, mode="sampled", n_samples=200, rng_seed=8)
        assert (est.mean, est.stderr) == (again.mean, again.stderr)
        digits = np.random.default_rng(8).integers(0, 2, size=(200, fam.seed_digits))
        seeds = [sum(d * 2**i for i, d in enumerate(row)) for row in digits.tolist()]
        vals = np.array(
            [max(Counter(evaluate(fam, s, x) for x in subset).values()) for s in seeds],
            dtype=float,
        )
        assert est.mean == float(vals.mean())
        assert est.stderr == float(vals.std(ddof=1) / math.sqrt(200))

    @pytest.mark.parametrize(
        "kind,n,k,m,mode,rows,pinned",
        [("polynomial", 8, 3, 4, "sampled", 1500, 87_072),
         ("polynomial", 3, 2, 2, "exact", None, 688),
         ("full_table", 3, 2, 2, "sampled", 40, 1_216),
         ("full_table", 2, 2, 1, "exact", None, 128)],
    )
    def test_budget_is_the_table_charge(self, kind, n, k, m, mode, rows, pinned):
        # Sampled: rows x (D seed digits + |subset|) + D x |subset| x m,
        # hash_table's digit matrix, output table and basis; the first case is
        # the benchmark's sampled bucket.  Exact: the coset charge with one
        # table cell per subset element (coset_charge), not the seed space.
        fam = HashFamily(kind, FieldParams.create(2, n), k, m)
        subset = list(range(min(32, fam.field.size)))
        d = fam.seed_digits
        if mode == "exact":
            charge = coset_charge(fam, subset, len(subset))
        else:
            charge = rows * (d + len(subset)) + d * len(subset) * m
        assert charge == pinned

        def run(budget):
            return expected_max_bucket(
                fam, subset, mode=mode, n_samples=rows or 1000, budget=budget
            )

        with pytest.raises(BudgetExceededError, match=f"exceeds budget {charge - 1}$"):
            run(charge - 1)
        assert run(charge).mean >= 1  # every row's largest bucket holds an input

    def test_exact_bucket_with_a_long_seed(self):
        # Inputs {0, 1} of GF(2), m=1, k=100,000: 100,000 seed digits, whose
        # basis and pivot search take numpy steps, not one per digit.  Two
        # distinct inputs collide with probability 1/2.
        fam = HashFamily("polynomial", FieldParams.create(2, 1), 100_000, 1)
        assert expected_max_bucket(fam, [0, 1]) == (1.5, None)

    def test_translates_are_counted_not_charged(self):
        # Inputs {0, 1} of GF(2^8), k=3, m=4: 16 representatives of 2^20 seeds
        # each.  Two inputs collide with probability 2^-4.
        fam = HashFamily("polynomial", FieldParams.create(2, 8), 3, 4)
        assert expected_max_bucket(fam, [0, 1]).mean == 1 + 1 / 16

    def test_empty_subset_rejected(self, gf8):
        fam = poly_family(gf8, 2, 2)
        with pytest.raises(ValueError):
            expected_max_bucket(fam, [])

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_subset_outside_field_rejected(self, gf8, mode):
        fam = poly_family(gf8, 2, 2)
        with pytest.raises(ValueError, match=r"outside \[0, 8\)"):
            expected_max_bucket(fam, [0, 8], mode=mode)
