import itertools
import math
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
from renyi_extract import measures
from renyi_extract.bounds import SLACK
from renyi_extract.errors import BudgetExceededError
from renyi_extract.extraction import _nonnegative
from renyi_extract.families import evaluate
from renyi_extract.fields import FieldParams

from conftest import make_source, poly_family, uniform_source

SIDE_ROWS_8 = np.array([[0.8, 0.2], [0.3, 0.7]] * 4)


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


class TestSourceValidation:
    def test_side_channel_row_count_checked(self, gf4):
        rows = np.array([[0.5, 0.5]] * 3)
        with pytest.raises(ValueError):
            uniform_source(gf4, side_channel=rows)

    def test_side_channel_row_sums_checked(self, gf4):
        rows = np.array([[0.5, 0.4]] * 4)
        with pytest.raises(ValueError):
            uniform_source(gf4, side_channel=rows)

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
            result, [Alpha(1.5), Alpha(2.0), Alpha.infinity()]
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
        table = empirical_divergences(result, grid)
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
        table = empirical_divergences(result, [Alpha(a)])
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
        assert (est.n_seeds, est.rng_seed) == (300, 11)

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

    def test_empty_subset_rejected(self, gf8):
        fam = poly_family(gf8, 2, 2)
        with pytest.raises(ValueError):
            expected_max_bucket(fam, [])

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_subset_outside_field_rejected(self, gf8, mode):
        fam = poly_family(gf8, 2, 2)
        with pytest.raises(ValueError, match=r"outside \[0, 8\)"):
            expected_max_bucket(fam, [0, 8], mode=mode)
