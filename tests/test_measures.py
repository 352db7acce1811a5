import collections
import itertools
import math
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bits,
    expanded_groups,
    lexsorted_groups,
    make_source,
    outcome,
    output_joint,
    poly_family,
    table_keys,
    ungrouped_table,
    walk_conditional,
    walk_conditional_entropies,
    walk_counted_fsum,
    walk_divergence,
    walk_joint,
    walk_renyi_divergence,
    walk_renyi_entropy,
    walk_table,
    walk_tv_distance,
)

from renyi_extract import _divergence, _ranking, measures
from renyi_extract.bounds import SLACK
from renyi_extract.config import parse_config
from renyi_extract.extraction import extract_joint
from renyi_extract.families import BLOCK, HashFamily, evaluate
from renyi_extract.fields import FieldParams
from renyi_extract.measures import (
    Alpha,
    JointPmf,
    Pmf,
    conditional_divergence,
    conditional_renyi_entropy,
    empirical_divergences,
    joint_divergence_from_uniform,
    renyi_divergence,
    renyi_entropy,
    tilde_conditional_entropy,
    tv_distance,
)

ALPHA_GRID = [Alpha.one(), Alpha(1.5), Alpha(2.0), Alpha(3.0), Alpha.infinity()]


def pmfs(min_size=2, max_size=8, base_q=2):
    return (
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0),
            min_size=min_size,
            max_size=max_size,
        )
        .map(lambda w: Pmf(np.array(w) / sum(w), base_q))
    )


class TestAlpha:
    def test_rejects_values_at_or_below_one(self):
        with pytest.raises(ValueError):
            Alpha(0.5)
        with pytest.raises(ValueError):
            Alpha(1.0 + 1e-9)  # too close to 1: use the KL limit

    def test_limits(self):
        assert Alpha.one().is_one
        assert Alpha.infinity().is_infinite
        assert Alpha(2.0).is_finite_order


class TestPmfValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.6]), 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Pmf(np.array([1.5, -0.5]), 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        # A NaN or infinite total compares False against any tolerance.
        with pytest.raises(ValueError):
            Pmf(np.array([bad, 1.0]), 2)
        with pytest.raises(ValueError):
            JointPmf(np.array([[bad, 0.5], [0.25, 0.25]]), 2)

    @pytest.mark.parametrize(
        "cls,probs",
        [(Pmf, [0.1, 0.2, 0.3, 0.4]), (JointPmf, [[0.1, 0.2], [0.3, 0.4]])],
        ids=["Pmf", "JointPmf"],
    )
    def test_stores_a_read_only_copy(self, cls, probs):
        # The caller's array stays writeable; the pmf keeps its own frozen copy.
        arr = np.array(probs)
        pmf = cls(arr, 2)
        assert arr.flags.writeable
        assert not pmf.probs.flags.writeable
        assert pmf.probs.dtype == arr.dtype and pmf.probs.shape == arr.shape
        assert pmf.probs.tobytes() == arr.tobytes()
        assert not np.shares_memory(pmf.probs, arr)
        arr.flat[0] = 0.5
        assert pmf.probs.flat[0] == 0.1

    def test_joint_is_the_xz_pmf_only(self, gf4, monkeypatch):
        # An (X, Z) joint is checked, not grouped: only extraction groups.
        with pytest.raises(ValueError, match="2 axes"):
            JointPmf(np.full((2, 2, 2), 1 / 8), 2)
        monkeypatch.setattr(_ranking, "_group_columns", None)  # any call fails
        source = make_source(gf4, [0.1, 0.2, 0.3, 0.4], [[0.5, 0.5]] * 4)
        assert source.xz_joint().probs.shape == (4, 2)
        assert not hasattr(source.xz_joint(), "_groups")


class TestRenyiEntropy:
    @pytest.mark.parametrize("a", ALPHA_GRID)
    def test_uniform_gives_m(self, a):
        p = Pmf.uniform(8, base_q=2)
        assert renyi_entropy(p, a) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("a", ALPHA_GRID)
    def test_point_mass_gives_zero(self, a):
        p = Pmf(np.array([1.0, 0.0, 0.0]), 2)
        assert renyi_entropy(p, a) == pytest.approx(0.0, abs=1e-12)

    def test_collision_entropy_worked_value(self):
        p = Pmf(np.array([0.75, 0.25]), 2)
        assert renyi_entropy(p, Alpha(2.0)) == pytest.approx(
            -math.log2(10 / 16), abs=1e-12
        )

    @given(pmfs())
    @settings(max_examples=60)
    def test_nonincreasing_in_alpha(self, p):
        values = [renyi_entropy(p, a) for a in ALPHA_GRID]
        for lo, hi in zip(values[1:], values):
            assert lo <= hi + 1e-9

    @given(pmfs())
    @settings(max_examples=60)
    def test_scaled_entropy_nondecreasing_in_alpha(self, p):
        # (alpha-1)/alpha * H_alpha grows with alpha; ratio 1 at infinity.
        grid = [(1.5, Alpha(1.5)), (2.0, Alpha(2.0)), (3.0, Alpha(3.0))]
        values = [(a - 1) / a * renyi_entropy(p, al) for a, al in grid]
        values.append(renyi_entropy(p, Alpha.infinity()))
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-9

    @given(pmfs(), st.permutations(range(5)))
    @settings(max_examples=40)
    def test_permutation_invariance(self, p, perm):
        idx = [i % p.support_size for i in perm[: p.support_size]]
        if sorted(idx) != list(range(p.support_size)):
            return
        shuffled = Pmf(p.probs[idx], p.base_q)
        for a in ALPHA_GRID:
            assert renyi_entropy(shuffled, a) == pytest.approx(
                renyi_entropy(p, a), abs=1e-12
            )


class TestRenyiDivergence:
    @pytest.mark.parametrize("a", ALPHA_GRID)
    def test_self_divergence_zero(self, a):
        p = Pmf(np.array([0.3, 0.3, 0.4]), 2)
        assert renyi_divergence(p, p, a) == pytest.approx(0.0, abs=1e-12)

    @given(pmfs(min_size=4, max_size=4))
    @settings(max_examples=60)
    def test_uniform_reference_identity(self, p):
        uniform = Pmf.uniform(4, base_q=2)
        for a in ALPHA_GRID:
            d = renyi_divergence(p, uniform, a)
            assert d == pytest.approx(2.0 - renyi_entropy(p, a), abs=1e-12)

    def test_infinity_order_max_log_ratio(self):
        p = Pmf(np.array([1.0, 0.0]), 2)
        r = Pmf(np.array([0.5, 0.5]), 2)
        assert renyi_divergence(p, r, Alpha.infinity()) == pytest.approx(1.0)

    def test_absolute_continuity_failure_gives_inf(self):
        p = Pmf(np.array([0.5, 0.5]), 2)
        r = Pmf(np.array([1.0, 0.0]), 2)
        for a in ALPHA_GRID:
            assert renyi_divergence(p, r, a) == math.inf

    @given(pmfs(min_size=5, max_size=5), pmfs(min_size=5, max_size=5))
    @settings(max_examples=60)
    def test_monotone_in_alpha(self, p, r):
        values = [renyi_divergence(p, r, a) for a in ALPHA_GRID]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-9


class TestTvDistance:
    def test_identical(self):
        p = Pmf(np.array([0.2, 0.8]), 2)
        assert tv_distance(p, p) == 0.0

    def test_disjoint(self):
        assert tv_distance(Pmf(np.array([1.0, 0.0]), 2), Pmf(np.array([0.0, 1.0]), 2)) == 1.0

    def test_worked_value(self):
        p = Pmf(np.array([0.75, 0.25]), 2)
        r = Pmf(np.array([0.5, 0.5]), 2)
        assert tv_distance(p, r) == pytest.approx(0.25)


class TestConditionalEntropies:
    def test_independent_reduces_to_marginal(self):
        px = np.array([0.7, 0.3])
        pz = np.array([0.4, 0.6])
        j = JointPmf(np.outer(px, pz), 2)
        for a in (Alpha(1.5), Alpha(2.0), Alpha(3.0)):
            expected = renyi_entropy(Pmf(px, 2), a)
            assert conditional_renyi_entropy(j, a) == pytest.approx(expected, abs=1e-12)
            assert tilde_conditional_entropy(j, a) == pytest.approx(expected, abs=1e-12)

    def test_diagonal_joint_gives_zero(self):
        j = JointPmf(np.diag([0.5, 0.5]), 2)
        assert conditional_renyi_entropy(j, Alpha(2.0)) == pytest.approx(0.0, abs=1e-12)
        assert tilde_conditional_entropy(j, Alpha(2.0)) == pytest.approx(0.0, abs=1e-12)

    def test_worked_conditional_value(self):
        j = JointPmf(np.array([[0.4, 0.1], [0.1, 0.4]]), 2)
        expected = -math.log2(0.5 * (0.64 + 0.04) + 0.5 * (0.04 + 0.64))
        assert conditional_renyi_entropy(j, Alpha(2.0)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_deterministic_per_z_tilde_is_zero(self):
        j = JointPmf(np.array([[0.3, 0.0], [0.0, 0.7]]), 2)
        assert tilde_conditional_entropy(j, Alpha(2.5)) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_finite_order(self):
        j = JointPmf(np.array([[0.4, 0.1], [0.1, 0.4]]), 2)
        with pytest.raises(ValueError):
            conditional_renyi_entropy(j, Alpha.infinity())
        with pytest.raises(ValueError):
            tilde_conditional_entropy(j, Alpha.one())


class TestConditionalDivergence:
    def test_uniform_conditionals_give_zero(self):
        j = output_joint(np.full((4, 3), 1 / 12), 2)
        for a in ALPHA_GRID:
            assert conditional_divergence(j, a) == pytest.approx(0.0, abs=1e-12)

    def test_seed_independent_joint(self):
        pu = np.array([0.5, 0.25, 0.125, 0.125])
        j = output_joint(np.outer(pu, [0.5, 0.5]), 2)
        uniform = Pmf.uniform(4, 2)
        for a in ALPHA_GRID:
            expected = renyi_divergence(Pmf(pu, 2), uniform, a)
            assert conditional_divergence(j, a) == pytest.approx(expected, abs=1e-12)

    def test_identity_m_minus_tilde_entropy(self):
        rng = np.random.default_rng(7)
        arr = rng.random((4, 6))
        arr /= arr.sum()
        j, xz = output_joint(arr, 2), JointPmf(arr, 2)
        for a in (Alpha(1.5), Alpha(2.0), Alpha(2.5)):
            assert conditional_divergence(j, a) == pytest.approx(
                2.0 - tilde_conditional_entropy(xz, a), abs=1e-12
            )


class TestJointDivergenceFromUniform:
    def test_product_of_uniform_and_marginal_gives_zero(self):
        ps = np.array([0.2, 0.3, 0.5])
        j = output_joint(np.outer([0.25] * 4, ps), 2)
        for a in ALPHA_GRID:
            assert joint_divergence_from_uniform(j, a) == pytest.approx(0.0, abs=1e-12)

    def test_dominates_conditional_divergence(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            arr = rng.random((4, 5))
            arr /= arr.sum()
            j = output_joint(arr, 2)
            for a in ALPHA_GRID:
                assert conditional_divergence(j, a) <= joint_divergence_from_uniform(
                    j, a
                ) + 1e-12

    def test_against_flat_direct_summation_oracle(self):
        arr = np.array([[0.15, 0.05], [0.35, 0.45]])
        j = output_joint(arr, 2)
        a = 2.0
        marginal = arr.sum(axis=0)
        total = 0.0
        for u in range(2):
            for s in range(2):
                q_ref = marginal[s] / 2
                total += arr[u, s] ** a * q_ref ** (1 - a)
        expected = math.log2(total) / (a - 1)
        assert joint_divergence_from_uniform(j, Alpha(a)) == pytest.approx(
            expected, abs=1e-12
        )


def _old_renyi_entropy(p, a):
    """The three-branch formula renyi_entropy had before it shared D_alpha's."""
    probs = p.probs[p.probs > 0]
    lnq = math.log(p.base_q)
    if a.is_one:
        return -math.fsum(pi * math.log(pi) for pi in probs) / lnq
    if a.is_infinite:
        return -math.log(probs.max()) / lnq
    s = math.fsum(pi ** a.value for pi in probs)
    return math.log(s) / ((1.0 - a.value) * lnq)


class TestRenyiEntropyBitwiseOracle:
    """H_alpha as minus D_alpha against the counting measure must give the
    same bits as its own three-branch formula, sign of zero included."""

    @given(st.sampled_from([2, 3, 5]).flatmap(lambda q: pmfs(min_size=1, base_q=q)))
    @settings(max_examples=200)
    def test_matches_three_branch_formula(self, p):
        for a in ALPHA_GRID + [Alpha(1.25), Alpha(7.5), Alpha(64.0)]:
            assert renyi_entropy(p, a) == _old_renyi_entropy(p, a)

    @pytest.mark.parametrize("a", ALPHA_GRID)
    def test_point_mass_gives_negative_zero(self, a):
        for probs in ([1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]):
            p = Pmf(np.array(probs), 3)
            h = renyi_entropy(p, a)
            assert h == _old_renyi_entropy(p, a) == 0.0
            assert math.copysign(1.0, h) == -1.0


class TestOrderTooLargeForFloats:
    """A finite order whose power sum leaves floating point is refused, not
    reported as NaN or raised as OverflowError."""

    A = Alpha(2000.0)

    def test_renyi_entropy(self):
        with pytest.raises(ValueError, match="too large"):
            renyi_entropy(Pmf(np.array([0.5, 0.25, 0.25]), 2), self.A)

    def test_renyi_divergence(self):
        p, r = Pmf(np.array([0.5, 0.25, 0.25]), 2), Pmf.uniform(3, 2)
        with pytest.raises(ValueError, match="too large"):
            renyi_divergence(p, r, self.A)

    def test_undominated_is_infinite_even_past_an_overflow(self):
        # The first term overflows; the zero reference mass comes after it.
        p, r = Pmf(np.array([0.4, 0.3, 0.3]), 2), Pmf(np.array([0.25, 0.75, 0.0]), 2)
        assert renyi_divergence(p, r, self.A) == math.inf

    def test_conditional_divergence(self):
        j = output_joint(np.array([[0.4, 0.1], [0.1, 0.4]]), 2)
        with pytest.raises(ValueError, match="too large"):
            conditional_divergence(j, self.A)

    @pytest.mark.parametrize("entropy", [conditional_renyi_entropy, tilde_conditional_entropy])
    def test_conditional_entropies(self, entropy):
        # Every (1/16)^300 underflows to 0, so each column's power sum is 0.
        j = JointPmf(np.full((16, 2), 1 / 32), 2)
        with pytest.raises(ValueError, match="too large"):
            entropy(j, Alpha(300.0))


def _terms(bound):
    """Finite floats of magnitude at most bound: negative, subnormal and both
    zeros included."""
    return st.one_of(
        st.floats(-bound, bound, allow_nan=False),
        st.floats(-1e-300, 1e-300),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    )


def _signed(x):
    return x, math.copysign(1.0, x)


class TestCountedFsum:
    """count x term summed through each count's binary digits must give the
    correctly rounded exact sum, so the bits of fsum over explicit copies."""

    @given(st.lists(st.tuples(_terms(1e290), st.integers(0, 300)), max_size=12))
    @settings(max_examples=300)
    def test_matches_fsum_over_copies(self, pairs):
        terms, counts = [t for t, _ in pairs], [c for _, c in pairs]
        copies = math.fsum(
            itertools.chain.from_iterable(itertools.repeat(t, c) for t, c in pairs)
        )
        assert _signed(measures._counted_fsum(terms, counts)) == _signed(copies)

    @given(st.lists(st.tuples(_terms(1e280), st.integers(0, 2**62)), max_size=12))
    @settings(max_examples=300)
    def test_matches_exact_rational_sum(self, pairs):
        terms, counts = [t for t, _ in pairs], [c for _, c in pairs]
        exact = float(sum(Fraction(t) * c for t, c in pairs))
        assert measures._counted_fsum(terms, counts) == exact

    @given(
        st.floats(1e300, 1e308),
        st.integers(2**30, 2**62),
        st.sampled_from([1.0, -1.0]),
        st.lists(st.tuples(_terms(1.0), st.integers(0, 300)), max_size=4),
    )
    @settings(max_examples=100)
    def test_product_beyond_floats_overflows(self, t, c, sign, rest):
        # The term is finite, count x term is not: the sum is an infinity
        # of the term's sign or fsum's OverflowError, never a finite value.
        terms = [sign * t] + [x for x, _ in rest]
        counts = [c] + [n for _, n in rest]
        with pytest.raises(OverflowError):
            float(sum(Fraction(x) * n for x, n in zip(terms, counts)))
        try:
            total = measures._counted_fsum(terms, counts)
        except OverflowError:
            return
        assert total == sign * math.inf

    def test_streamed_sum_is_one_fsum_over_every_term(self):
        # 3 BLOCKs and 7 terms stream as four chunks into one fsum, which
        # gives the bits of fsum over the whole expanded list (the walk).
        rng = np.random.default_rng(5)
        n = 3 * BLOCK + 7
        terms = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
        counts = rng.integers(0, 2**40, n)
        counts[::5], counts[1::7], counts[2::11] = 0, 1, 2**62 - 1
        assert {0, 1, 2**62 - 1} <= set(counts.tolist())
        got = measures._counted_fsum(terms, counts)
        assert _signed(got) == _signed(walk_counted_fsum(terms, counts))

    @pytest.mark.parametrize(
        "term, count", [(1e308, 2), (1e308, 3), (1e300, 2**28), (1e300, 2**62 - 1)]
    )
    def test_streamed_sum_beyond_floats(self, term, count):
        # count x term leaves floating point in the last chunk: the streamed
        # sum gives the inf or OverflowError of one fsum over the whole list,
        # and the sum check reads either as a total of inf.
        terms, counts = np.full(3 * BLOCK + 7, 2.0**-60), np.ones(3 * BLOCK + 7, int)
        terms[-1], counts[-1] = term, count
        streamed = outcome(measures._counted_fsum, terms, counts)
        assert streamed == outcome(walk_counted_fsum, terms, counts)
        assert streamed in ("inf", (OverflowError, "intermediate overflow in fsum"))
        with pytest.raises(ValueError, match="^probabilities sum to inf, not 1$"):
            measures._check_sum(terms, counts)

    def test_streamed_sum_holds_one_chunk_of_terms(self):
        # 8 BLOCKs of terms, each counted 255 times (8 set bits), expand to
        # 2^20 floats, 52 MB at the peak of one whole list; the stream holds
        # one BLOCK's 2^17 floats, about 4 MB, at a time.
        rng = np.random.default_rng(6)
        terms, counts = rng.random(8 * BLOCK), np.full(8 * BLOCK, 255)
        tracemalloc.start()
        try:
            total = measures._counted_fsum(terms, counts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total == walk_counted_fsum(terms, counts)
        assert peak < 8 * 2**20

    def test_without_counts_each_term_once(self):
        assert measures._counted_fsum([0.1, 0.2, 0.3]) == math.fsum([0.1, 0.2, 0.3])
        assert measures._counted_fsum([], []) == 0.0

    def test_counted_power_sum_beyond_floats_is_refused(self):
        # One finite term, 2^1000, standing for one cell, then for 2^62 cells:
        # the kernel refuses as the walk does, with the same message.
        p, r, a = np.array([[1.0]]), np.array([[2.0**-1000]]), Alpha(2.0)
        for counts in (None, np.array([1])):
            layout = _divergence._layout(p, r, counts)
            assert _divergence._kernel(layout, a, None) == [2.0**1000]
        assert walk_divergence([[1.0]], [2.0**-1000], a, None) == [2.0**1000]
        layout = _divergence._layout(p, r, np.array([2**62]))
        with pytest.raises(ValueError) as refused:
            _divergence._kernel(layout, a, None)
        assert "too large for floating point" in str(refused.value)
        assert outcome(walk_divergence, [[1.0]], [2.0**-1000], a, None, [2**62]) == (
            ValueError,
            str(refused.value),
        )


def _old_conditional_divergence(joint, a):
    """The per-cell path: sum_c w_c D_alpha(Pmf(col / w_c) || uniform)."""
    flat = joint.probs.reshape(joint.probs.shape[0], -1)
    uniform = Pmf.uniform(flat.shape[0], joint.base_q)
    terms = []
    for c in range(flat.shape[1]):
        col = flat[:, c]
        w = math.fsum(col.tolist())
        if w == 0:
            continue
        terms.append(w * renyi_divergence(Pmf(col / w, joint.base_q), uniform, a))
    return math.fsum(terms)


def _old_flattened(joint):
    """The joint flattened to one Pmf and its reference U x P_S[,Z] flattened
    the same way, as whole-joint copies."""
    arr = joint.probs
    ref = np.broadcast_to(arr.sum(axis=0) / arr.shape[0], arr.shape).reshape(-1)
    return Pmf(arr.reshape(-1), joint.base_q), Pmf(ref, joint.base_q)


def _old_power_sums(joint, a):
    terms = []
    for z in range(joint.probs.shape[1]):
        col = joint.probs[:, z]
        pz = math.fsum(col.tolist())
        if pz == 0:
            continue
        terms.append((pz, math.fsum((pi / pz) ** a.value for pi in col if pi > 0)))
    return terms


def _random_joints():
    """2- and 3-axis joints, sparse ones, and ones with zero-mass columns."""
    rng = np.random.default_rng(11)
    shapes = [(2, 3), (4, 6), (3, 9), (4, 5, 2), (3, 4, 3), (8, 16)]
    joints = []
    for shape in shapes:
        for zero_cols, sparsity in ((0, 0.0), (2, 0.0), (1, 0.5)):
            arr = rng.random(shape)
            arr[rng.random(shape) < sparsity] = 0.0
            flat = arr.reshape(shape[0], -1)
            dead = rng.choice(flat.shape[1], zero_cols, replace=False)
            flat[:, dead] = 0.0
            flat[0, np.setdiff1d(np.arange(flat.shape[1]), dead)[0]] += 1.0
            base_q = 3 if shape[0] % 3 == 0 else 2
            joints.append(output_joint(arr / arr.sum(), base_q))
    return joints


EXTRACTED_SIDE = np.array([[0.8, 0.2], [0.3, 0.7], [0.5, 0.5], [1.0, 0.0]])


def _extracted(gf4, side):
    """A GF(2^2), k=2, m=1 extraction of a skewed source."""
    source = make_source(gf4, [0.1, 0.2, 0.3, 0.4], side)
    return extract_joint(poly_family(gf4, 2, 1), source)


# (kind, q, n, k, m): polynomial with q = 2 and 3, m < n and m = n; the
# full-table kind with m = 1 and 2; the constant kind.
TABLE_FAMILIES = [
    ("polynomial", 2, 2, 2, 1),
    ("polynomial", 2, 2, 2, 2),
    ("polynomial", 2, 3, 2, 2),
    ("polynomial", 2, 2, 3, 1),
    ("polynomial", 3, 2, 2, 1),
    ("polynomial", 3, 2, 2, 2),
    ("full_table", 2, 2, 2, 1),
    ("full_table", 2, 2, 2, 2),
    ("constant", 2, 3, 2, 2),
]


def _instance(kind, q, n, k, m, source, side):
    """An extraction on GF(q^n) from a seeded source, zero masses included
    for 'point-mass' and 'sparse', with a side channel of `side` symbols."""
    field = FieldParams.create(q, n)
    rng = np.random.default_rng([q, n, k, m, side])
    probs = rng.dirichlet(np.full(field.size, 0.5))
    if source == "point-mass":
        probs = np.eye(field.size)[1]
    elif source == "sparse":
        probs[rng.random(field.size) < 0.5] = 0.0
        probs[0] += 0.1
        probs /= probs.sum()
    channel = None
    if side:
        channel = rng.dirichlet(np.full(side, 0.7), size=field.size)
        channel[::2, 0] = 0.0  # every other row misses a symbol
        channel /= channel.sum(axis=1, keepdims=True)
    return extract_joint(HashFamily(kind, field, k, m), make_source(field, probs, channel))


def assert_matches_ungrouped(table, joint, alphas):
    rows, tv, kl, conditional_inf = ungrouped_table(joint, alphas)
    assert [(table["joint", a], table["conditional", a]) for a in alphas] == rows
    assert list(table) == table_keys(alphas)
    assert table[("tv",)] == tv
    assert table["joint", Alpha.one()] == kl
    assert table["conditional", Alpha.infinity()] == conditional_inf


def _group_count(joint):
    """Distinct (sorted column, reference) byte strings, counted in Python."""
    arr = joint.probs
    n_out = arr.shape[0]
    refs = (arr.sum(axis=0) / n_out).ravel()
    columns = arr.reshape(n_out, -1).T
    return len({(np.sort(col).tobytes(), ref.tobytes()) for col, ref in zip(columns, refs)})


def _sorted_column_count(joint):
    """Distinct sorted-column byte strings, references ignored."""
    arr = joint.probs
    return len({np.sort(col).tobytes() for col in arr.reshape(arr.shape[0], -1).T})


def _pair_count(joint):
    """Distinct (cell, reference) byte strings over every cell of the joint."""
    arr = joint.probs
    n_out = arr.shape[0]
    refs = (arr.sum(axis=0) / n_out).ravel()
    return len({
        (cell.tobytes(), ref.tobytes())
        for col, ref in zip(arr.reshape(n_out, -1).T, refs)
        for cell in col
    })


def _distinct_value_counts(joint):
    """Distinct normalised conditional values, distinct positive cells,
    distinct references of positive cells and distinct (positive cell,
    reference) pairs of a joint, by bit pattern, counted in Python."""
    arr = joint.probs
    n_out = arr.shape[0]
    columns = arr.reshape(n_out, -1).T.tolist()
    refs = (arr.sum(axis=0) / n_out).ravel().tolist()
    values = {(p / math.fsum(col)).hex() for col in columns for p in col if p > 0}
    pairs = {(p.hex(), r.hex()) for col, r in zip(columns, refs) for p in col if p > 0}
    return (
        len(values),
        len({p for p, _ in pairs}),
        len({r for _, r in pairs}),
        len(pairs),
    )


# Joints in which some groups differ only in their reference, and some
# groups' sorted columns repeat a cell.
MERGING_INSTANCES = [
    ("polynomial", 2, 3, 2, 2, "dirichlet", 0),
    ("polynomial", 2, 3, 2, 2, "dirichlet", 3),
    ("polynomial", 3, 2, 2, 2, "dirichlet", 0),
    ("polynomial", 3, 2, 2, 2, "dirichlet", 3),
]


SUBNORMALS = [5e-324, 1.5e-323, 1e-320, 1e-310]


@st.composite
def repeated_joints(draw, subnormal_cells=False):
    """2- and 3-axis joints whose columns repeat: each is a copy, a permuted
    copy or a one-ulp nudge of a few base columns, or all zero.  Permuted
    copies sum in another order, so their references may differ by an ulp.
    With subnormal_cells, up to three zero cells are then given subnormal
    masses: a column whose only positive cell is subnormal may have reference
    0, its total over U underflowing, and then the joint is not dominated by
    its reference."""
    n_out = draw(st.integers(2, 5))
    mass = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    base = draw(st.lists(
        st.lists(mass, min_size=n_out, max_size=n_out), min_size=1, max_size=4
    ))
    n_z = draw(st.sampled_from([None, 2, 3]))
    n_s = draw(st.integers(2, 6))
    columns = []
    for _ in range(n_s * (n_z or 1)):
        col = np.array(draw(st.sampled_from(base)))
        how = draw(st.sampled_from(["copy", "permute", "zero", "ulp"]))
        if how == "permute":
            col = col[draw(st.permutations(range(n_out)))]
        elif how == "zero":
            col = np.zeros(n_out)
        elif how == "ulp" and col.any():
            i = draw(st.sampled_from(np.flatnonzero(col).tolist()))
            col[i] = np.nextafter(col[i], 2.0)
        columns.append(col)
    flat = np.array(columns).T
    if flat.sum() == 0:
        flat[0, 0] = 1.0
    flat /= flat.sum()
    for _ in range(draw(st.integers(0, 3)) if subnormal_cells else 0):
        i, j = (draw(st.integers(0, n - 1)) for n in flat.shape)
        if flat[i, j] == 0:
            flat[i, j] = draw(st.sampled_from(SUBNORMALS))
    shape = (n_out, n_s) if n_z is None else (n_out, n_s, n_z)
    return output_joint(flat.reshape(shape), draw(st.sampled_from([2, 3])))


@given(repeated_joints())
@settings(max_examples=150, deadline=None)
def test_grouped_table_matches_ungrouped_walk_on_repeated_columns(joint):
    alphas = [Alpha.one(), Alpha(1.5), Alpha(2.0), Alpha(3.0), Alpha(7.5), Alpha.infinity()]
    table = empirical_divergences(joint, table_keys(alphas))
    assert_matches_ungrouped(table, joint, alphas)


def _fsum_verdict(arr):
    """What the sum check must give: math.fsum over every cell as a Python
    list (beyond floating point, inf), or the message it must raise."""
    try:
        total = math.fsum(arr.ravel().tolist())
    except OverflowError:
        total = math.inf
    if not abs(total - 1.0) <= measures.NORMALIZATION_TOL:
        return f"probabilities sum to {total}, not 1"
    return _signed(total)


def _constructor_verdict(arr, base_q, build=output_joint):
    """The total that building a joint from arr checks, or its message."""
    totals = []
    check = measures._check_sum

    def recording(*args, **kwargs):
        totals.append(check(*args, **kwargs))
        return totals[-1]

    with mock.patch.object(measures, "_check_sum", recording):
        try:
            build(arr, base_q)
        except ValueError as e:
            return str(e)
    [total] = totals
    return _signed(total)


def _group_counter(joint):
    """Members per distinct (sorted column, reference) byte string, counted in
    Python: the grouping a raw-byte np.unique gives."""
    arr = joint.probs
    n_out = arr.shape[0]
    refs = (arr.sum(axis=0) / n_out).ravel()
    columns = arr.reshape(n_out, -1).T
    return collections.Counter(
        (np.sort(col).tobytes(), ref.tobytes()) for col, ref in zip(columns, refs)
    )


def _stored_groups(joint):
    cols, refs, counts = expanded_groups(joint._groups)
    return collections.Counter(
        {(col.tobytes(), ref.tobytes()): int(c) for col, ref, c in zip(cols.T, refs, counts)}
    )


def _assert_ranked_columns(joint, groups):
    """The stored distinct sorted columns and column counts are the distinct
    columns of the groups, counts summed, one per distinct sorted column."""
    cols, _, counts = groups
    distinct, _, summed = _divergence._distinct(cols.T, counts)
    assert bits(joint._groups[0]) == bits(distinct)
    assert bits(joint._groups[1]) == bits(summed)
    assert len(distinct) == _sorted_column_count(joint)


TABLE_JOINTS = [
    _instance(*family, "dirichlet", side) for family in TABLE_FAMILIES for side in (0, 3)
]
SCALES = [1 - 2e-9, 1 - 5e-10, 1 + 5e-10, 1 + 2e-9]


class TestGroupedConstruction:
    """An output joint's columns are grouped once, when it is built, by a
    lexsort of their bit patterns (``_group_columns``); its sum check reads
    the groups.  Joints built by hand group through ``output_joint``."""

    @given(repeated_joints(), st.sampled_from(SCALES + [1.0]))
    @settings(max_examples=150, deadline=None)
    def test_sum_check_matches_fsum_over_every_cell(self, joint, scale):
        arr = joint.probs * scale
        assert _constructor_verdict(arr, joint.base_q) == _fsum_verdict(arr)
        if arr.ndim == 2:  # an (X, Z) joint checks every cell as one sum
            assert _constructor_verdict(arr, joint.base_q, JointPmf) == _fsum_verdict(arr)

    @pytest.mark.parametrize("scale", SCALES + [1.0])
    def test_sum_check_on_extracted_joints(self, scale):
        # 1 +- 2e-9 is refused, 1 +- 5e-10 passes: same message or same bits.
        for result in TABLE_JOINTS:
            arr = result.joint.probs * scale
            assert _constructor_verdict(arr, 2) == _fsum_verdict(arr)

    @pytest.mark.parametrize(
        "arr",
        [
            [[1e308, 1e308], [0.0, 0.0]],
            [[1e308, 0.0], [1e308, 0.0]],
            [[math.inf, 0.5], [0.25, 0.25]],
            [[math.nan, 0.5], [0.25, 0.25]],
        ],
    )
    def test_sum_beyond_floats_or_not_a_number_is_refused(self, arr):
        arr = np.array(arr)
        verdict = _fsum_verdict(arr)
        assert verdict.endswith(", not 1")
        for build in (output_joint, JointPmf):
            with pytest.raises(ValueError) as refused:
                build(arr, 2)
            assert str(refused.value) == verdict

    @given(repeated_joints())
    @settings(max_examples=150, deadline=None)
    def test_groups_match_raw_byte_grouping(self, joint):
        assert _stored_groups(joint) == _group_counter(joint)
        # Ranked, then grouped by (rank, reference): the one-lexsort order.
        groups = expanded_groups(joint._groups)
        for got, want in zip(groups, lexsorted_groups(joint.probs)):
            assert bits(got) == bits(want)
        _assert_ranked_columns(joint, groups)

    def test_groups_of_extracted_joints(self):
        for result in TABLE_JOINTS:
            joint = result.joint
            assert _stored_groups(joint) == _group_counter(joint)
            groups = expanded_groups(joint._groups)
            assert len(groups[2]) == _group_count(joint)
            _assert_ranked_columns(joint, groups)

    def test_negative_zero_column_is_a_group_apart(self):
        # The columns differ only in the sign of a zero; their references are
        # equal.  As raw bytes they differ, so they stay two groups.
        arr = np.array([[0.25, 0.25], [0.0, -0.0], [0.25, 0.25]])
        joint = output_joint(arr, 2)
        assert _group_count(joint) == 2
        assert _stored_groups(joint) == _group_counter(joint)
        assert sorted(expanded_groups(joint._groups)[2].tolist()) == [1, 1]
        table = empirical_divergences(joint, table_keys(ALPHA_GRID))
        assert_matches_ungrouped(table, joint, ALPHA_GRID)

    def test_each_output_joint_is_grouped_once(self, monkeypatch):
        # Extraction groups its coset representatives' columns, each standing
        # for its translates, once, when it is built; no reader groups again.
        calls = []
        group = _ranking._group_columns

        def counting(arr, *variants):
            calls.append(arr)
            return group(arr, *variants)

        monkeypatch.setattr(_ranking, "_group_columns", counting)
        for instance in MERGING_INSTANCES:
            calls.clear()
            joint = _instance(*instance).joint
            assert len(calls) == 1 and calls[0] is joint._rep_columns
            empirical_divergences(joint, table_keys(ALPHA_GRID))
            for a in ALPHA_GRID:
                conditional_divergence(joint, a)
                joint_divergence_from_uniform(joint, a)
            assert len(calls) == 1
            assert calls[0].shape[1] < joint.probs.shape[1]  # fewer than every seed

    def test_sorted_columns_are_ranked_once(self, monkeypatch):
        # Extraction ranks the representatives' sorted columns once; the
        # table reads that ranking and ranks no sorted columns again.
        ranked, distinct = [], _divergence._distinct

        def counting(x, counts=None):
            if x.ndim == 2 and x.dtype == float:  # rows of sorted columns
                ranked.append(x.shape)
            return distinct(x, counts)

        monkeypatch.setattr(_divergence, "_distinct", counting)
        for instance in MERGING_INSTANCES:
            ranked.clear()
            joint = _instance(*instance).joint
            empirical_divergences(joint, table_keys(ALPHA_GRID))
            columns = joint._rep_columns
            assert ranked == [(columns[0].size, len(columns))]

    def test_column_counts_count_every_column(self):
        # Each seed, or (seed, z) cell, is one column of one distinct sorted
        # column.
        for result in TABLE_JOINTS:
            column_counts = result.joint._groups[1]
            assert column_counts.dtype == np.int64
            want = result.family.seed_space_size * max(1, result.source.n_side)
            assert int(column_counts.sum()) == want

    def test_no_list_of_every_cell(self, monkeypatch):
        # Every list of terms goes through math.fsum; on joints whose columns
        # repeat, none is as long as the joint, from extraction to table.
        sizes = []

        class RecordingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def fsum(self, terms):
                terms = list(terms)
                sizes.append(len(terms))
                return math.fsum(terms)

        for module in (measures, _divergence):
            monkeypatch.setattr(module, "math", RecordingMath())
        instances = MERGING_INSTANCES + [("polynomial", 3, 2, 4, 2, "dirichlet", 3)]
        for instance in instances:
            sizes.clear()
            joint = _instance(*instance).joint
            empirical_divergences(joint, table_keys(ALPHA_GRID))
            assert sizes and max(sizes) < joint.probs.size


# Columns of masses with at least one positive mass, as every pmf column has.
MASS_COLUMNS = st.lists(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).filter(any),
    min_size=1,
    max_size=5,
)


@given(
    MASS_COLUMNS,
    st.sampled_from([1 / 3, 0.25, 1.0]),
    st.sampled_from(ALPHA_GRID + [Alpha(7.5), Alpha(300.0), Alpha(2000.0)]),
)
@settings(max_examples=300, deadline=None)
def test_shared_reference_keeps_each_columns_bits(columns, r, a):
    # The columns, as the zero-padded rows of one layout against one shared
    # reference, give row by row the bits of the walk over each column alone
    # against a list of that reference, or the same refusal.
    lnq = math.log(3)
    width = max(map(len, columns))
    rows = np.array([ps + [0.0] * (width - len(ps)) for ps in columns])

    def each():
        return [walk_divergence([ps], [r] * len(ps), a, lnq)[0] for ps in columns]

    assert outcome(_divergence._kernel, _divergence._layout(rows, r), a, lnq) == outcome(each)


class TestConditionalBitwiseOracle:
    """The column reader must give the same bits as the per-cell Pmf path."""

    JOINTS = _random_joints()

    @pytest.mark.parametrize("a", ALPHA_GRID)
    def test_conditional_divergence(self, a):
        for j in self.JOINTS:
            assert conditional_divergence(j, a) == _old_conditional_divergence(j, a)

    def test_conditional_divergence_of_extracted_joints(self, gf4):
        for sc in (None, EXTRACTED_SIDE):
            j = _extracted(gf4, sc).joint
            for a in ALPHA_GRID:
                assert conditional_divergence(j, a) == _old_conditional_divergence(j, a)

    @pytest.mark.parametrize("a", [a for a in ALPHA_GRID if a.is_finite_order])
    def test_conditional_entropies(self, a):
        for j in self.JOINTS:
            if j.probs.ndim != 2:
                continue
            terms = _old_power_sums(j, a)
            scale = (1.0 - a.value) * math.log(j.base_q)
            cond = math.log(math.fsum(pz * s for pz, s in terms)) / scale
            tilde = math.fsum(pz * math.log(s) for pz, s in terms) / scale
            xz = JointPmf(j.probs, j.base_q)
            assert conditional_renyi_entropy(xz, a) == cond
            assert tilde_conditional_entropy(xz, a) == tilde

    def test_all_orders_from_one_read(self):
        for j in self.JOINTS:
            expected = [_old_conditional_divergence(j, a) for a in ALPHA_GRID]
            table = empirical_divergences(j, table_keys(ALPHA_GRID))
            assert [table["conditional", a] for a in ALPHA_GRID] == expected
            assert table["conditional", Alpha.infinity()] == expected[-1]

    def test_divergence_table_conditional_inf(self, gf4):
        for sc in (None, EXTRACTED_SIDE):
            result = _extracted(gf4, sc)
            table = empirical_divergences(result.joint, table_keys(ALPHA_GRID))
            inf = Alpha.infinity()
            expected = _old_conditional_divergence(result.joint, inf)
            assert table["conditional", inf] == conditional_divergence(result.joint, inf)
            assert table["conditional", inf] == expected
            for a in ALPHA_GRID:
                want = _old_conditional_divergence(result.joint, a)
                assert table["conditional", a] == want

    def test_one_normalisation_per_distinct_column(self, monkeypatch):
        normalised, layouts = [], []
        conditionals, layout = _divergence._conditionals, _divergence._layout

        def counting_conditionals(rows):
            normalised.append(rows.shape)
            return conditionals(rows)

        def counting_layout(masses, *args):
            layouts.append(masses.shape)
            return layout(masses, *args)

        monkeypatch.setattr(_divergence, "_conditionals", counting_conditionals)
        monkeypatch.setattr(_divergence, "_layout", counting_layout)
        for instance in MERGING_INSTANCES:
            joint = _instance(*instance).joint
            normalised.clear()
            layouts.clear()
            empirical_divergences(joint, table_keys(ALPHA_GRID + [Alpha(2.0)]))
            # One normalisation and sum check, over one row per distinct
            # sorted column (groups that differ only in their reference share
            # it), and one layout each for the conditional and the joint
            # functionals, however many orders read them.
            distinct, n_out = _sorted_column_count(joint), joint.probs.shape[0]
            assert distinct < _group_count(joint)
            assert normalised == [(distinct, n_out)]
            assert layouts == [(distinct, n_out), (_group_count(joint), n_out)]

    def test_one_term_per_distinct_pair(self, monkeypatch):
        sums, layouts = [], []
        counted_fsum, layout = measures._counted_fsum, _divergence._layout

        def recording(terms, counts=None):
            if counts is not None:
                sums.append((len(terms), int(np.sum(counts))))
            return counted_fsum(terms, counts)

        def recording_layout(*args):
            layouts.append(layout(*args))
            return layouts[-1]

        monkeypatch.setattr(measures, "_counted_fsum", recording)
        monkeypatch.setattr(_divergence, "_layout", recording_layout)
        for instance in MERGING_INSTANCES:
            joint = _instance(*instance).joint
            sums.clear()
            layouts.clear()
            empirical_divergences(joint, table_keys(ALPHA_GRID))
            arr, n_out = joint.probs, joint.probs.shape[0]
            _, _, _, pairs = _distinct_value_counts(joint)
            assert pairs < _group_count(joint) * n_out
            # The joint functionals read one term per distinct (cell,
            # reference) pair with a positive cell, counted once per cell.
            summed = layouts[1][6]
            assert len(summed) == pairs and summed.sum() == np.count_nonzero(arr > 0)
            # The conditional D_alpha at all five orders, D_inf among them
            # and computed once for its row and ("conditional", inf), sum one term
            # per distinct sorted column, counted once per column; TV one per
            # positive pair and one per group, for the zero cells, counted
            # once per cell; the joint KL and each finite joint order (D_inf
            # ignores counts) one per positive pair, counted once per cell.
            conditional_sums = [(_sorted_column_count(joint), arr[0].size)] * 5
            tv_sum = (pairs + _group_count(joint), arr.size)
            joint_sums = [(pairs, np.count_nonzero(arr > 0))] * 4
            assert sorted(sums) == sorted(conditional_sums + [tv_sum] + joint_sums)

    def test_one_power_and_log_per_distinct_value(self, monkeypatch):
        powers, logs = collections.Counter(), []

        def counting_pow(x, y):
            powers[y] += 1
            return x**y

        class RecordingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def log(self, x):
                logs.append(x)
                return math.log(x)

        monkeypatch.setattr(_divergence, "pow", counting_pow, raising=False)
        for module in (measures, _divergence):
            monkeypatch.setattr(module, "math", RecordingMath())
        for instance in MERGING_INSTANCES:
            joint = _instance(*instance).joint
            powers.clear()
            logs.clear()
            empirical_divergences(joint, table_keys(ALPHA_GRID))
            values, cells, refs, pairs = _distinct_value_counts(joint)
            # Each finite order raises each distinct normalised conditional
            # value and each distinct positive cell to alpha once, and the
            # uniform reference and each distinct reference to 1 - alpha.
            orders = [a.value for a in ALPHA_GRID if a.is_finite_order]
            assert powers == {
                **{b: values + cells for b in orders},
                **{1.0 - b: 1 + refs for b in orders},
            }
            # KL takes one log per distinct conditional value and one per
            # distinct pair, once for its row and ("joint", 1); every finite
            # order and the conditional D_inf, once for its row and
            # ("conditional", inf), one per distinct column, and the joint ones
            # one each; the base one.
            columns = _sorted_column_count(joint)
            assert len(logs) == values + pairs + 4 * columns + 4 + 1


    def test_joint_read_in_place(self, gf4):
        # Row by row against the cycled reference gives the same bits as the
        # flattened copies: fsum is correctly rounded, whatever the order.
        joints = self.JOINTS + [_extracted(gf4, sc).joint for sc in (None, EXTRACTED_SIDE)]
        for j in joints:
            flat, ref = _old_flattened(j)
            for a in ALPHA_GRID + [Alpha(7.5)]:
                assert joint_divergence_from_uniform(j, a) == renyi_divergence(flat, ref, a)
            assert empirical_divergences(j, [("tv",)])[("tv",)] == tv_distance(flat, ref)

    def test_divergence_table_builds_no_pmf(self, gf4, monkeypatch):
        for sc in (None, EXTRACTED_SIDE):
            result = _extracted(gf4, sc)
            monkeypatch.setattr(measures, "_freeze_probs", None)  # any build fails
            table = empirical_divergences(result.joint, table_keys(ALPHA_GRID))
            monkeypatch.undo()
            flat, ref = _old_flattened(result.joint)
            assert table[("tv",)] == tv_distance(flat, ref)
            assert table["joint", Alpha.one()] == renyi_divergence(flat, ref, Alpha.one())
            for a in ALPHA_GRID:
                assert table["joint", a] == renyi_divergence(flat, ref, a)

    @pytest.mark.parametrize("kind,q,n,k,m", TABLE_FAMILIES)
    @pytest.mark.parametrize("source", ["dirichlet", "point-mass", "sparse"])
    @pytest.mark.parametrize("side", [0, 3])
    def test_grouped_table_matches_ungrouped_walk(self, kind, q, n, k, m, source, side):
        result = _instance(kind, q, n, k, m, source, side)
        alphas = ALPHA_GRID + [Alpha(7.5)]
        table = empirical_divergences(result.joint, table_keys(alphas))
        assert_matches_ungrouped(table, result.joint, alphas)

    def test_unpermuted_columns_match_the_oracle(self):
        # Seeds 0 and 1 share an s_0-orbit, but seed 1's column is no longer
        # a permutation of seed 0's: the grouping assumes nothing of the
        # family, so the table still has the ungrouped walk's bits.
        result = _instance("polynomial", 2, 2, 2, 1, "dirichlet", 0)
        arr = result.joint.probs.copy()
        arr[:, 1] = arr[:, 1].sum() / 2
        assert sorted(arr[:, 1]) != sorted(arr[:, 0])
        tampered = output_joint(arr, 2)
        table = empirical_divergences(tampered, table_keys(ALPHA_GRID))
        assert_matches_ungrouped(table, tampered, ALPHA_GRID)

    def test_column_reader_checks_normalisation(self):
        # The check each per-cell Pmf made: a column that cannot be
        # normalised (here an infinite entry) is refused, and a column of
        # zero mass is not read.  Public readers never pass such a column:
        # every joint's sum check refuses an infinite entry first.
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            _divergence._conditionals(np.array([[math.inf, 0.5], [0.5, 0.0]]).T)
        w, cond, kept = _divergence._conditionals(np.array([[0.5, 0.0], [0.25, 0.0]]).T)
        assert w.tolist() == [0.75] and kept.tolist() == [True, False]
        assert cond.tolist() == [[0.5 / 0.75, 0.25 / 0.75]]


def _exact_joint(family, probs, side=None):
    """P(u, s[, z]) in Fractions, from the scalar reference evaluate."""
    seeds = family.seed_space_size
    side = side or [[1.0]] * len(probs)
    cells = {}
    for s in range(seeds):
        for x, px, row in zip(range(family.field.size), probs, side):
            u = evaluate(family, s, x)
            for z, pzx in enumerate(row):
                mass = Fraction(px) * Fraction(pzx) / seeds
                cells[(u, s, z)] = cells.get((u, s, z), Fraction(0)) + mass
    return cells


def _tiny_instance(q, n, with_side):
    """A k=2, m=1 polynomial family with a non-dyadic source, as floats."""
    field = FieldParams.create(q, n)
    weights = range(1, field.size + 1)
    probs = [w / sum(weights) for w in weights]
    side = None
    if with_side:
        side = [[0.75, 0.25] if i % 2 else [0.1, 0.9] for i in range(field.size)]
    source = make_source(field, probs, None if side is None else np.array(side))
    return poly_family(field, 2, 1), source, probs, side


INSTANCES = pytest.mark.parametrize(
    "q,n,with_side", [(2, 2, False), (2, 2, True), (3, 1, False), (3, 1, True)]
)


class TestExactRationalOracle:
    """Power sums at integer alpha in exact rationals (Fraction of each float
    input); the float functionals must agree to far below SLACK."""

    TOL = 1e-12

    def test_tolerance_far_below_slack(self):
        assert self.TOL <= SLACK * 1e-3

    @INSTANCES
    @pytest.mark.parametrize("alpha", [2, 3])
    def test_divergences_match_exact(self, q, n, with_side, alpha):
        family, source, probs, side = _tiny_instance(q, n, with_side)
        joint = extract_joint(family, source).joint
        cells = _exact_joint(family, probs, side)
        n_out, lnq = family.output_size, math.log(q)
        col = {}
        for (u, s, z), p in cells.items():
            col[(s, z)] = col.get((s, z), Fraction(0)) + p
        # Conditional: sum_c w_c (1/(a-1)) log_q(n^(a-1) sum_u P(u|c)^a).
        sums = {c: Fraction(0) for c in col}
        for (u, s, z), p in cells.items():
            sums[(s, z)] += (p / col[(s, z)]) ** alpha
        exact_cond = math.fsum(
            float(w) * math.log(float(n_out ** (alpha - 1) * sums[c]))
            for c, w in col.items()
            if w
        ) / ((alpha - 1) * lnq)
        # Joint against U x P_C: (1/(a-1)) log_q sum P(u,c)^a (n / P_C(c))^(a-1).
        total = sum(
            p**alpha * (n_out / col[(s, z)]) ** (alpha - 1)
            for (u, s, z), p in cells.items()
            if p
        )
        exact_joint = math.log(float(total)) / ((alpha - 1) * lnq)
        a = Alpha(float(alpha))
        assert abs(conditional_divergence(joint, a) - exact_cond) <= self.TOL
        assert abs(joint_divergence_from_uniform(joint, a) - exact_joint) <= self.TOL

    @INSTANCES
    def test_joint_matches_exact(self, q, n, with_side):
        family, source, probs, side = _tiny_instance(q, n, with_side)
        joint = extract_joint(family, source).joint.probs
        cells = _exact_joint(family, probs, side)
        cube = joint if with_side else joint[..., None]
        for (u, s, z), p in np.ndenumerate(cube):
            assert abs(p - float(cells.get((u, s, z), 0))) <= self.TOL

    @INSTANCES
    @pytest.mark.parametrize("alpha", [2, 3])
    def test_source_entropies_match_exact(self, q, n, with_side, alpha):
        _, source, probs, side = _tiny_instance(q, n, with_side)
        side = side or [[1.0]] * len(probs)
        xz = [[Fraction(p) * Fraction(v) for v in row] for p, row in zip(probs, side)]
        pz = [sum(row[z] for row in xz) for z in range(len(side[0]))]
        inner = [sum((row[z] / w) ** alpha for row in xz) for z, w in enumerate(pz)]
        scale = (1 - alpha) * math.log(q)
        exact = math.log(float(sum(w * s for w, s in zip(pz, inner)))) / scale
        exact_tilde = math.fsum(float(w) * math.log(float(s)) for w, s in zip(pz, inner))
        a = Alpha(float(alpha))
        if with_side:
            assert abs(source.conditional_entropy(a) - exact) <= self.TOL
            tilde = tilde_conditional_entropy(source.xz_joint(), a)
            assert abs(tilde - exact_tilde / scale) <= self.TOL
        else:
            assert abs(source.entropy(a) - exact) <= self.TOL


# Masses with zeros and subnormals; the orders the walk is checked at, and
# two whose power sums leave floating point on many inputs.
EDGE_MASS = st.one_of(st.just(0.0), st.sampled_from(SUBNORMALS), st.floats(1e-6, 1.0))
ORACLE_ALPHAS = [
    Alpha.one(),
    Alpha(1.0 + 1e-6),
    Alpha(1.25),
    Alpha(2.0),
    Alpha(7.5),
    Alpha.infinity(),
]
TOO_LARGE = [Alpha(300.0), Alpha(2000.0)]


def edge_masses(n):
    """n masses with zeros and subnormal cells, normalised by their fsum."""
    weights = st.lists(EDGE_MASS, min_size=n, max_size=n).filter(lambda w: max(w) >= 1e-6)
    return weights.map(lambda w: np.array(w) / math.fsum(w))


class TestKernelMatchesWalk:
    """Every public entry point gives the bits (repr) of the per-column walk
    that the kernel replaced (conftest), or its refusal with the same
    exception and message, on zero masses, subnormal cells and zero
    references under positive masses (+inf)."""

    @given(
        st.integers(1, 8).flatmap(lambda n: st.tuples(edge_masses(n), edge_masses(n))),
        st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=300, deadline=None)
    def test_pmf_functionals(self, masses, base_q):
        p, r = (Pmf(m, base_q) for m in masses)
        for a in ORACLE_ALPHAS + TOO_LARGE:
            assert outcome(renyi_entropy, p, a) == outcome(walk_renyi_entropy, p, a)
            want = outcome(walk_renyi_divergence, p, r, a)
            assert outcome(renyi_divergence, p, r, a) == want
        assert outcome(tv_distance, p, r) == outcome(walk_tv_distance, p, r)

    def test_zero_reference_under_positive_mass_is_infinite(self):
        p, r = Pmf(np.array([0.5, 0.5 - 1e-300, 1e-300]), 2), Pmf(np.array([0.5, 0.5, 0.0]), 2)
        for a in ORACLE_ALPHAS + TOO_LARGE:
            assert renyi_divergence(p, r, a) == walk_renyi_divergence(p, r, a) == math.inf

    @given(st.integers(1, 6), st.integers(1, 4), st.sampled_from([2, 3]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_conditional_entropies(self, n_x, n_z, base_q, data):
        joint = JointPmf(data.draw(edge_masses(n_x * n_z)).reshape(n_x, n_z), base_q)
        for a in ORACLE_ALPHAS + TOO_LARGE:
            if not a.is_finite_order:
                continue

            def both():
                return conditional_renyi_entropy(joint, a), tilde_conditional_entropy(joint, a)

            assert outcome(both) == outcome(walk_conditional_entropies, joint, a)

    @given(repeated_joints(subnormal_cells=True))
    @settings(max_examples=200, deadline=None)
    def test_output_joint_readers(self, joint):
        for alphas in (ORACLE_ALPHAS + TOO_LARGE, ORACLE_ALPHAS):
            keys = table_keys(alphas)
            formed = outcome(walk_table, joint, keys)
            assert outcome(empirical_divergences, joint, keys) == formed
        for a in ORACLE_ALPHAS + TOO_LARGE:
            assert outcome(conditional_divergence, joint, a) == outcome(walk_conditional, joint, a)
            want = outcome(walk_joint, joint, a)
            assert outcome(joint_divergence_from_uniform, joint, a) == want
        # A subnormal reference's r^(1 - alpha) overflows, and the walk refuses
        # the order; a table that is formed matches the ungrouped walk too.
        if isinstance(formed, str):
            table = empirical_divergences(joint, table_keys(ORACLE_ALPHAS))
            assert_matches_ungrouped(table, joint, ORACLE_ALPHAS)

    @pytest.mark.parametrize("name", ["certify-k3", "sweep-side"])
    def test_benchmark_configs(self, workloads, name):
        # Seeds 0-9 of the workloads that build a divergence table, at every
        # m they extract.
        for seed in range(10):
            config = parse_config(workloads.WORKLOADS[name].config(seed))
            base = config.build_family()
            source = config.build_source(base)
            for m in config.sweep.m_values if config.sweep else (base.m,):
                family = HashFamily(base.kind, base.field, base.k, m)
                joint = extract_joint(family, source).joint
                keys = table_keys(config.alphas)
                want = repr(walk_table(joint, keys))
                assert repr(empirical_divergences(joint, keys)) == want

    def test_large_rung(self):
        # GF(2^6), k=3, m=3 from a Dirichlet(0.3) source: 2^18 seeds.
        field = FieldParams.create(2, 6)
        probs = np.random.default_rng(0).dirichlet(np.full(field.size, 0.3))
        family = HashFamily("polynomial", field, 3, 3)
        joint = extract_joint(family, make_source(field, probs), budget=30_000_000).joint
        keys = table_keys([Alpha(1.5), Alpha(2.0), Alpha(3.0), Alpha.infinity()])
        assert repr(empirical_divergences(joint, keys)) == repr(walk_table(joint, keys))


class TestKeyedTable:
    """The table computes the keys it is given and nothing else."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = collections.Counter()
        for name in ("_conditionals", "_layout", "_kernel", "_tv"):
            original = getattr(_divergence, name)

            def counting(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(_divergence, name, counting)
        return calls

    def test_joint_keys_normalise_no_column(self, calls):
        for instance in MERGING_INSTANCES:
            joint = _instance(*instance).joint
            calls.clear()
            keys = [("joint", a) for a in ALPHA_GRID]
            table = empirical_divergences(joint, keys)
            assert calls == {"_layout": 1, "_kernel": len(ALPHA_GRID)}
            assert table == {key: walk_joint(joint, key[1]) for key in keys}

    def test_conditional_keys_build_no_joint_layout(self, calls):
        for instance in MERGING_INSTANCES:
            joint = _instance(*instance).joint
            calls.clear()
            keys = [("conditional", a) for a in ALPHA_GRID]
            table = empirical_divergences(joint, keys)
            assert calls == {"_conditionals": 1, "_layout": 1, "_kernel": len(ALPHA_GRID)}
            assert table == {key: walk_conditional(joint, key[1]) for key in keys}

    def test_tv_alone_evaluates_no_order(self, calls):
        for instance in MERGING_INSTANCES:
            joint = _instance(*instance).joint
            calls.clear()
            table = empirical_divergences(joint, [("tv",)])
            assert calls == {"_layout": 1, "_tv": 1}
            assert table == {("tv",): walk_joint(joint, None)}

    def test_no_key_builds_nothing(self, calls):
        joint = _instance(*MERGING_INSTANCES[0]).joint
        assert empirical_divergences(joint, []) == {}
        assert calls == {}

    @pytest.fixture
    def certify_k3(self, workloads):
        config = parse_config(workloads.WORKLOADS["certify-k3"].config(41))
        family = config.build_family()
        return extract_joint(family, config.build_source(family)).joint

    @pytest.mark.parametrize(
        "bad",
        [("joint", "x"), ("conditional", "x"), ("conditional", None), ("joint", 0.5),
         ("joint", 10**400), ("kl",), ("kl", 2.0), ("joint",), ("tv", 2), "tv", None],
    )
    def test_a_bad_key_is_refused_before_either_side(self, certify_k3, calls, bad):
        keys = [("conditional", Alpha(2.0)), ("joint", Alpha(2.0)), ("tv",), bad]
        calls.clear()
        with pytest.raises(ValueError, match=f"bad divergence key {re.escape(repr(bad))}"):
            empirical_divergences(certify_k3, keys)
        assert calls == {}

    def test_a_numeric_order_is_taken_as_as_alpha_takes_it(self, certify_k3):
        keys = [("joint", 2.0), ("conditional", 3), ("joint", Alpha(1.5)), ("tv",)]
        table = empirical_divergences(certify_k3, keys)
        assert list(table) == keys  # keyed by the keys as given
        by_alpha = [("joint", Alpha(2.0)), ("conditional", Alpha(3.0)), keys[2], keys[3]]
        want = empirical_divergences(certify_k3, by_alpha)
        assert list(table.values()) == list(want.values())

    @given(repeated_joints(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_keys_in_any_order(self, joint, data):
        # A repeated key is computed once; the map follows the keys' order,
        # and each value has the bits of the walk, or the same refusal.
        every = table_keys(ORACLE_ALPHAS + TOO_LARGE)
        keys = data.draw(st.lists(st.sampled_from(every), max_size=len(every) + 2))
        want = outcome(walk_table, joint, keys)
        assert outcome(empirical_divergences, joint, keys) == want
        if isinstance(want, str):
            assert list(empirical_divergences(joint, keys)) == list(dict.fromkeys(keys))
