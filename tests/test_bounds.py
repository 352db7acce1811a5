import itertools
import math
import sys

import pytest

from conftest import integer_order_bound

from renyi_extract.bounds import (
    SLACK,
    bound_alpha_above_k,
    bound_infty,
    bound_real_alpha,
    bound_real_alpha_simplified,
    bucket_bound,
    dk_bound_sharp,
    dk_bound_simple,
    gamma_fn,
    logq_sum_exp,
    m_threshold,
    satisfied,
    stirling2,
)


def set_partitions(items):
    """All partitions of a list, by recursive insertion."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


def poisson_moment(k, lam, terms=300):
    """Truncated-series E[Z^k] for Z ~ Poisson(lam), log-domain terms."""
    return math.fsum(
        math.exp(-lam + j * math.log(lam) - math.lgamma(j + 1) + k * math.log(j))
        for j in range(1, terms)
    )


class TestStirling:
    def test_boundary_values(self):
        for k in range(1, 10):
            assert stirling2(k, k) == 1
            assert stirling2(k, 1) == 1
        assert stirling2(0, 0) == 1
        assert stirling2(3, 0) == 0

    def test_s_4_2_is_7(self):
        parts = [p for p in set_partitions(list(range(4))) if len(p) == 2]
        assert len(parts) == 7
        assert stirling2(4, 2) == 7

    @pytest.mark.parametrize("k", range(1, 8))
    def test_matches_partition_enumeration(self, k):
        counts = {}
        for p in set_partitions(list(range(k))):
            counts[len(p)] = counts.get(len(p), 0) + 1
        for l in range(1, k + 1):
            assert stirling2(k, l) == counts.get(l, 0)

    def test_recurrence_spot_checks(self):
        for k in range(2, 11):
            for l in range(1, k + 1):
                assert stirling2(k, l) == l * stirling2(k - 1, l) + stirling2(
                    k - 1, l - 1
                )

    def test_large_values_exact(self):
        # Far beyond float integer range; must be exact big ints.
        assert stirling2(64, 32) % 10 == stirling2(64, 32) % 10  # computable
        assert stirling2(64, 32) > 2**150

    def test_range_errors(self):
        with pytest.raises(ValueError):
            stirling2(65, 3)
        with pytest.raises(ValueError):
            stirling2(5, -1)


class TestLogSumExp:
    def test_matches_direct_sum(self):
        terms = [0.5, -2.0, 1.25]
        direct = math.log2(sum(2.0**t for t in terms))
        assert logq_sum_exp(terms, 2) == pytest.approx(direct, abs=1e-12)

    def test_no_overflow_for_huge_exponents(self):
        val = logq_sum_exp([300.0, 299.0], 2)
        assert val == pytest.approx(300.0 + math.log2(1.5), abs=1e-9)


class TestIntegerAlphaBound:
    """The real-order bound at integer orders: the paper's moment sum."""

    def test_alpha_2_closed_form(self):
        q, m, H = 2, 3, 4.0
        expected = math.log2(2 ** (m - H) + 1)
        assert bound_real_alpha(q, m, 2, 2.0, H) == pytest.approx(expected, abs=1e-12)

    def test_zero_gap_bell_number(self):
        # m = H collapses every term to its Stirling coefficient.
        val = bound_real_alpha(2, 4, 3, 3.0, 4.0)
        assert val == pytest.approx(math.log2(5) / 2, abs=1e-12)
        assert sum(stirling2(3, l) for l in range(4)) == 5  # Bell number B_3

    @pytest.mark.parametrize("k", range(2, 9))
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 8.0])
    def test_poisson_moment_identity(self, k, lam):
        moment = math.fsum(stirling2(k, l) * lam**l for l in range(1, k + 1))
        assert moment == pytest.approx(poisson_moment(k, lam), rel=1e-9)

    def test_rhs_equals_normalized_poisson_moment(self):
        # The exponentiated bound is E[(Z/lam)^k] with lam = q^{H-m}.
        q, m, k, H = 2, 2, 4, 3.0
        lam = q ** (H - m)
        rhs = q ** ((k - 1) * bound_real_alpha(q, m, k, float(k), H))
        assert rhs == pytest.approx(poisson_moment(k, lam) / lam**k, rel=1e-9)


class TestRealAlphaBound:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_integer_orders_agree(self, k):
        # Every integer order 2 <= alpha <= k, q in {2, 3, 5} and integer
        # m - H from -50 to 300, against the moment-sum oracle.
        for q, alpha, gap in itertools.product((2, 3, 5), range(2, k + 1), range(-50, 301)):
            m, H = 4, 4.0 - gap
            assert bound_real_alpha(q, m, k, float(alpha), H) == pytest.approx(
                integer_order_bound(q, m, alpha, H), abs=1e-12
            ), (q, alpha, gap)

    def test_integer_orders_agree_at_fractional_gaps(self):
        for j in (2, 3, 4, 5):
            for m, H in [(2, 3.0), (4, 2.5), (3, 3.0)]:
                assert bound_real_alpha(2, m, j, float(j), H) == pytest.approx(
                    integer_order_bound(2, m, j, H), abs=1e-12
                )

    def test_interval_1_2_closed_form(self):
        q, m, H, alpha = 2, 2, 3.5, 1.7
        expected = math.log2(2 ** ((alpha - 1) * (m - H)) + 1) / (alpha - 1)
        assert bound_real_alpha(q, m, 2, alpha, H) == pytest.approx(expected, abs=1e-12)

    def test_mid_interval_against_transcription_oracle(self):
        # Independent re-transcription of the two Stirling sums, plain floats.
        q, m, k, alpha, H = 2, 2, 3, 2.5, 2.0
        c = 3
        gap = m - H
        total = sum(
            l * stirling2(c - 1, l) * q ** ((alpha - l) * gap) for l in range(1, c)
        )
        total += sum(
            stirling2(c - 1, l - 1) * q ** ((c - l) * gap) for l in range(1, c + 1)
        )
        expected = math.log(total, q) / (alpha - 1)
        assert bound_real_alpha(q, m, k, alpha, H) == pytest.approx(expected, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bound_real_alpha(2, 2, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            bound_real_alpha(2, 2, 2, 2.5, 1.0)


class TestSimplifiedBound:
    def test_majorizes_exact_form_on_grid(self):
        for alpha in (1.3, 1.8, 2.2, 2.9, 3.0):
            for m, H in itertools.product((1, 2, 4), (1.0, 2.5, 4.0)):
                k = max(3, math.ceil(alpha))
                assert bound_real_alpha_simplified(
                    2, m, k, alpha, H
                ) >= bound_real_alpha(2, m, k, alpha, H) - 1e-12

    def test_integer_alpha_low_output_agrees(self):
        # m <= H keeps the exponents identical to the integer form.
        assert bound_real_alpha_simplified(2, 2, 3, 3.0, 4.0) == pytest.approx(
            integer_order_bound(2, 2, 3, 4.0), abs=1e-12
        )

    def test_zero_gap_bell(self):
        alpha = 2.5
        expected = math.log2(sum(stirling2(3, l) for l in range(4))) / (alpha - 1)
        assert bound_real_alpha_simplified(2, 3, 3, alpha, 3.0) == pytest.approx(
            expected, abs=1e-12
        )


class TestSimpleMomentBound:
    def test_worked_value(self):
        assert dk_bound_simple(2, 3, 2, 3.0) == pytest.approx(2 / math.log(2))

    def test_dominates_integer_bound_on_grid(self):
        for k in (2, 3, 4, 6):
            for gap in (0.0, -1.0, -2.5):  # m <= H
                H = 4.0
                m = H + gap
                assert dk_bound_simple(2, m, k, H) >= bound_real_alpha(
                    2, m, k, float(k), H
                ) - 1e-12

    def test_linear_in_gap_exponential(self):
        b1 = dk_bound_simple(2, 3, 3, 3.0)
        b2 = dk_bound_simple(2, 4, 3, 3.0)  # doubles q^{m-H}
        assert b2 == pytest.approx(2 * b1, rel=1e-12)


class TestGamma:
    def forward(self, x):
        return x / math.log1p(x)

    def test_limit_at_one(self):
        assert gamma_fn(1.0) == 0.0

    def test_known_points(self):
        assert gamma_fn(2 / math.log(3)) == pytest.approx(2.0, rel=1e-10)
        e = math.e
        assert gamma_fn(e - 1) == pytest.approx(e - 1, rel=1e-10)

    @pytest.mark.parametrize("x", [0.1, 1.0, 2.0, 10.0, 100.0])
    def test_round_trip(self, x):
        assert gamma_fn(self.forward(x)) == pytest.approx(x, rel=1e-10)

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            gamma_fn(0.9)

    @pytest.mark.parametrize("e", range(6, 16))
    def test_near_one_is_twice_the_excess(self, e):
        # x / ln(x + 1) = 1 + x/2 + O(x^2), so the root is 2(y - 1) to first
        # order; y - 1 is exact.  The bisection stops at a width relative to
        # the root, so this holds down to y - 1 = 1e-15, within the rounding
        # of x / ln(x + 1) near 1: two ulps of y, times the slope 2.
        y = 1.0 + 10.0**-e
        want = 2 * (y - 1.0)
        assert gamma_fn(y) == pytest.approx(want, rel=1e-6, abs=4 * sys.float_info.epsilon)

    def test_sharp_gamma_threshold_resolves_tiny_epsilon(self):
        # A width of 1e-12 below x = 1 gave 4.547e-13 for every y - 1 < 1e-13,
        # so these two epsilons gave one threshold.
        coarse, fine = (
            m_threshold("sharp-gamma", 2, 6.0, eps, k=2) for eps in (1e-13, 1e-15)
        )
        assert fine < coarse


class TestSharpMomentBound:
    def test_worked_value(self):
        x = 2.0
        expected = 2 * math.log2(x / math.log(3))
        assert dk_bound_sharp(2, 3, 2, 3.0) == pytest.approx(expected, abs=1e-12)

    def test_never_exceeds_simple_bound(self):
        for k in (2, 3, 5):
            for gap in (-3.0, -1.0, 0.0, 1.0):
                H = 4.0
                assert dk_bound_sharp(2, H + gap, k, H) <= dk_bound_simple(
                    2, H + gap, k, H
                ) + 1e-12

    @pytest.mark.parametrize("k,eps", [(2, 0.1), (3, 0.05), (5, 0.3)])
    def test_gamma_threshold_implies_epsilon(self, k, eps):
        q, H = 2, 6.0
        m = m_threshold("sharp-gamma", q, H, eps, k=k)
        assert dk_bound_sharp(q, m, k, H) <= eps + 1e-9


class TestTailBounds:
    def test_infinity_is_limit_of_above_k(self):
        q, m, k, H = 2, 4, 2, 4.0
        approx_inf = bound_alpha_above_k(q, m, k, 1e9, H)
        assert approx_inf == pytest.approx(bound_infty(q, m, k, H), abs=1e-6)

    def test_worked_value(self):
        q, m, k, H, alpha = 2, 4, 2, 4.0, 3.0
        x = k * q ** (m - H)
        expected = (alpha - k) * m / (k * (alpha - 1)) + alpha / (alpha - 1) * math.log2(
            x / math.log1p(x)
        )
        assert bound_alpha_above_k(q, m, k, alpha, H) == pytest.approx(expected)

    def test_alpha_must_exceed_k(self):
        with pytest.raises(ValueError):
            bound_alpha_above_k(2, 2, 3, 3.0, 2.0)


class TestThresholds:
    def test_integer_alpha_worked_value(self):
        thr = m_threshold("integer-alpha", 2, 8.0, 0.01, alpha=2)
        assert thr == pytest.approx(8 - math.log2(2 / (0.01 * math.log(2))), abs=1e-12)
        assert thr == pytest.approx(-0.1726, abs=1e-3)

    def test_corollary_formula(self):
        thr = m_threshold("corollary", 2, 8.0, 0.01, alpha=2.0)
        assert thr == pytest.approx(8 - math.log2(1 / (0.01 * math.log(2))), abs=1e-12)

    def test_large_epsilon_admits_m_at_entropy(self):
        # Once the log term is <= 0 the threshold is >= H.
        thr = m_threshold("integer-alpha", 2, 4.0, 10.0, alpha=2)
        assert thr >= 4.0

    def test_min_entropy_regime(self):
        thr = m_threshold("min-entropy", 2, 5.0, 0.1, k=3)
        assert thr == pytest.approx(5 - math.log2(3 / (0.2 * math.log(2))), abs=1e-12)

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            m_threshold("nope", 2, 1.0, 0.1)
        with pytest.raises(ValueError):
            m_threshold("integer-alpha", 2, 1.0, 0.1, alpha=2.5)
        with pytest.raises(ValueError):
            m_threshold("corollary", 2, 1.0, -0.1, alpha=2.0)


class TestBucketBound:
    def test_balanced_case_matches_sqrt_regime(self):
        # |A| = q^m = N at k = 2: bound is 2 sqrt(N) / ln 3.
        for m in (2, 4, 6):
            N = 2**m
            assert bucket_bound(2, m, 2, N) == pytest.approx(
                2 * math.sqrt(N) / math.log(3)
            )

    def test_k_equals_log_regime(self):
        # k = m = log_q N reproduces the N^{1/k} = q scaling.
        q, m = 2, 6
        N = q**m
        assert bucket_bound(q, m, m, N) == pytest.approx(q * m / math.log(m + 1))

    def test_nonincreasing_in_k_for_balanced_load(self):
        m = 6
        N = 2**m
        vals = [bucket_bound(2, m, k, N) for k in range(2, m + 1)]
        for lo, hi in zip(vals[1:], vals):
            assert lo <= hi + 1e-12

    def test_rejects_empty_subset(self):
        with pytest.raises(ValueError):
            bucket_bound(2, 2, 2, 0)


class TestSatisfied:
    def test_slack_is_the_only_allowance(self):
        assert satisfied(1.0, 1.0) and satisfied(1.0 + SLACK, 1.0)
        assert satisfied(1.0 + 0.5 * SLACK, 1.0)
        assert not satisfied(1.0 + 2 * SLACK, 1.0)

    def test_nan_never_satisfies(self):
        assert not satisfied(math.nan, 1.0)
        assert not satisfied(0.0, math.nan)
