import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_source, poly_family

from renyi_extract import measures
from renyi_extract.bounds import SLACK
from renyi_extract.extraction import ExtractionResult, empirical_divergences, extract_joint
from renyi_extract.families import HashFamily, evaluate
from renyi_extract.fields import FieldParams
from renyi_extract.measures import (
    _columns,
    Alpha,
    JointPmf,
    Pmf,
    conditional_divergence,
    conditional_divergences,
    conditional_renyi_entropy,
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

    def test_joint_marginals(self):
        j = JointPmf(np.array([[0.4, 0.1], [0.1, 0.4]]), 2)
        assert np.allclose(j.marginal(0).probs, [0.5, 0.5])
        assert np.allclose(j.marginal(1).probs, [0.5, 0.5])


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
        j = JointPmf(np.full((4, 3), 1 / 12), 2)
        for a in ALPHA_GRID:
            assert conditional_divergence(j, a) == pytest.approx(0.0, abs=1e-12)

    def test_seed_independent_joint(self):
        pu = np.array([0.5, 0.25, 0.125, 0.125])
        j = JointPmf(np.outer(pu, [0.5, 0.5]), 2)
        uniform = Pmf.uniform(4, 2)
        for a in ALPHA_GRID:
            expected = renyi_divergence(Pmf(pu, 2), uniform, a)
            assert conditional_divergence(j, a) == pytest.approx(expected, abs=1e-12)

    def test_identity_m_minus_tilde_entropy(self):
        rng = np.random.default_rng(7)
        arr = rng.random((4, 6))
        arr /= arr.sum()
        j = JointPmf(arr, 2)
        for a in (Alpha(1.5), Alpha(2.0), Alpha(2.5)):
            assert conditional_divergence(j, a) == pytest.approx(
                2.0 - tilde_conditional_entropy(j, a), abs=1e-12
            )


class TestJointDivergenceFromUniform:
    def test_product_of_uniform_and_marginal_gives_zero(self):
        ps = np.array([0.2, 0.3, 0.5])
        j = JointPmf(np.outer([0.25] * 4, ps), 2)
        for a in ALPHA_GRID:
            assert joint_divergence_from_uniform(j, a) == pytest.approx(0.0, abs=1e-12)

    def test_dominates_conditional_divergence(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            arr = rng.random((4, 5))
            arr /= arr.sum()
            j = JointPmf(arr, 2)
            for a in ALPHA_GRID:
                assert conditional_divergence(j, a) <= joint_divergence_from_uniform(
                    j, a
                ) + 1e-12

    def test_against_flat_direct_summation_oracle(self):
        arr = np.array([[0.15, 0.05], [0.35, 0.45]])
        j = JointPmf(arr, 2)
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
        j = JointPmf(np.array([[0.4, 0.1], [0.1, 0.4]]), 2)
        with pytest.raises(ValueError, match="too large"):
            conditional_divergence(j, self.A)

    @pytest.mark.parametrize("entropy", [conditional_renyi_entropy, tilde_conditional_entropy])
    def test_conditional_entropies(self, entropy):
        # Every (1/16)^300 underflows to 0, so each column's power sum is 0.
        j = JointPmf(np.full((16, 2), 1 / 32), 2)
        with pytest.raises(ValueError, match="too large"):
            entropy(j, Alpha(300.0))


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
            joints.append(JointPmf(arr / arr.sum(), base_q))
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


def ungrouped_table(joint, alphas):
    """The divergence table walked over every column in order, with no
    grouping: _divergence once per column for the conditional functionals and
    once over every cell against its column's reference for the joint ones.
    Returns ([(joint, conditional) per order], tv, kl, conditional_inf)."""
    arr = joint.probs
    n_out = arr.shape[0]
    lnq = math.log(joint.base_q)
    flat = arr.reshape(n_out, -1)
    cells = flat.T.ravel().tolist()
    refs = np.repeat((arr.sum(axis=0) / n_out).ravel(), n_out).tolist()
    uniform = [1.0 / n_out] * n_out

    def conditional(a):
        terms = []
        for col in flat.T.tolist():
            w = math.fsum(col)
            if w == 0:
                continue
            cond = [p / w for p in col if p > 0]
            measures._check_sum(cond)
            terms.append(w * measures._divergence(cond, uniform, a, lnq))
        return math.fsum(terms)

    rows = [(measures._divergence(cells, refs, a, lnq), conditional(a)) for a in alphas]
    kl = measures._divergence(cells, refs, Alpha.one(), lnq)
    return rows, measures._tv(cells, refs), kl, conditional(Alpha.infinity())


def assert_matches_ungrouped(table, joint, alphas):
    rows, tv, kl, conditional_inf = ungrouped_table(joint, alphas)
    assert [(r.joint, r.conditional) for r in table.rows] == rows
    assert [r.alpha for r in table.rows] == alphas
    assert table.tv_to_uniform == tv
    assert table.kl_to_uniform == kl
    assert table.conditional_inf == conditional_inf


def _group_count(joint):
    """Distinct (sorted column, reference) byte strings, counted in Python."""
    arr = joint.probs
    n_out = arr.shape[0]
    refs = (arr.sum(axis=0) / n_out).ravel()
    columns = arr.reshape(n_out, -1).T
    return len({(np.sort(col).tobytes(), ref.tobytes()) for col, ref in zip(columns, refs)})


@st.composite
def repeated_joints(draw):
    """2- and 3-axis joints whose columns repeat: each is a copy, a permuted
    copy or a one-ulp nudge of a few base columns, or all zero.  Permuted
    copies sum in another order, so their references may differ by an ulp."""
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
    shape = (n_out, n_s) if n_z is None else (n_out, n_s, n_z)
    return JointPmf((flat / flat.sum()).reshape(shape), draw(st.sampled_from([2, 3])))


@given(repeated_joints())
@settings(max_examples=150, deadline=None)
def test_grouped_table_matches_ungrouped_walk_on_repeated_columns(joint):
    alphas = [Alpha.one(), Alpha(1.5), Alpha(2.0), Alpha(3.0), Alpha(7.5), Alpha.infinity()]
    # empirical_divergences reads only the joint.
    table = empirical_divergences(ExtractionResult(joint, None, None), alphas)
    assert_matches_ungrouped(table, joint, alphas)


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
            assert conditional_renyi_entropy(j, a) == cond
            assert tilde_conditional_entropy(j, a) == tilde

    def test_all_orders_from_one_read(self):
        for j in self.JOINTS:
            expected = [_old_conditional_divergence(j, a) for a in ALPHA_GRID]
            assert conditional_divergences(j, ALPHA_GRID) == expected

    def test_divergence_table_conditional_inf(self, gf4):
        for sc in (None, EXTRACTED_SIDE):
            result = _extracted(gf4, sc)
            table = empirical_divergences(result, ALPHA_GRID)
            inf = Alpha.infinity()
            expected = _old_conditional_divergence(result.joint, inf)
            assert table.conditional_inf == conditional_divergence(result.joint, inf)
            assert table.conditional_inf == expected
            for row, a in zip(table.rows, ALPHA_GRID):
                assert row.conditional == _old_conditional_divergence(result.joint, a)

    def test_one_column_walk_per_divergence_table(self, gf4, monkeypatch):
        walks = []
        columns = measures._columns

        def counting(arr, *args):
            walks.append(arr.shape)
            return columns(arr, *args)

        monkeypatch.setattr(measures, "_columns", counting)
        for sc in (None, EXTRACTED_SIDE):
            result = _extracted(gf4, sc)
            walks.clear()
            empirical_divergences(result, ALPHA_GRID + [Alpha(2.0)])
            # One walk, over one column per distinct (column, reference) group.
            groups = _group_count(result.joint)
            assert groups < result.joint.probs[0].size
            assert walks == [(result.joint.probs.shape[0], groups)]

    def test_joint_read_in_place(self, gf4):
        # Row by row against the cycled reference gives the same bits as the
        # flattened copies: fsum is correctly rounded, whatever the order.
        joints = self.JOINTS + [_extracted(gf4, sc).joint for sc in (None, EXTRACTED_SIDE)]
        for j in joints:
            flat, ref = _old_flattened(j)
            for a in ALPHA_GRID + [Alpha(7.5)]:
                assert joint_divergence_from_uniform(j, a) == renyi_divergence(flat, ref, a)
            assert measures.joint_tv_from_uniform(j) == tv_distance(flat, ref)

    def test_divergence_table_builds_no_pmf(self, gf4, monkeypatch):
        for sc in (None, EXTRACTED_SIDE):
            result = _extracted(gf4, sc)
            monkeypatch.setattr(measures, "_freeze_probs", None)  # any build fails
            table = empirical_divergences(result, ALPHA_GRID)
            monkeypatch.undo()
            flat, ref = _old_flattened(result.joint)
            assert table.tv_to_uniform == tv_distance(flat, ref)
            assert table.kl_to_uniform == renyi_divergence(flat, ref, Alpha.one())
            for row, a in zip(table.rows, ALPHA_GRID):
                assert row.joint == renyi_divergence(flat, ref, a)

    @pytest.mark.parametrize("kind,q,n,k,m", TABLE_FAMILIES)
    @pytest.mark.parametrize("source", ["dirichlet", "point-mass", "sparse"])
    @pytest.mark.parametrize("side", [0, 3])
    def test_grouped_table_matches_ungrouped_walk(self, kind, q, n, k, m, source, side):
        result = _instance(kind, q, n, k, m, source, side)
        alphas = ALPHA_GRID + [Alpha(7.5)]
        table = empirical_divergences(result, alphas)
        assert_matches_ungrouped(table, result.joint, alphas)

    def test_unpermuted_columns_match_the_oracle(self):
        # Seeds 0 and 1 share an s_0-orbit, but seed 1's column is no longer
        # a permutation of seed 0's: the grouping assumes nothing of the
        # family, so the table still has the ungrouped walk's bits.
        result = _instance("polynomial", 2, 2, 2, 1, "dirichlet", 0)
        arr = result.joint.probs.copy()
        arr[:, 1] = arr[:, 1].sum() / 2
        assert sorted(arr[:, 1]) != sorted(arr[:, 0])
        tampered = ExtractionResult(JointPmf(arr, 2), result.family, result.source)
        table = empirical_divergences(tampered, ALPHA_GRID)
        assert_matches_ungrouped(table, tampered.joint, ALPHA_GRID)

    def test_column_reader_checks_normalisation(self):
        # The check each per-cell Pmf made: a column that cannot be
        # normalised (here an infinite entry) is refused.
        with pytest.raises(ValueError):
            list(_columns(np.array([[math.inf, 0.5], [0.5, 0.0]])))
        assert [w for w, *_ in _columns(np.array([[0.5, 0.0], [0.25, 0.0]]))] == [0.75]


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
