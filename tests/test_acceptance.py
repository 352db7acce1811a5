"""End-to-end acceptance checks.

Each test below is one acceptance criterion; running ``pytest -v`` on this
module prints one PASSED/FAILED line per criterion.  Tolerances are pinned as
module constants.  Everything runs by exact enumeration at desk scale
(q = 2, n = 3), well under a minute single-worker.
"""

import itertools
import math

import numpy as np

from renyi_extract import bounds as bd
from renyi_extract.extraction import expected_max_bucket, extract_joint
from renyi_extract.families import HashFamily, certify_k_star
from renyi_extract.fields import FieldParams
from renyi_extract.measures import (
    Alpha,
    Pmf,
    conditional_divergence,
    empirical_divergences,
    joint_divergence_from_uniform,
    renyi_divergence,
    renyi_entropy,
    tilde_conditional_entropy,
)

from conftest import integer_order_bound, make_source, table_keys

SLACK = 1e-9
IDENTITY_TOL = 1e-12
GAMMA_REL_TOL = 1e-10
POISSON_REL_TOL = 1e-9

FIELD = FieldParams.create(2, 3)
K_VALUES = (2, 3)
M_VALUES = (1, 2)
EPSILONS = (0.1, 0.01)
ALPHA_VALUES = (1.25, 1.5, 2.0, 2.5, 3.0)

SOURCES = {
    "uniform": [0.125] * 8,
    "two-spike": [0.75, 0.25, 0, 0, 0, 0, 0, 0],
    "eight-point": [0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05],
}

SIDE_ROWS = np.array([[0.8, 0.2], [0.3, 0.7]] * 4)


def grid_alphas(k):
    return [Alpha(a) for a in ALPHA_VALUES if 1.0 < a <= k]


def grid_results(side_channel=None):
    """Exact joints for every (k, m, source) grid point."""
    for k, m, (src_name, probs) in itertools.product(
        K_VALUES, M_VALUES, SOURCES.items()
    ):
        family = HashFamily("polynomial", FIELD, k, m)
        source = make_source(FIELD, probs, side_channel=side_channel)
        yield src_name, extract_joint(family, source)


def report(number, label, ok):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {number}: {label}")
    assert ok, f"criterion {number} ({label}) failed"


def test_01_joint_divergence_dominated_by_closed_form_bound():
    ok = True
    for _, result in grid_results():
        family = result.family
        grid = grid_alphas(family.k)
        table = empirical_divergences(result.joint, table_keys(grid))
        for alpha in grid:
            h = result.source.bound_entropy(alpha)
            bound = bd.bound_real_alpha(2, family.m, family.k, alpha.value, h)
            ok = ok and table["joint", alpha] <= bound + SLACK
    report(1, "joint divergence within real-order bound on full grid", ok)


def test_02_output_length_thresholds_deliver_epsilon_closeness():
    ok = True
    for _, result in grid_results():
        family = result.family
        m = family.m
        grid = grid_alphas(family.k)
        table = empirical_divergences(result.joint, table_keys(grid))
        for alpha in grid:
            a = alpha.value
            h = result.source.bound_entropy(alpha)
            for eps in EPSILONS:
                thresholds = []
                if a >= 2 and a == int(a):
                    thresholds.append(
                        bd.m_threshold("integer-alpha", 2, h, eps, alpha=a)
                    )
                if a <= 2:
                    thresholds.append(bd.m_threshold("corollary", 2, h, eps, alpha=a))
                for thr in thresholds:
                    if m <= thr:
                        ok = ok and table["joint", alpha] <= eps + SLACK
                        ok = ok and table["joint", Alpha.one()] <= eps + SLACK
    report(2, "below-threshold output lengths give divergence <= epsilon", ok)


def test_03_conditional_divergence_above_family_order():
    ok = True
    cases = {2: (Alpha(3.0), Alpha(5.0), Alpha.infinity()), 3: (Alpha.infinity(),)}
    for k, m, (_, probs) in itertools.product(K_VALUES, M_VALUES, SOURCES.items()):
        family = HashFamily("polynomial", FIELD, k, m)
        result = extract_joint(family, make_source(FIELD, probs))
        h_k = result.source.bound_entropy(Alpha(float(k)))
        for a in cases[k]:
            emp = conditional_divergence(result.joint, a)
            bound = (
                bd.bound_infty(2, m, k, h_k)
                if a.is_infinite
                else bd.bound_alpha_above_k(2, m, k, a.value, h_k)
            )
            ok = ok and emp <= bound + SLACK
        for eps in EPSILONS:
            if m <= bd.m_threshold("min-entropy", 2, h_k, eps, k=k):
                emp = conditional_divergence(result.joint, Alpha.infinity())
                ok = ok and emp <= m / k + eps + SLACK
    report(3, "conditional divergence tail bounds and min-entropy threshold", ok)


def test_04_bounds_hold_under_binary_side_information():
    ok = True
    for _, result in grid_results(side_channel=SIDE_ROWS):
        family = result.family
        m = family.m
        grid = grid_alphas(family.k)
        table = empirical_divergences(result.joint, table_keys(grid))
        for alpha in grid:
            a = alpha.value
            h = result.source.conditional_entropy(alpha)
            bound = bd.bound_real_alpha(2, m, family.k, a, h)
            ok = ok and table["joint", alpha] <= bound + SLACK
            for eps in EPSILONS:
                if a >= 2 and a == int(a):
                    thr = bd.m_threshold("integer-alpha", 2, h, eps, alpha=a)
                    if m <= thr:
                        ok = ok and table["joint", alpha] <= eps + SLACK
                if a <= 2:
                    thr = bd.m_threshold("corollary", 2, h, eps, alpha=a)
                    if m <= thr:
                        ok = ok and table["joint", alpha] <= eps + SLACK
    report(4, "side-information variants with conditional source entropy", ok)


def poisson_moment_series(k, lam, terms=400):
    acc = [
        math.exp(-lam + j * math.log(lam) - math.lgamma(j + 1) + k * math.log(j))
        for j in range(1, terms)
    ]
    return math.fsum(acc)


def test_05_poisson_moment_identity_and_simple_majorant():
    ok = True
    for k, lam in itertools.product(range(2, 9), (0.5, 1.0, 2.0, 8.0)):
        stirling_sum = sum(bd.stirling2(k, l) * lam**l for l in range(1, k + 1))
        series = poisson_moment_series(k, lam)
        ok = ok and abs(stirling_sum - series) <= POISSON_REL_TOL * series
        m = 2
        h = m + math.log2(lam)
        ok = ok and bd.bound_real_alpha(2, m, k, float(k), h) <= bd.dk_bound_simple(
            2, m, k, h
        ) + SLACK
    report(5, "Stirling sum equals Poisson moment; simple bound majorizes", ok)


def enumerate_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partial in enumerate_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [partial[i] + [head]] + partial[i + 1 :]
        yield [[head]] + partial


def test_06_stirling_numbers_and_integer_order_consistency():
    ok = True
    for k in range(1, 8):
        counts = {}
        for partition in enumerate_partitions(list(range(k))):
            counts[len(partition)] = counts.get(len(partition), 0) + 1
        for l in range(1, k + 1):
            ok = ok and bd.stirling2(k, l) == counts.get(l, 0)
    for alpha in (2, 3, 4):
        for m, h in ((1, 2.5), (2, 3.0), (3, 5.0)):
            ok = ok and abs(
                bd.bound_real_alpha(2, m, alpha, float(alpha), h)
                - integer_order_bound(2, m, alpha, h)
            ) <= IDENTITY_TOL
    report(6, "Stirling enumeration and integer-order bound agreement", ok)


def test_07_gamma_inverse_round_trip_and_sharp_threshold():
    ok = True
    for x in (0.1, 1.0, 2.0, 10.0, 100.0):
        y = x / math.log(x + 1)
        ok = ok and abs(bd.gamma_fn(y) - x) <= GAMMA_REL_TOL * x
    for k, h, eps in ((2, 3.0, 0.1), (3, 3.0, 0.01), (4, 6.0, 0.5)):
        gamma_val = bd.gamma_fn(2.0 ** (eps * (k - 1) / k))
        m = h + math.log2(gamma_val / k)
        ok = ok and bd.dk_bound_sharp(2, m, k, h) <= eps + SLACK
    report(7, "gamma inverse round trips; sharp threshold attains epsilon", ok)


def test_08_expected_largest_bucket():
    family = HashFamily("polynomial", FIELD, 2, 2)
    est = expected_max_bucket(family, range(FIELD.size))
    closed_form = 2 * 2 / math.log(3)
    ok = est.mean <= closed_form + SLACK
    ok = ok and est.mean <= bd.bucket_bound(2, 2, 2, 8) + SLACK

    small = FieldParams.create(2, 2)
    table_family = HashFamily("full_table", small, 2, 2)
    exact = expected_max_bucket(table_family, range(small.size))
    total = 0
    tables = 0
    for assignment in itertools.product(range(4), repeat=4):
        loads = [0, 0, 0, 0]
        for bucket in assignment:
            loads[bucket] += 1
        total += max(loads)
        tables += 1
    ok = ok and exact.mean == total / tables
    report(8, "expected largest bucket bounded and matches enumeration", ok)


def test_09_universality_certification():
    ok = True
    for k, m in itertools.product(K_VALUES, M_VALUES):
        family = HashFamily("polynomial", FIELD, k, m)
        ok = ok and all(v.passed for v in certify_k_star(family))
    constant = certify_k_star(HashFamily("constant", FIELD, 2, 1))
    ok = ok and constant[0].l == 2 and not constant[0].passed

    small = FieldParams.create(2, 2)
    for m in (1, 2):
        table_family = HashFamily("full_table", small, 3, m)
        for v in certify_k_star(table_family):
            # Collision probability exactly 2^-rank = 2^-m(l-1).
            ok = ok and v.rank == v.required == m * (v.l - 1)
    report(9, "polynomial certified, constant rejected, full table exact", ok)


def test_10_structural_identities_on_computed_joints():
    ok = True
    alphas = [Alpha(1.25), Alpha(1.5), Alpha(2.0), Alpha(2.5), Alpha(3.0)]
    for _, result in grid_results():
        m = result.family.m
        joint = result.joint
        joints = [joint_divergence_from_uniform(joint, a) for a in alphas]
        conds = [conditional_divergence(joint, a) for a in alphas]
        for lo, hi in zip(joints, joints[1:]):
            ok = ok and hi >= lo - IDENTITY_TOL
        for j, c in zip(joints, conds):
            ok = ok and c <= j + IDENTITY_TOL
        marginal = Pmf(joint.probs.sum(axis=1), 2)
        uniform = Pmf.uniform(joint.probs.shape[0], 2)
        for a in alphas + [Alpha.one(), Alpha.infinity()]:
            lhs = renyi_divergence(marginal, uniform, a)
            rhs = m - renyi_entropy(marginal, a)
            ok = ok and abs(lhs - rhs) <= IDENTITY_TOL
        for a in alphas:
            lhs = conditional_divergence(joint, a)
            rhs = m - tilde_conditional_entropy(joint, a)
            ok = ok and abs(lhs - rhs) <= IDENTITY_TOL
    report(10, "divergence monotonicity, Jensen dominance, entropy identities", ok)
