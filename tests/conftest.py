import importlib.util
import itertools
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from renyi_extract import HashFamily, Pmf, Source, extraction, measures
from renyi_extract.bounds import logq_sum_exp, stirling2
from renyi_extract import families
from renyi_extract.families import hash_table
from renyi_extract.fields import FieldParams


@pytest.fixture(scope="session")
def gf4():
    return FieldParams.create(2, 2)


@pytest.fixture(scope="session")
def gf8():
    return FieldParams.create(2, 3)


@pytest.fixture(scope="session")
def gf9():
    return FieldParams.create(3, 2)


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's workload definitions, loaded from their file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up here
    spec.loader.exec_module(module)
    return module


def make_source(field, probs, side_channel=None):
    return Source(Pmf(np.asarray(probs, dtype=float), field.q), side_channel)


def uniform_source(field, side_channel=None):
    n = field.size
    return make_source(field, np.full(n, 1.0 / n), side_channel)


def poly_family(field, k, m):
    return HashFamily("polynomial", field, k, m)


def full_rank_scan(family, l, chunk=20_000):
    """The least GF(q)-rank of [B_{x_2} - B_{x_1} | ... | B_{x_l} - B_{x_1}]
    over all C(N, l) l-subsets, ranked ``chunk`` subsets at a time: the
    unreduced certificate that the affine reduction must equal."""
    q, m, n_digits = family.field.q, family.m, family.seed_digits
    n_inputs = family.field.size
    basis = families._basis(family, np.arange(n_inputs)).transpose(1, 2, 0)
    basis = basis.astype(np.min_scalar_type(-q * q))
    subsets = itertools.combinations(range(n_inputs), l)
    best = m * (l - 1)
    while block := list(itertools.islice(subsets, chunk)):
        block = np.array(block)
        stacked = (basis[block[:, 1:]] - basis[block[:, :1]]) % q
        stacked = stacked.reshape(len(block), m * (l - 1), n_digits)
        best = min(best, int(families._ranks_mod_q(stacked, q).min()))
    return best


def loop_basis(family, xs):
    """The polynomial basis that the doubling ``families._basis`` replaced,
    kept as its oracle: x^i and X^t x^i stepped one seed digit at a time in
    Python, k * n iterations."""
    f, m = family.field, family.m
    q, n = f.q, f.n
    basis = np.empty((family.seed_digits, len(xs), m), dtype=np.int64)
    x_digits = np.asarray(xs)[:, None] // q ** np.arange(n) % q
    modulus = np.array(f.modulus, dtype=np.int64)
    power = np.zeros((len(xs), n), dtype=np.int64)
    power[:, 0] = 1  # x^0
    for i in range(family.k):
        term, nxt = power, np.zeros_like(power)
        for t in range(n):
            basis[i * n + t] = term[:, :m]
            nxt += x_digits[:, t : t + 1] * term  # x^(i+1) = sum_t x_t X^t x^i
            top = term[:, -1:]
            term = np.concatenate([np.zeros_like(top), term[:, :-1]], axis=1)
            term = (term - top * modulus) % q
        power = nxt % q
    return basis


def column_loop_largest_buckets(table):
    """The per-column walk that ``extraction._largest_buckets`` replaced,
    kept as its oracle: each sorted row's current and longest run, one numpy
    step per column."""
    ordered = np.sort(table, axis=1)
    run = best = np.ones(len(ordered), dtype=np.int64)
    for j in range(1, ordered.shape[1]):
        run = np.where(ordered[:, j] == ordered[:, j - 1], run + 1, 1)
        best = np.maximum(best, run)
    return best


def dense_joint(family, source):
    """P(u, s[, z]) by tabulating every seed: the all-seed ``hash_table``, one
    input's mass at a time in input order, then one in-place scale by
    1/seeds.  The oracle that coset extraction must match bit for bit."""
    seeds, n_inputs = family.seed_space_size, family.field.size
    all_seeds = np.arange(seeds)
    table = hash_table(family, all_seeds, range(n_inputs))
    px, sc = source.probs.probs, source.side_channel
    shape = (family.output_size, seeds) + (() if sc is None else (source.n_side,))
    acc = np.zeros(shape)
    for i in range(n_inputs):
        acc[table[:, i], all_seeds] += px[i] if sc is None else px[i] * sc[i]
    acc *= 1.0 / seeds
    return acc


def output_joint(arr, base_q=2):
    """A dense output joint P(u, s[, z]) built by hand, as the divergence
    readers take it: a read-only copy of arr, its base and its column groups.
    Each column is its own one variant, totalled by arr.sum(axis=0), which
    groups as tabulating every seed would, bit for bit."""
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    with np.errstate(over="ignore"):  # an overflowing total fails the sum check
        totals = arr.sum(axis=0)
    groups = extraction._group_columns(arr, [totals])
    return SimpleNamespace(probs=arr, base_q=base_q, _groups=groups)


def variant_totals(joint):
    """The V x C [x Z] totals of an extracted joint's shifted variants, as
    extraction summed them before it grouped one shift at a time: for each
    distinct shift v, rep_joint[u - v] added over u in output order."""
    cosets, columns, q = joint._layout, joint._rep_columns, joint.base_q
    m = len(cosets.moves)
    digits, powers = families._all_digit_rows(m, q), q ** np.arange(m)
    back = (digits - cosets.shifts(q)[:, None]) % q @ powers
    totals = columns[back[:, 0]]
    for u in range(1, len(digits)):
        totals += columns[back[:, u]]
    return totals, cosets.translates // len(back)


def vxc_groups(arr, totals, weight=1):
    """The grouping ``_group_columns`` replaced, kept as the oracle for its
    merge: the columns ranked by one lexsort of their sorted int64 bits, then
    one lexsort of (rank, reference bits) over all V x C variants (totals
    holds one row per variant), and one run per distinct pair."""
    n_out = arr.shape[0]
    bits = np.sort(arr.reshape(n_out, -1).T, axis=1).view(np.int64)
    order = np.lexsort(bits.T[::-1])
    bits = bits[order]
    new = np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)]
    rank = np.empty_like(order)
    rank[order] = np.cumsum(new) - 1
    distinct = bits[new]
    refs = (np.asarray(totals) / n_out).ravel()
    rank = np.tile(rank, len(refs) // len(rank))
    order = np.lexsort((refs.view(np.int64), rank))
    rank, refs = rank[order], refs[order]
    ref_bits = refs.view(np.int64)
    new = (rank[1:] != rank[:-1]) | (ref_bits[1:] != ref_bits[:-1])
    starts = np.flatnonzero(np.r_[True, new])
    counts = np.diff(np.r_[starts, len(order)]) * weight
    return distinct[rank[starts]].view(float).T, refs[starts], counts


def whole_check(cols, counts):
    """The sum check that ``_check_cells`` streams in chunks, over the whole
    array at once: one ``_distinct`` of every group cell, counts summed."""
    cells = measures._distinct(cols.T.ravel(), np.repeat(counts, len(cols)))
    return measures._check_sum(cells[0], cells[2])


def integer_order_bound(q, m, alpha, entropy):
    """The paper's moment-sum bound at integer alpha >= 2:
    (1/(alpha-1)) log_q sum_{l=1}^{alpha} S(alpha, l) q^{(alpha-l)(m-H)},
    the oracle for ``bound_real_alpha`` at integer orders."""
    gap = m - entropy
    terms = [
        math.log(stirling2(alpha, l), q) + (alpha - l) * gap for l in range(1, alpha + 1)
    ]
    return logq_sum_exp(terms, q) / (alpha - 1)


def lexsorted_groups(arr):
    """A joint's column groups by one lexsort of every column's sorted
    entries with its reference arr.sum(axis=0) / U appended, as int64 bit
    patterns: the order and bits ``_group_columns`` must reproduce."""
    n_out = arr.shape[0]
    rows = np.empty((arr[0].size, n_out + 1))
    rows[:, :n_out] = np.sort(arr.reshape(n_out, -1).T, axis=1)
    rows[:, n_out] = (arr.sum(axis=0) / n_out).ravel()
    bits = rows.view(np.int64)
    bits = bits[np.lexsort(bits.T[::-1])]
    starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)])
    counts = np.diff(np.r_[starts, len(bits)])
    groups = bits[starts].view(float)
    return groups[:, :n_out].T, groups[:, n_out], counts


def bits(a):
    """Shape, dtype and raw bytes of an array: equal only when bit-identical."""
    a = np.ascontiguousarray(a)
    return a.shape, a.dtype, a.tobytes()


# The per-column walk that the measures layer's divergence kernel replaced,
# kept as the oracle that every public entry point must match bit for bit:
# each column's terms as Python floats, one scalar ``**`` and ``math.log`` per
# term, summed by ``math.fsum``.


def walk_counted_fsum(terms, counts=None):
    """sum_i counts[i] * terms[i], correctly rounded: fsum over ldexp(term, j)
    for each set bit j of each count; each term once without counts."""
    if counts is None:
        return math.fsum(terms)
    t = np.asarray(terms, dtype=float)[:, None]
    c = np.asarray(counts, dtype=np.int64)[:, None]
    bits = np.arange(int(c.max(initial=0)).bit_length(), dtype=np.intc)
    with np.errstate(over="ignore"):
        parts = np.ldexp(t, bits)[(c >> bits) & 1 == 1]
    return math.fsum(parts.tolist())


def walk_divergence(columns, rs, a, lnq, counts=None):
    """D_alpha of each column of masses ps against reference masses, all Python
    floats, over the terms with p > 0; +inf for a column where some p > 0 has
    r = 0.  ``rs`` is one positive reference shared by every mass of every
    column, or a list with one reference mass per entry of a single column.
    With counts (a single column), pair i stands for counts[i] equal terms
    (the max of D_inf ignores counts).  With lnq None, the power sum
    sum p^alpha r^(1-alpha) of a finite order itself.  A finite order whose
    power sum leaves floating point is refused."""
    b = a.value
    shared = not isinstance(rs, list)
    if shared:
        if a.is_finite_order:
            try:
                r_power = rs ** (1.0 - b)
            except OverflowError:  # every term is inf or NaN: refused below
                r_power = math.inf
        rs = itertools.repeat(rs)

    def column(ps):
        pairs = zip(ps, rs)
        try:
            if a.is_one:
                return walk_counted_fsum(
                    [pi * math.log(pi / ri) if pi > 0 else 0.0 for pi, ri in pairs],
                    counts,
                ) / lnq
            if a.is_infinite:
                return math.log(max(pi / ri for pi, ri in pairs if pi > 0)) / lnq
            if shared:
                terms = [pi ** b * r_power if pi > 0 else 0.0 for pi in ps]
            else:
                terms = [
                    pi ** b * ri ** (1.0 - b) if pi > 0 else 0.0 for pi, ri in pairs
                ]
            s = walk_counted_fsum(terms, counts)
        except ZeroDivisionError:  # p > 0 over r = 0
            return math.inf
        except OverflowError:
            if any(ri == 0 for pi, ri in pairs if pi > 0):  # the terms after it
                return math.inf
            s = math.inf
        if not 0.0 < s < math.inf:
            raise ValueError(f"alpha={b} is too large for floating point; use 'inf'")
        return s if lnq is None else math.log(s) / ((b - 1.0) * lnq)

    return [column(ps) for ps in columns]


def walk_tv(ps, rs, counts=None):
    """Half the L1 distance; with counts as in ``walk_divergence``."""
    return 0.5 * walk_counted_fsum([abs(pi - ri) for pi, ri in zip(ps, rs)], counts)


def walk_columns(arr, counts=None):
    """(w, conditional column, count) for each column of arr read as
    (axis 0, rest) whose mass w is positive: its positive masses divided by
    w, checked to sum to 1 as a pmf would."""
    counts = itertools.repeat(1) if counts is None else counts
    for col, c in zip(arr.reshape(arr.shape[0], -1).T, counts):
        col = col.tolist()
        w = math.fsum(col)
        if w == 0:
            continue
        cond = [p / w for p in col if p > 0]
        measures._check_sum(cond)
        yield w, cond, c


def walk_renyi_entropy(p, a):
    a = measures.as_alpha(a)
    return -walk_divergence([p.probs.tolist()], 1.0, a, math.log(p.base_q))[0]


def walk_renyi_divergence(p, r, a):
    a, lnq = measures.as_alpha(a), math.log(p.base_q)
    return walk_divergence([p.probs.tolist()], r.probs.tolist(), a, lnq)[0]


def walk_tv_distance(p, r):
    return walk_tv(p.probs.tolist(), r.probs.tolist())


def walk_conditional_entropies(joint, a):
    """(H_alpha(X|Z), its log-inside-the-average variant) of an (X, Z) joint."""
    a = measures.as_alpha(a)
    if not a.is_finite_order:
        raise ValueError("defined for finite alpha in (1, inf) only")
    pzs, conds, _ = zip(*walk_columns(joint.probs))
    inner = walk_divergence(conds, 1.0, a, None)
    scale = (1.0 - a.value) * math.log(joint.base_q)
    conditional = math.log(math.fsum(w * s for w, s in zip(pzs, inner))) / scale
    tilde = math.fsum(w * math.log(s) for w, s in zip(pzs, inner)) / scale
    return conditional, tilde


def _walk_merge_runs(rows, counts):
    bits = rows.view(np.int64)
    starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)])
    return rows[starts], np.add.reduceat(counts, starts)


def walk_conditional(joint, a):
    """The seed-averaged divergence walked over a joint's column groups: the
    walk over each distinct sorted column, weighted by its count."""
    cols, _, counts = joint._groups
    distinct, summed = _walk_merge_runs(cols.T, counts)
    weights, conds, kept = zip(*walk_columns(distinct.T, summed.tolist()))
    ds = walk_divergence(conds, 1.0 / distinct.shape[1], a, math.log(joint.base_q))
    return walk_counted_fsum([w * d for w, d in zip(weights, ds)], kept)


def walk_joint(joint, a):
    """The joint divergence walked over a joint's distinct (cell, reference)
    pairs, each counted once per cell; with a None, its TV."""
    cols, refs, counts = joint._groups
    n_out = cols.shape[0]
    pairs = np.empty((cols.size, 2))
    pairs[:, 0] = cols.T.ravel()
    pairs[:, 1] = np.repeat(refs, n_out)
    bits = pairs.view(np.int64)
    order = np.lexsort((bits[:, 1], bits[:, 0]))
    merged, counts = _walk_merge_runs(pairs[order], np.repeat(counts, n_out)[order])
    cells, cell_refs = merged[:, 0].tolist(), merged[:, 1].tolist()
    if a is None:
        return walk_tv(cells, cell_refs, counts)
    return walk_divergence([cells], cell_refs, a, math.log(joint.base_q), counts)[0]


def walk_table(joint, alphas):
    """The divergence table from the walks, in the order the walk formed it:
    the conditional orders and D_inf, then the joint orders, TV and KL."""
    alphas = [measures.as_alpha(a) for a in alphas]
    inf, one = measures.Alpha.infinity(), measures.Alpha.one()
    *averaged, conditional_inf = [walk_conditional(joint, a) for a in alphas + [inf]]
    rows = tuple(
        measures.DivergenceRow(a, walk_joint(joint, a), c) for a, c in zip(alphas, averaged)
    )
    tv = walk_joint(joint, None)
    return measures.DivergenceTable(rows, tv, walk_joint(joint, one), conditional_inf)


def ungrouped_table(joint, alphas):
    """The divergence table walked over every column in order, with no
    grouping: the walk once per column for the conditional functionals and
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
            terms.append(w * walk_divergence([cond], uniform, a, lnq)[0])
        return math.fsum(terms)

    alpha_one = measures.Alpha.one()
    rows = [(walk_divergence([cells], refs, a, lnq)[0], conditional(a)) for a in alphas]
    kl = walk_divergence([cells], refs, alpha_one, lnq)[0]
    return rows, walk_tv(cells, refs), kl, conditional(measures.Alpha.infinity())


def outcome(fn, *args):
    """repr of fn(*args), or the type and message of what it raised: equal
    only when the float bits, or the refusal, are the same."""
    try:
        return repr(fn(*args))
    except (ValueError, OverflowError, ZeroDivisionError) as e:
        return type(e), str(e)
