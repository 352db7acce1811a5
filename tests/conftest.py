import math
from types import SimpleNamespace

import numpy as np
import pytest

from renyi_extract import HashFamily, Pmf, Source, measures
from renyi_extract.bounds import logq_sum_exp, stirling2
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


def make_source(field, probs, side_channel=None):
    return Source(Pmf(np.asarray(probs, dtype=float), field.q), side_channel)


def uniform_source(field, side_channel=None):
    n = field.size
    return make_source(field, np.full(n, 1.0 / n), side_channel)


def poly_family(field, k, m):
    return HashFamily("polynomial", field, k, m)


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
        totals = arr.sum(axis=0)[None]
    groups = measures._group_columns(arr, totals)
    return SimpleNamespace(probs=arr, base_q=base_q, _groups=groups)


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
