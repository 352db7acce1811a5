"""The least GF(q)-rank over a family's l-subsets, ranked along their
combination tree.  Imported by ``families.verify_universality`` only, so that
a run that does not certify does not compile it; it imports ``_translates``
for the row reduction.

The rows of an l-subset {x_1 < ... < x_l} are B_{x_i} - B_{x_1} mod q for
i = 2 .. l, m per input.  The subsets with the same first l - 1 inputs (a
prefix) share all but their last m rows.  So each prefix's rows are brought
to reduced row-echelon form once (``_translates._row_reduce``), and each leaf
x_l's m rows v are reduced against them as v - v[:, pivots] @ reduced mod q:
the subset's rank is the prefix's plus that of the reduced m rows.  Only
the subsets holding inputs 0 .. fixed-1 are ranked (``verify_universality``
says which), so a prefix is those inputs plus l-1-fixed more, and its leaves
are the inputs above its last one: a slice to the end of the basis, taken
BLOCK cells at a time.  All of it is exact int64 arithmetic: a reduced row
sums at most D products of two digits.
"""

from __future__ import annotations

import itertools

import numpy as np

from ._translates import _row_reduce
from .families import BLOCK


def _ranks_mod_q(a: np.ndarray, q: int) -> np.ndarray:
    """GF(q)-rank of each matrix in a stack with entries in [0, q), q prime.
    Eliminates in place."""
    if a.shape[1] > a.shape[2]:  # eliminate along the shorter side
        a = a.transpose(0, 2, 1)
    for i in range(a.shape[1]):
        row, below = a[:, i : i + 1], a[:, i + 1 :]
        col = (row != 0).argmax(axis=2)[..., None]
        pivot = np.take_along_axis(row, col, axis=2)
        factor = np.take_along_axis(below, col, axis=2)
        # Scaling a row by a unit keeps the rank, so no inverse mod q is needed.
        below[...] = (np.where(pivot, pivot, 1) * below - factor * row) % q
    return np.count_nonzero(a.any(axis=2), axis=1)


def least_rank(basis: np.ndarray, q: int, l: int, fixed: int) -> int:
    """The least rank over the l-subsets holding inputs 0 .. fixed-1 of a
    (N, m, D) basis with entries in [0, q).  The walk takes the prefixes that
    have leaves, in order: 0 .. fixed-1 plus each (l-1-fixed)-subset of
    fixed .. N-2."""
    n_inputs, m, n_digits = basis.shape
    per_batch = max(1, BLOCK // max(1, m * n_digits))
    best = m * (l - 1)
    for rest in itertools.combinations(range(fixed, n_inputs - 1), l - 1 - fixed):
        if not best:  # no subset ranks below 0
            break
        prefix = (*range(fixed), *rest)
        first = basis[prefix[0]]
        rows = (basis[list(prefix[1:])] - first) % q
        pivots, reduced = _row_reduce(rows.reshape(m * (l - 2), n_digits), q)
        for start in range(prefix[-1] + 1, n_inputs, per_batch):
            leaves = (basis[start : start + per_batch] - first) % q
            leaves -= leaves[:, :, pivots] @ reduced
            leaves %= q
            best = min(best, len(pivots) + int(_ranks_mod_q(leaves, q).min()))
    return best
