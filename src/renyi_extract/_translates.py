"""The translate group T of a family on some inputs, its cosets, and the
row reduction mod q that finds them.  Imported by extraction's coset walk
(``extraction._cosets``) and by the certifier (``_certify``), so that a run
that neither extracts, nor takes an exact bucket, nor certifies does not
compile it.

The seeds t with t . B_x the same for every input x form a group T; adding t
to a seed shifts all its outputs by one constant, so extraction and the
exact bucket experiment hash one seed per coset of T (``_translates``, one
``_row_reduce`` of the basis differences), and the certifier ranks each
prefix of an l-subset with the same ``_row_reduce``.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .families import HashFamily, _all_digit_rows, _prepared


# eq=False: equality and hashing by value fail on an ndarray field.
class Cosets(Record, eq=False):
    """The cosets of the translate group T on some inputs (``_translates``).

    Representative i sets seed digit pivots[j] to digit j of i, least
    significant first, and every other digit to 0; there are q^r of them for
    r pivots, and each coset holds ``translates`` = q^(D - r) seeds.  A seed
    with digit row s lies in the coset of the representative whose pivot
    digits are reduced @ s mod q, and its outputs are that representative's
    shifted digitwise by moves @ s mod q.
    """

    pivots: np.ndarray  # (r,)
    translates: int
    reduced: np.ndarray  # (r, D)
    moves: np.ndarray  # (m, D)

    def shifts(self, q: int) -> np.ndarray:
        """The distinct output shifts t . B_{x_0} over t in T, as m-digit rows:
        the span of the columns of moves, as every combination of the rows one
        ``_row_reduce`` leaves.  Their order is not set; extraction's groups
        come in lexsort order whatever order the shifts merge in."""
        _, rows = _row_reduce(self.moves.T.copy(), q)
        return _all_digit_rows(len(rows), q) @ rows % q


def _translates(family: HashFamily, inputs) -> Cosets:
    """The ``Cosets`` of the translate group T on the given inputs, listing
    neither the representatives nor the translates.

    T holds the seeds t with t . (B_x - B_{x_0}) = 0 mod q for every input x,
    so h(r + t, x) = h(r, x) + t . B_{x_0} digitwise: adding t shifts every
    output of a seed by one constant.  Row reduction of the D x (inputs * m)
    matrix [B_x - B_{x_0}]_x mod q finds its pivot digits; every seed is
    r + t (digitwise mod q) for exactly one representative r (zero off the
    pivots) and one t in T, whose free digits are the seed's.  T's basis
    vector for free digit f is e_f minus the pivot digits that cancel column f
    of the reduced rows, so t . B_{x_0} is linear in the seed: column f of
    ``moves`` is that vector's shift, and a pivot column is 0.  The inputs
    must be non-empty, and may be an ``Inputs`` (``_prepared``).
    """
    q, n_digits = family.field.q, family.seed_digits
    basis = _prepared(family, inputs).basis  # (D, inputs, m)
    a = (basis - basis[:, :1]).transpose(1, 2, 0) % q  # a row per (x, j)
    pivots, reduced = _row_reduce(a.reshape(basis.shape[1] * family.m, n_digits), q)
    pivots, b0 = np.array(pivots, dtype=np.int64), basis[:, 0]
    moves = (b0 - reduced.T @ b0[pivots]).T % q  # 0 in the pivot columns
    return Cosets(pivots, q ** (n_digits - len(pivots)), reduced, moves)


def _row_reduce(a: np.ndarray, q: int) -> tuple[list, np.ndarray]:
    """(pivots, rows): the reduced row-echelon form mod q of a matrix with
    entries in [0, q), q prime, which may have its rows swapped in place.  Its
    non-zero rows, one per pivot column, are 1 there and the only non-zero
    in that column."""
    pivots, row, d = [], 0, 0
    while row < len(a):
        # The next pivot is the first column from d with a non-zero below row.
        ahead = np.flatnonzero(a[row:, d:].any(axis=0))
        if not ahead.size:
            break
        d += int(ahead[0])
        below = np.flatnonzero(a[row:, d])
        a[[row, row + below[0]]] = a[[row + below[0], row]]
        a[row] = a[row] * pow(int(a[row, d]), -1, q) % q
        factor = a[:, d].copy()
        factor[row] = 0
        a = (a - factor[:, None] * a[row]) % q
        pivots.append(d)
        row, d = row + 1, d + 1
    return pivots, a[:row].copy()
