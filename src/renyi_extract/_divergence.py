"""The D_alpha machinery of ``measures``: one kernel over one layout per pmf
or side of an output joint's table, and the joint's divergence table.
Imported by the first ``measures`` function that computes an entropy or a
divergence, and by extraction's ranking (``_ranking``) for ``_distinct``, so
that a run that does neither, such as a bucket experiment, does not compile
it.

``_kernel`` reads a ``_layout``, built once and read by every order: the
distinct masses and references, the distinct (mass, reference) pairs and
each row's parts.  ``_distinct`` finds equal values or rows by bit pattern,
summing counts, for the layouts and extraction's ranking.  Each order raises
each distinct value to its power once, gathers and multiplies in numpy, and
adds each row with ``math.fsum`` or a counted row with
``measures._counted_fsum``, both correctly rounded, so the results have the
bits of a walk over every cell.  The counted sum and the sum check are
called through ``measures``, where they are defined.  Powers and logs stay
scalar ``pow`` and ``math.log`` (``_scalar``; the bit rule is in
``measures``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import measures
from .measures import NORMALIZATION_TOL, Alpha


def _scalar(f, xs, *args) -> np.ndarray:
    """f over the Python floats xs, as an array: np.power and np.log may
    differ from scalar pow and math.log in the last bit."""
    return np.fromiter(map(f, xs, *args), dtype=float)


def _distinct(x: np.ndarray, counts=None):
    """(the distinct values of the 1-d x or rows of the 2-d x by their int64
    bit patterns, in lexsort order with the first column most significant; the
    index of each entry among them; their summed counts or None): a lexsort
    of bit views; np.unique's inverse changed shape in numpy 2.0."""
    keys = x.view(np.int64).reshape(len(x), -1).T
    order = np.lexsort(keys[::-1])
    keys = keys[:, order]
    new = np.r_[True, (keys[:, 1:] != keys[:, :-1]).any(axis=0)]
    index = np.empty_like(order)
    index[order] = np.cumsum(new) - 1
    new = np.flatnonzero(new)
    if counts is not None:
        counts = np.add.reduceat(counts[order], new)
    return x[order[new]], index, counts


def _layout(masses: np.ndarray, refs, counts=None):
    """What ``_kernel`` reads for D_alpha of each row of masses against refs,
    over the positive masses, refs and counts broadcast to masses: the
    distinct masses and references as Python floats (references None when one
    is 0); per distinct (mass, reference) pair its index into both, mass,
    reference and summed count; per row its parts, a pair index (-1: 0.0), or
    with counts one row of every pair, all rows' cells counted in it."""
    pos = masses > 0
    m, r = (x[pos] for x in np.broadcast_arrays(masses, refs))
    vals, vi, _ = _distinct(m)
    refs, ri, _ = _distinct(r)
    counts = None if counts is None else np.broadcast_to(counts, masses.shape)[pos]
    keys, index, summed = _distinct(vi * len(refs) + ri, counts)
    vi, ri = np.divmod(keys, len(refs))
    if counts is None:
        src = np.full(masses.shape, -1)
        src[pos] = index
    else:
        src = np.arange(len(keys))[None]
    ps, rs = vals[vi], refs[ri]
    refs = None if (refs == 0).any() else refs.tolist()
    return vals.tolist(), refs, vi, ri, ps, rs, summed, src


def _kernel(layout, a: Alpha, lnq: float | None) -> list[float]:
    """D_alpha of each row of a ``_layout`` (+inf in all when a positive mass
    has reference 0), or with lnq None the power sums of a finite order: one
    ``pow`` per distinct mass and reference, one ``math.log`` per distinct
    pair's p/r; a counted row is one ``_counted_fsum``, and D_inf's max
    ignores counts.  A finite order whose power or power sum leaves floating
    point is refused."""
    vals, refs, vi, ri, ps, rs, summed, src = layout
    if refs is None:
        return [math.inf] * len(src)
    b, sums = a.value, None
    with np.errstate(all="ignore"):
        try:
            if a.is_infinite:
                top = map(max, np.append(ps / rs, 0.0)[src].tolist())
                return (_scalar(math.log, list(top)) / lnq).tolist()
            if a.is_one:
                terms = ps * _scalar(math.log, (ps / rs).tolist())
            else:
                terms = _scalar(pow, vals, itertools.repeat(b))[vi]
                terms *= _scalar(pow, refs, itertools.repeat(1.0 - b))[ri]
            if summed is None:
                sums = _scalar(math.fsum, np.append(terms, 0.0)[src].tolist())
            else:
                sums = np.array([measures._counted_fsum(terms, summed)])
        except OverflowError:  # a power or a sum beyond floating point
            pass
    if sums is None or not (a.is_one or ((sums > 0.0) & (sums < math.inf)).all()):
        raise ValueError(f"alpha={b} is too large for floating point; use 'inf'")
    if a.is_one or lnq is None:  # KL, or the power sums themselves
        return (sums / (lnq or 1.0)).tolist()
    return (_scalar(math.log, sums.tolist()) / ((b - 1.0) * lnq)).tolist()


def _tv(ps: np.ndarray, rs: np.ndarray, counts=None) -> float:
    """Half the L1 distance, each |p - r| counted as in ``_counted_fsum``."""
    return 0.5 * measures._counted_fsum(np.where(ps > rs, ps - rs, rs - ps), counts)


def _conditionals(rows: np.ndarray):
    """(w, P(.|c), kept) for the rows c of masses with positive total w: each
    total by ``math.fsum``, its row's positive masses divided by it and zeros
    elsewhere, each checked to sum to 1 as a pmf would; kept marks them."""
    w = _scalar(math.fsum, rows.tolist())
    kept = w != 0
    w, rows = w[kept], rows[kept]
    cond = np.where(rows > 0, rows / w[:, None], 0.0)
    for row in cond.tolist():
        if not abs(math.fsum(row) - 1.0) <= NORMALIZATION_TOL:
            measures._check_sum(row)  # refused, with its total in the message
    return w, cond, kept


def _averaged(groups, keys, lnq: float) -> dict:
    """The ("conditional", alpha) keys among keys, each mapped to
    sum_s P_S(s) D_alpha(P(.|s) || uniform) (over (s, z) with side info), from
    a joint's ``groups``: the distinct sorted columns are one ``_layout``'s
    rows, each weighted by its mass and counted once per column.  With no
    such key no layout is built."""
    wanted = [key for key in keys if key[0] == "conditional"]
    if not wanted:
        return {}
    rows, counts = groups[:2]
    w, conds, kept = _conditionals(rows)
    layout, counts = _layout(conds, 1.0 / rows.shape[1]), counts[kept]
    return {
        k: measures._counted_fsum(w * _kernel(layout, k[1], lnq), counts) for k in wanted
    }


def _joint(groups, keys, lnq: float) -> dict:
    """The ("joint", alpha) and ("tv",) keys among keys, each mapped to
    D_alpha or TV of a joint's cells against uniform outputs x its seed[,z]
    marginal, from one counted ``_layout`` row: the groups' sorted columns,
    expanded only while it is built, are its groups x U masses, and each
    group's reference and count broadcast along its row.  TV, only when
    asked for, adds the positive pairs' |p - r| and the zero cells' r.  With
    no such key no layout is built."""
    wanted = [key for key in keys if key[0] == "joint"]
    tv = ("tv",) in keys
    if not (wanted or tv):
        return {}
    rows, _, ranks, refs, counts = groups
    layout = _layout(rows[ranks], refs[:, None], counts[:, None])
    values = {k: _kernel(layout, k[1], lnq)[0] for k in wanted}
    if tv:
        ps, rs, summed = layout[4:7]
        zeros = counts * (rows.shape[1] - (rows > 0).sum(axis=1)[ranks])
        parts = np.r_[ps, 0.0 * refs], np.r_[rs, refs], np.r_[summed, zeros]
        values[("tv",)] = _tv(*parts)
    return values
