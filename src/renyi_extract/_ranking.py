"""An extracted output joint as the ranking of its columns: the
representatives' blocks scattered into their columns, and those columns
ranked and grouped over every seed.  Imported by ``extraction.extract_joint``
on its first call, after its checks and its coset walk's charges, so that a
run that does not extract, such as a bucket experiment, does not compile it.

Each block of representatives' hash tables (``extraction._blocks``) is
scattered by one unbuffered ``np.add.at`` in index order, so every cell sums
its terms in canonical input order.  The joint is kept as the ranking of its
columns (``ExtractedJoint``): the distinct sorted columns with their column
counts, which the sum check and the seed-averaged divergences read, and the
(rank, reference) groups, merged one distinct output shift at a time, which
the joint divergences expand; the dense U x seeds [x Z] array is built only
when read.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import _divergence, measures
from ._record import Record
from ._translates import Cosets
from .families import BLOCK, HashFamily, _all_digit_rows


class ExtractedJoint(Record, eq=False):
    """An output joint P(u, s[, z]) as its columns' ranking from
    ``_group_columns`` (no U x groups copy of them), its coset
    representatives' columns and its ``Cosets``; ``probs``, the dense
    U x seeds [x Z] array, is built on first read."""

    base_q: int
    _groups: tuple
    _rep_columns: np.ndarray
    _cosets: Cosets

    @cached_property
    def probs(self) -> np.ndarray:
        cosets, q, columns = self._cosets, self.base_q, self._rep_columns
        reduced, moves = cosets.reduced, cosets.moves
        seeds, m = cosets.translates * columns.shape[1], len(moves)
        digits = _all_digit_rows(m, q)
        acc = np.empty((len(digits), seeds) + columns.shape[2:])
        for start in range(0, seeds, BLOCK):  # BLOCK seeds' digit rows at a time
            at = np.arange(start, min(start + BLOCK, seeds))
            s = at[:, None] // q ** np.arange(reduced.shape[1]) % q
            rep = s @ reduced.T % q @ q ** np.arange(len(reduced))
            # Seed s holds its representative's column moved from output u to
            # lands[s, u] = u + shift(s) digitwise.
            lands = (digits + (s @ moves.T % q)[:, None]) % q @ q ** np.arange(m)
            acc[lands.T, at] = columns[:, rep]
        acc.setflags(write=False)
        return acc


def _group_columns(arr: np.ndarray, totals, weight: int = 1):
    """An output joint's columns ranked by content, as (distinct, column
    counts, ranks, refs, counts), checked to sum to 1.

    A column is a seed s or an (s, z) cell; its reference is its total over
    the U outputs, over U.  The joint's columns are V variants of each column
    c of arr: variant v holds c's entries in some order, totals holds one
    array per variant, shaped as arr[0], whose entry c is variant v's total,
    and each variant stands for ``weight`` columns.  ``_divergence._distinct``
    ranks arr's sorted columns: distinct[r] is rank r's sorted column, in
    lexsort order, and column counts[r] its number of joint columns, V x
    weight per column of arr of rank r (one ``np.bincount``).  Columns
    whose rank and reference are the same bit for bit form a group: its rank,
    reference and member count.  Each variant's (rank, reference bits) rows
    merge into the groups so far, their counts summed, so no V x C array is
    built and the groups come in the order of one lexsort on the sorted
    column, then the reference.  The sum check counts each distinct column's
    cells by its column count: the joint's cells, as a multiset.
    """
    n_out = arr.shape[0]
    distinct, rank, _ = _divergence._distinct(np.sort(arr.reshape(n_out, -1).T, axis=1))
    column_counts = np.bincount(rank, minlength=len(distinct))
    # Rows in rank order leave each merge's lexsort one unsorted key.
    by_rank = np.argsort(rank, kind="stable")
    rank = rank[by_rank]
    keys, counts, ones = np.empty((0, 2), np.int64), rank[:0], np.ones_like(rank)
    for variants, total in enumerate(totals, 1):
        new = np.empty((len(rank), 2), np.int64)  # (rank, reference bits)
        new[:, 0], new[:, 1] = rank, (total / n_out).ravel()[by_rank].view(np.int64)
        # Joined first, so the arrays they replace are freed before the merge.
        keys, counts = np.r_[keys, new], np.r_[counts, ones]
        del new
        keys, _, counts = _divergence._distinct(keys, counts)
    counts *= weight
    column_counts *= variants * weight
    measures._check_sum(distinct.ravel(), np.repeat(column_counts, n_out))
    return distinct, column_counts, keys[:, 0], keys[:, 1].view(float), counts


def ranked_joint(family: HashFamily, source, cosets: Cosets, blocks) -> ExtractedJoint:
    """The ``ExtractedJoint`` of ``source`` under ``family`` from the
    (first index, hash table) ``blocks`` of every coset representative, in
    index order, and their ``Cosets``."""
    q, n_out = family.field.q, family.output_size
    px, sc = source.probs.probs, source.side_channel
    mass = px if sc is None else px[:, None] * sc
    rep_joint = np.zeros((n_out, q ** len(cosets.pivots)) + mass.shape[1:])
    # np.add.at adds unbuffered in index order, a row's inputs in turn, so
    # every cell sums its terms in canonical input order.
    for start, table in blocks:
        cols = np.arange(start, start + len(table))
        np.add.at(rep_joint, (table, cols[:, None]), mass)
        del table
    rep_joint *= 1.0 / family.seed_space_size
    # Seed rep + t holds rep's column moved by shift(t): its total adds rep's
    # entries at u - shift(t) for u = 0 .. U-1, as arr.sum(axis=0) adds the
    # dense joint.  t -> shift(t) is linear, so each of its V values is hit
    # |T| / V times.
    powers, digits = q ** np.arange(family.m), _all_digit_rows(family.m, q)
    back = (digits - cosets.shifts(q)[:, None]) % q @ powers  # back[v, u] = u - v
    totals = (sum((rep_joint[u] for u in b[1:]), rep_joint[b[0]]) for b in back)
    groups = _group_columns(rep_joint, totals, cosets.translates // len(back))
    return ExtractedJoint(q, groups, rep_joint, cosets)
