"""The largest-bucket experiment, imported on the first bucket call: the body
of ``extraction.expected_max_bucket``, exact and sampled, and the report row
of ``harness.run_bucket``.  Verify and sweep do not compile it.

It reads BLOCK, ``hash_table`` and the coset walk as attributes of
``extraction``, and the row calls ``harness.expected_max_bucket``, so a
tracer or a test that replaces one of them there sees every call.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds as bd
from . import extraction
from ._tables import largest_buckets
from .errors import charge
from .extraction import BucketEstimate
from .families import INT64_MAX, _prepared


def expected_max_bucket(
    family, subset, mode, n_samples, rng_seed, budget
) -> BucketEstimate:
    """``extraction.expected_max_bucket``, which documents the arguments."""
    if len(subset) == 0:  # not ``not subset``: an array has no truth value
        raise ValueError("subset must be non-empty")
    if len(set(subset)) != len(subset):
        raise ValueError("subset elements must be distinct")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    seeds, n_digits, size = family.seed_space_size, family.seed_digits, len(subset)
    if mode == "exact":
        # A translate permutes the buckets, so all seeds of a coset share the
        # largest bucket; the integer sum over all seeds is divided by their
        # number once, correctly rounded.
        inputs, cosets = extraction._cosets(family, subset, size, budget)
        blocks = extraction._blocks(family, cosets, inputs)
        n_out = family.output_size
        loads = sum(int(largest_buckets(table, n_out).sum()) for _, table in blocks)
        return BucketEstimate(loads * cosets.translates / seeds, None)
    # The cells a run touches: samples x D seed digits, a D x |subset| x m
    # basis and samples x |subset| table cells; D = m * q^n for full_table.
    # It holds one block of seeds at a time, at most BLOCK table cells and
    # BLOCK seed digits, the basis, and one largest bucket per sample.
    charge(
        n_samples * (n_digits + size) + n_digits * size * family.m, budget,
        f"{n_samples} samples x ({n_digits} seed digits + {size} elements)"
        f" + {n_digits} x {size} x {family.m} basis cells",
    )
    from ._draws import integer_blocks  # numpy's default stream, without numpy.random

    inputs = _prepared(family, subset)
    rows = max(1, extraction.BLOCK // max(size, n_digits))
    if seeds - 1 <= INT64_MAX:
        draws = integer_blocks(rng_seed, seeds, n_samples, rows)
    else:  # seed integers beyond int64: draw their base-q digits
        q = family.field.q
        digits = integer_blocks(rng_seed, q, n_samples * n_digits, rows * n_digits)
        draws = (block.reshape(-1, n_digits) for block in digits)
    vals, done = np.empty(n_samples), 0
    for block in draws:
        table = extraction.hash_table(family, block, inputs)
        vals[done:done + len(block)] = largest_buckets(table, family.output_size)
        done += len(block)
    stderr = float(vals.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return BucketEstimate(float(vals.mean()), stderr)


def bucket_row(config) -> dict:
    """The one row of a bucket report: the estimate against the paper's
    bound, with the draws' seed and count in sampled mode."""
    from . import harness  # here, so that a library bucket call loads no runner

    family = config.build_family()
    spec = config.bucket
    subset = range(family.field.size) if spec.subset == "full" else spec.subset
    est = harness.expected_max_bucket(
        family,
        subset,
        mode=spec.mode,
        n_samples=spec.samples,
        rng_seed=config.rng_seed,
        budget=config.budget,
    )
    bound = bd.bucket_bound(family.field.q, family.m, family.k, len(subset))
    row = {
        "k": family.k,
        "m": family.m,
        "subset_size": len(subset),
        "empirical": est.mean,
        "stderr": est.stderr,
        "mode": spec.mode,
        "bound": bound,
        "satisfied": bd.satisfied(est.mean, bound),
    }
    if spec.mode == "sampled":
        row["rng_seed"] = config.rng_seed
        row["n_samples"] = spec.samples
    return row
