"""Verify's and sweep's code, imported on their first run: the bound rows a
run plans (``collect_bound_reports``) and fills in from the divergence table
(``_measured``), the report sections and the sweep CSV.  A bucket
experiment does not compile it.

Which bounds a run checks depends only on the family, the source and the
orders and epsilons, so ``verify`` and ``sweep`` plan their bound rows before
they extract (sweep for every m before its first extraction), and then fill
each in from the divergence table; a sweep row is verify's joint-divergence
row.  The table is a map from the keys a run reads, and it computes only
those: verify asks for what its report prints and its rows read, sweep for
its grid's joint and conditional orders.

Every phase is called through its ``harness`` attribute (``certify_k_star``,
``collect_bound_reports``, ``extract_joint``, ``empirical_divergences``), so
a tracer or a test that replaces one there sees every call.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import bounds as bd
from . import harness
from .errors import ConfigError
from .families import HashFamily
from .measures import Alpha

if TYPE_CHECKING:
    from .config import ExperimentConfig
    from .measures import Source


def _alpha_key(a: Alpha) -> str:
    if a.is_infinite:
        return "inf"
    v = a.value
    return str(int(v)) if v == int(v) else repr(v)


def _finite_alphas_in_range(alphas, k: int) -> list[Alpha]:
    return [a for a in alphas if a.is_finite_order and a.value <= k]


def _certification_section(family: HashFamily, budget: int) -> tuple[dict, bool]:
    verdicts = harness.certify_k_star(family, budget=budget)
    passed = all(v.passed for v in verdicts)
    q = family.field.q
    section = {
        "is_k_star_universal": passed,
        "per_order": [
            {
                "l": v.l,
                # Exactly q^-rank and q^-m(l-1), written as "1/q^r" ("1/1" at 0).
                "collision_probability": f"1/{q ** v.rank}",
                "threshold": f"1/{q ** v.required}",
                "passed": v.passed,
            }
            for v in verdicts
        ],
    }
    return section, passed


def _entropy_table(source: Source, alphas) -> dict:
    table = {}
    for a in alphas:
        row = {"unconditional": source.entropy(a)}
        if source.side_channel is not None and a.is_finite_order:
            row["conditional"] = source.conditional_entropy(a)
        table[_alpha_key(a)] = row
    return table


SIDES = ("joint", "conditional")


def _divergence_section(alphas, values: dict) -> dict:
    return {
        "per_alpha": {
            _alpha_key(a): {side: values[side, a] for side in SIDES} for a in alphas
        },
        "tv_to_uniform_product": values[("tv",)],
        "kl_to_uniform_product": values["joint", Alpha.one()],
    }


def collect_bound_reports(
    family: HashFamily, source: Source, alphas, epsilons
) -> list[dict]:
    """One report row per bound the paper's guarantees give for this family,
    source, orders and epsilons, planned before anything is extracted: each
    row's "empirical" names the divergence-table value it reads, ("joint",
    alpha), ("conditional", alpha) or ("tv",), which ``_measured`` fills in
    with the verdict.  An entropy is computed only when a row or a threshold
    reads it."""
    q, m, k = family.field.q, family.m, family.k
    one, inf, order_k = Alpha.one(), Alpha.infinity(), Alpha(float(k))
    h = source.bound_entropy
    reports: list[dict] = []

    def add(name, a, entropy, bound, empirical, epsilon=None, threshold=None):
        if entropy < 0:
            raise ValueError(f"{name} needs entropy >= 0, got {entropy!r}")
        reports.append(
            {
                "name": name,
                "q": q,
                "m": m,
                "k": k,
                "alpha": "inf" if a.is_infinite else a.value,
                "entropy": entropy,
                "epsilon": epsilon,
                "bound": bound,
                "empirical": empirical,
                "satisfied": None,
                "note": "" if threshold is None else f"m_threshold={threshold!r}",
            }
        )

    for a in alphas:
        if a.is_one:
            continue
        if a.is_finite_order and a.value <= k:
            bound = bd.bound_real_alpha(q, m, k, a.value, h(a))
            add("joint-divergence", a, h(a), bound, ("joint", a))
        else:
            bound = (
                bd.bound_infty(q, m, k, h(order_k))
                if a.is_infinite
                else bd.bound_alpha_above_k(q, m, k, a.value, h(order_k))
            )
            add("conditional-divergence", a, h(order_k), bound, ("conditional", a))

    for eps in epsilons:
        for a in alphas:
            if not a.is_finite_order or a.value > k:
                continue
            if a.value >= 2 and a.value == int(a.value):
                thr = bd.m_threshold("integer-alpha", q, h(a), eps, alpha=a.value)
                if m <= thr:
                    add("threshold-integer-alpha", a, h(a), eps, ("joint", a), eps, thr)
            if a.value <= 2:
                thr = bd.m_threshold("corollary", q, h(a), eps, alpha=a.value)
                if m <= thr:
                    add("threshold-corollary", a, h(a), eps, ("joint", a), eps, thr)
                    # KL <= D_alpha, so the epsilon guarantee cascades down.
                    add("threshold-corollary-kl", one, h(a), eps, ("joint", one), eps)
        thr = bd.m_threshold("min-entropy", q, h(order_k), eps, k=k)
        if m <= thr:
            d_inf = ("conditional", inf)
            add("threshold-min-entropy", inf, h(order_k), m / k + eps, d_inf, eps, thr)
        if source.side_channel is None:
            # Baselines from classical leftover hashing.
            log_inv_eps = math.log(1.0 / eps) / math.log(q)
            h_inf = source.entropy(inf)
            if m <= h_inf - log_inv_eps:
                add("baseline-tv", inf, h_inf, math.sqrt(eps) / 2.0, ("tv",), eps)
            h2 = source.entropy(Alpha(2.0))
            if m <= h2 - log_inv_eps:
                add("baseline-kl", one, h2, eps / math.log(q), ("joint", one), eps)
    return reports


def _measured(rows: list[dict], values: dict) -> list[dict]:
    """The planned rows with each "empirical" replaced by the table value it
    names and "satisfied" by ``bounds.satisfied``."""
    measured = []
    for row in rows:
        value = values[row["empirical"]]
        satisfied = bd.satisfied(value, row["bound"])
        measured.append({**row, "empirical": value, "satisfied": satisfied})
    return measured


def run_verify(config: ExperimentConfig) -> dict:
    family = config.build_family()
    source = config.build_source(family)
    certification, cert_ok = _certification_section(family, config.budget)
    if not cert_ok:
        error = "family failed k*-universality certification"
        return harness._report("verify", config, certification=certification, error=error)
    rows = harness.collect_bound_reports(family, source, config.alphas, config.epsilons)
    if not rows:  # all_satisfied would hold vacuously
        raise ConfigError(
            "no bound applies, so verify would check nothing: list an order"
            " other than 1 in alphas, or an epsilon whose threshold admits"
            f" m={family.m}"
        )
    result = harness.extract_joint(family, source, budget=config.budget)
    # The values the report prints, then those its rows read.
    keys = [(side, a) for a in config.alphas for side in SIDES]
    keys += [("joint", Alpha.one()), ("tv",), *(r["empirical"] for r in rows)]
    values = harness.empirical_divergences(result.joint, keys)
    rows = _measured(rows, values)
    return harness._report(
        "verify",
        config,
        certification=certification,
        entropies=_entropy_table(source, config.alphas),
        divergences=_divergence_section(config.alphas, values),
        bounds=rows,
        all_satisfied=all(r["satisfied"] for r in rows),
    )


SWEEP_COLUMNS = (
    "alpha",
    "m",
    "entropy",
    "joint_divergence",
    "conditional_divergence",
    "bound",
    "bound_minus_empirical",
    "satisfied",
)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def run_sweep(config: ExperimentConfig) -> tuple[str, bool]:
    """One CSV row per (alpha, m) grid point.  Returns (csv_text, all_ok)."""
    m_values = config.sweep.m_values if config.sweep else (config.family.m,)
    lines = [",".join(SWEEP_COLUMNS)]
    all_ok = True
    base = config.build_family()
    grid = _finite_alphas_in_range(config.alphas, base.k)
    if not grid:  # the CSV would hold its header only
        raise ConfigError(f"sweep needs a finite order in (1, k={base.k}] in alphas")
    source = config.build_source(base)
    # Every m's family and rows are built before the first extraction, so a
    # bad m is refused at once.
    families = [HashFamily(base.kind, base.field, base.k, m) for m in m_values]
    plans = [(f, harness.collect_bound_reports(f, source, grid, ())) for f in families]
    keys = [(side, a) for a in grid for side in SIDES]
    for family, planned in plans:
        result = harness.extract_joint(family, source, budget=config.budget)
        values = harness.empirical_divergences(result.joint, keys)
        # One joint-divergence row per order of the grid, in its order.
        for a, row in zip(grid, _measured(planned, values)):
            joint, bound, ok = row["empirical"], row["bound"], row["satisfied"]
            conditional = values["conditional", a]
            all_ok = all_ok and ok
            cells = (row["entropy"], joint, conditional, bound, bound - joint, ok)
            lines.append(",".join(map(_fmt, (_alpha_key(a), family.m) + cells)))
    return "\n".join(lines) + "\n", all_ok
