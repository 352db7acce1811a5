"""Experiment runner: certification, extraction, bound checks, reports.

Reports are plain dicts ready for JSON serialization.  Everything stored in
a report is in q-ary log units and deterministic for a fixed config, so
repeated runs produce byte-identical files (wall-clock timing goes to stderr,
never into the report).
"""

from __future__ import annotations

import math

from . import __version__
from . import bounds as bd
from .config import ExperimentConfig
from .errors import ConfigError
from .extraction import ExtractionResult, expected_max_bucket, extract_joint
from .families import HashFamily, certify_k_star
from .measures import Alpha, DivergenceTable, empirical_divergences

SCHEMA_VERSION = 1


def _alpha_key(a: Alpha) -> str:
    if a.is_infinite:
        return "inf"
    v = a.value
    return str(int(v)) if v == int(v) else repr(v)


def _finite_alphas_in_range(alphas, k: int) -> list[Alpha]:
    return [a for a in alphas if a.is_finite_order and a.value <= k]


def _certification_section(family: HashFamily, budget: int) -> tuple[dict, bool]:
    verdicts = certify_k_star(family, budget=budget)
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


def _entropy_table(result: ExtractionResult, alphas) -> dict:
    src = result.source
    table = {}
    for a in alphas:
        row = {"unconditional": src.entropy(a)}
        if result.has_side_channel and a.is_finite_order:
            row["conditional"] = src.conditional_entropy(a)
        table[_alpha_key(a)] = row
    return table


def _divergence_section(table: DivergenceTable) -> dict:
    return {
        "per_alpha": {
            _alpha_key(r.alpha): {"joint": r.joint, "conditional": r.conditional}
            for r in table.rows
        },
        "tv_to_uniform_product": table.tv_to_uniform,
        "kl_to_uniform_product": table.kl_to_uniform,
    }


def collect_bound_reports(
    result: ExtractionResult,
    epsilons,
    divergences: DivergenceTable,
) -> list[dict]:
    """One report row per bound the paper's guarantees give for this result."""
    family = result.family
    q, m, k = family.field.q, family.m, family.k
    one, inf = Alpha.one(), Alpha.infinity()
    kl, tv = divergences.kl_to_uniform, divergences.tv_to_uniform
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
                "satisfied": bd.satisfied(empirical, bound),
                "note": "" if threshold is None else f"m_threshold={threshold!r}",
            }
        )

    h_k = result.source_entropy(Alpha(float(k)))

    for row in divergences.rows:
        a = row.alpha
        if a.is_one:
            continue
        if a.is_finite_order and a.value <= k:
            h = result.source_entropy(a)
            bound = bd.bound_real_alpha(q, m, k, a.value, h)
            add("joint-divergence", a, h, bound, row.joint)
        else:
            bound = (
                bd.bound_infty(q, m, k, h_k)
                if a.is_infinite
                else bd.bound_alpha_above_k(q, m, k, a.value, h_k)
            )
            add("conditional-divergence", a, h_k, bound, row.conditional)

    for eps in epsilons:
        for row in divergences.rows:
            a = row.alpha
            if not a.is_finite_order or a.value > k:
                continue
            h = result.source_entropy(a)
            if a.value >= 2 and a.value == int(a.value):
                thr = bd.m_threshold("integer-alpha", q, h, eps, alpha=a.value)
                if m <= thr:
                    add("threshold-integer-alpha", a, h, eps, row.joint, eps, thr)
            if a.value <= 2:
                thr = bd.m_threshold("corollary", q, h, eps, alpha=a.value)
                if m <= thr:
                    add("threshold-corollary", a, h, eps, row.joint, eps, thr)
                    # KL <= D_alpha, so the epsilon guarantee cascades down.
                    add("threshold-corollary-kl", one, h, eps, kl, eps)
        thr = bd.m_threshold("min-entropy", q, h_k, eps, k=k)
        if m <= thr:
            d_inf = divergences.conditional_inf
            add("threshold-min-entropy", inf, h_k, m / k + eps, d_inf, eps, thr)
        if not result.has_side_channel:
            # Baselines from classical leftover hashing.
            log_inv_eps = math.log(1.0 / eps) / math.log(q)
            h_inf = result.source.entropy(inf)
            if m <= h_inf - log_inv_eps:
                add("baseline-tv", inf, h_inf, math.sqrt(eps) / 2.0, tv, eps)
            h2 = result.source.entropy(Alpha(2.0))
            if m <= h2 - log_inv_eps:
                add("baseline-kl", one, h2, eps / math.log(q), kl, eps)
    return reports


def run_verify(config: ExperimentConfig) -> dict:
    family = config.build_family()
    source = config.build_source(family)
    certification, cert_ok = _certification_section(family, config.budget)
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": "verify",
        "config": config.raw,
        "certification": certification,
    }
    if not cert_ok:
        report["error"] = "family failed k*-universality certification"
        return report

    result = extract_joint(family, source, budget=config.budget)
    divergences = empirical_divergences(result.joint, config.alphas)
    rows = collect_bound_reports(result, config.epsilons, divergences)
    report.update(
        {
            "entropies": _entropy_table(result, config.alphas),
            "divergences": _divergence_section(divergences),
            "bounds": rows,
            "all_satisfied": all(r["satisfied"] for r in rows),
        }
    )
    return report


def run_bucket(config: ExperimentConfig) -> dict:
    if config.bucket is None:
        raise ConfigError("config has no 'bucket' section")
    family = config.build_family()
    spec = config.bucket
    subset = range(family.field.size) if spec.subset == "full" else spec.subset
    est = expected_max_bucket(
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
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": "bucket",
        "config": config.raw,
        "rows": [row],
        "all_satisfied": row["satisfied"],
    }


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
    source = config.build_source(base)
    for m in m_values:
        family = HashFamily(base.kind, base.field, base.k, m)
        result = extract_joint(family, source, budget=config.budget)
        grid = _finite_alphas_in_range(config.alphas, family.k)
        divergences = empirical_divergences(result.joint, grid)
        for row in divergences.rows:
            h = result.source_entropy(row.alpha)
            bound = bd.bound_real_alpha(
                family.field.q, m, family.k, row.alpha.value, h
            )
            ok = bd.satisfied(row.joint, bound)
            all_ok = all_ok and ok
            lines.append(
                ",".join(
                    _fmt(v)
                    for v in (
                        row.alpha.value,
                        m,
                        h,
                        row.joint,
                        row.conditional,
                        bound,
                        bound - row.joint,
                        ok,
                    )
                )
            )
    return "\n".join(lines) + "\n", all_ok
