"""Experiment runner: certification, extraction, bound checks, reports.

Reports are plain dicts ready for JSON serialization.  Everything stored in
a report is in q-ary log units and deterministic for a fixed config, so
repeated runs produce byte-identical files (wall-clock timing goes to stderr,
never into the report).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import __version__
from . import bounds as bd
from .config import ExperimentConfig
from .errors import ConfigError
from .extraction import (
    DivergenceTable,
    ExtractionResult,
    empirical_divergences,
    expected_max_bucket,
    extract_joint,
)
from .families import HashFamily, certify_k_star
from .measures import Alpha

SCHEMA_VERSION = 1


def _alpha_key(a: Alpha) -> str:
    if a.is_infinite:
        return "inf"
    v = a.value
    return str(int(v)) if v == int(v) else repr(v)


def _finite_alphas_in_range(alphas, k: int) -> list[Alpha]:
    return [a for a in alphas if a.is_finite_order and a.value <= k]


@dataclass
class VerifyOutcome:
    report: dict
    passed: bool


def _certification_section(family: HashFamily, budget: int) -> tuple[dict, bool]:
    verdicts = certify_k_star(family, budget=budget)
    passed = all(v.passed for v in verdicts)
    section = {
        "is_k_star_universal": passed,
        "per_order": [
            {
                "l": v.l,
                "collision_probability": f"{v.collision_probability.numerator}/{v.collision_probability.denominator}",
                "threshold": f"{v.threshold.numerator}/{v.threshold.denominator}",
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
) -> list[bd.BoundReport]:
    family = result.family
    q, m, k = family.field.q, family.m, family.k
    reports: list[bd.BoundReport] = []

    h_k = result.source_entropy(Alpha(float(k)))

    for row in divergences.rows:
        a = row.alpha
        if a.is_one:
            continue
        if a.is_finite_order and a.value <= k:
            h = result.source_entropy(a)
            inputs = bd.BoundInputs(q, m, k, a, h)
            reports.append(
                bd.BoundReport(
                    "joint-divergence",
                    inputs,
                    bd.bound_real_alpha(q, m, k, a.value, h),
                    row.joint,
                )
            )
        else:
            inputs = bd.BoundInputs(q, m, k, a, h_k)
            value = (
                bd.bound_infty(q, m, k, h_k)
                if a.is_infinite
                else bd.bound_alpha_above_k(q, m, k, a.value, h_k)
            )
            reports.append(
                bd.BoundReport(
                    "conditional-divergence",
                    inputs,
                    value,
                    row.conditional,
                )
            )

    for eps in epsilons:
        for row in divergences.rows:
            a = row.alpha
            if not a.is_finite_order or a.value > k:
                continue
            h = result.source_entropy(a)
            if a.value >= 2 and a.value == int(a.value):
                thr = bd.m_threshold("integer-alpha", q, h, eps, alpha=a.value)
                if m <= thr:
                    reports.append(
                        bd.BoundReport(
                            "threshold-integer-alpha",
                            bd.BoundInputs(q, m, k, a, h, eps),
                            eps,
                            row.joint,
                            note=f"m_threshold={thr!r}",
                        )
                    )
            if a.value <= 2:
                thr = bd.m_threshold("corollary", q, h, eps, alpha=a.value)
                if m <= thr:
                    reports.append(
                        bd.BoundReport(
                            "threshold-corollary",
                            bd.BoundInputs(q, m, k, a, h, eps),
                            eps,
                            row.joint,
                            note=f"m_threshold={thr!r}",
                        )
                    )
                    # KL <= D_alpha, so the epsilon guarantee cascades down.
                    reports.append(
                        bd.BoundReport(
                            "threshold-corollary-kl",
                            bd.BoundInputs(q, m, k, Alpha.one(), h, eps),
                            eps,
                            divergences.kl_to_uniform,
                        )
                    )
        thr = bd.m_threshold("min-entropy", q, h_k, eps, k=k)
        if m <= thr:
            reports.append(
                bd.BoundReport(
                    "threshold-min-entropy",
                    bd.BoundInputs(q, m, k, Alpha.infinity(), h_k, eps),
                    m / k + eps,
                    divergences.conditional_inf,
                    note=f"m_threshold={thr!r}",
                )
            )
        if not result.has_side_channel:
            # Baselines from classical leftover hashing.
            h_inf = result.source.entropy(Alpha.infinity())
            if m <= h_inf - math.log(1.0 / eps) / math.log(q):
                reports.append(
                    bd.BoundReport(
                        "baseline-tv",
                        bd.BoundInputs(q, m, k, Alpha.infinity(), h_inf, eps),
                        math.sqrt(eps) / 2.0,
                        divergences.tv_to_uniform,
                    )
                )
            h2 = result.source.entropy(Alpha(2.0))
            if m <= h2 - math.log(1.0 / eps) / math.log(q):
                reports.append(
                    bd.BoundReport(
                        "baseline-kl",
                        bd.BoundInputs(q, m, k, Alpha.one(), h2, eps),
                        eps / math.log(q),
                        divergences.kl_to_uniform,
                    )
                )
    return reports


def run_verify(config: ExperimentConfig) -> VerifyOutcome:
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
        return VerifyOutcome(report, False)

    result = extract_joint(family, source, budget=config.budget)
    divergences = empirical_divergences(result, config.alphas)
    reports = collect_bound_reports(result, config.epsilons, divergences)
    all_ok = all(r.satisfied for r in reports)
    report.update(
        {
            "entropies": _entropy_table(result, config.alphas),
            "divergences": _divergence_section(divergences),
            "bounds": [r.as_dict() for r in reports],
            "all_satisfied": all_ok,
        }
    )
    return VerifyOutcome(report, all_ok)


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
        "mode": est.mode,
        "bound": bound,
        "satisfied": est.mean <= bound + bd.SLACK,
    }
    if est.mode == "sampled":
        row["rng_seed"] = est.rng_seed
        row["n_samples"] = est.n_seeds
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
        divergences = empirical_divergences(result, grid)
        for row in divergences.rows:
            h = result.source_entropy(row.alpha)
            bound = bd.bound_real_alpha(
                family.field.q, m, family.k, row.alpha.value, h
            )
            ok = row.joint <= bound + bd.SLACK
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
