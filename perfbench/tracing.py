"""Traced run of the renyi-extract CLI, instrumented from outside the package.

    python3 perfbench/tracing.py SPANS.json <renyi-extract arguments...>

Imports the package, wraps the public names each layer calls through, runs
`renyi_extract.cli.main` and writes the spans and counters to SPANS.json.
The report the CLI writes is the same as without tracing.  High-frequency
calls get counters only, so tracing stays cheap.  `layer_metrics` turns the
written file into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


class Tracer:
    """Spans [name, start, end, parent index] and call counters, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._open = [-1]

    def span(self, name, fn, on_result=None):
        """Wrap fn so each call records a span; name may be f(args, kwargs)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            record = [label, 0.0, 0.0, self._open[-1]]
            self.spans.append(record)
            self._open.append(len(self.spans) - 1)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _patch(owners, attr, wrap):
    """Replace owner.attr, the same object in every owner, by wrap(original)."""
    original = getattr(owners[0], attr)
    for owner in owners[1:]:
        if getattr(owner, attr) is not original:
            raise RuntimeError(f"{owner.__name__}.{attr} is not the wrapped object")
    wrapped = wrap(original)
    for owner in owners:
        setattr(owner, attr, wrapped)


def _certify_order_name(args, kwargs) -> str:
    # verify_universality(family, l, budget=...)
    return f"families.certify_l{kwargs['l'] if 'l' in kwargs else args[1]}"


def install(tracer: Tracer):
    """Wrap the names through which cli, harness and each layer call the next.

    A module that imported a name by value holds its own reference, so each
    such module is patched too.
    """
    from renyi_extract import cli, config, extraction, families, fields, harness, measures

    span, count = tracer.span, tracer.count

    fields.FieldParams.create = classmethod(
        span("fields.create", fields.FieldParams.create.__func__)
    )
    spans = [
        ((cli,), "load_config", "config.load_config", None),
        ((config.ExperimentConfig,), "build_family", "config.build_family", None),
        ((config.ExperimentConfig,), "build_source", "config.build_source", None),
        ((config.FamilySpec,), "build", "config.family_build", None),
        ((cli,), "run_verify", "harness.run_verify", None),
        ((cli,), "run_sweep", "harness.run_sweep", None),
        ((cli,), "run_bucket", "harness.run_bucket", None),
        ((harness,), "certify_k_star", "families.certify_k_star", None),
        ((families,), "verify_universality", _certify_order_name, None),
        (
            (families, extraction),
            "hash_table",
            "families.hash_table",
            lambda r: tracer.counters.update({"families.table_cells": len(r)}),
        ),
        (
            (harness,),
            "extract_joint",
            "extraction.extract_joint",
            lambda r: tracer.counters.update({"extraction.joint_cells": r.joint.probs.size}),
        ),
        ((harness,), "expected_max_bucket", "extraction.expected_max_bucket", None),
        ((harness,), "empirical_divergences", "measures.empirical_divergences", None),
        ((measures,), "conditional_divergence", "measures.conditional_divergence", None),
        (
            (measures,),
            "joint_divergence_from_uniform",
            "measures.joint_divergence_from_uniform",
            None,
        ),
        ((measures,), "renyi_entropy", "measures.renyi_entropy", None),
        ((measures,), "conditional_renyi_entropy", "measures.conditional_renyi_entropy", None),
        ((harness,), "collect_bound_reports", "bounds.collect_bound_reports", None),
        ((cli,), "_report_json", "cli.serialize", None),
        ((cli,), "_write_out", "cli.write_out", None),
    ]
    for owners, attr, name, on_result in spans:
        _patch(owners, attr, lambda fn: span(name, fn, on_result))
    counts = [
        ((fields, families), "gf_mul", "fields.gf_mul"),
        ((fields, families), "gf_add", "fields.gf_add"),
        ((families,), "evaluate", "families.evaluate"),
        ((extraction,), "evaluate", "extraction.evaluate"),
        ((measures.Pmf,), "__post_init__", "measures.Pmf"),
        ((measures,), "renyi_divergence", "measures.renyi_divergence"),
    ]
    for owners, attr, name in counts:
        _patch(owners, attr, lambda fn: count(name, fn))


def _layer(span_name: str) -> str:
    layer = span_name.split(".", 1)[0]
    return "harness" if layer in ("config", "cli") else layer


LAYERS = ("fields", "families", "extraction", "measures", "bounds", "harness")


def layer_metrics(trace: dict, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans and counters.

    A span's self time is its duration minus its children's durations, so
    the self times of all spans add up to the time the spans cover.
    """
    spans = trace["spans"]
    counters = Counter(trace["counters"])
    children = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    self_s: Counter = Counter()
    incl_s: Counter = Counter()
    layer_self: Counter = Counter({layer: 0.0 for layer in LAYERS})
    for (name, start, end, _), child in zip(spans, children):
        self_s[name] += end - start - child
        incl_s[name] += end - start
        layer_self[_layer(name)] += end - start - child
    certify = [n for n in self_s if n.startswith("families.certify")]
    metrics = {
        "fields.setup_s": self_s["fields.create"],
        "fields.gf_mul_calls": counters["fields.gf_mul"],
        "fields.gf_add_calls": counters["fields.gf_add"],
        "families.hash_table_calls": sum(1 for s in spans if s[0] == "families.hash_table"),
        "families.evaluate_calls": counters["families.evaluate"] + counters["extraction.evaluate"],
        "families.table_build_s": self_s["families.hash_table"],
        "families.table_cells": counters["families.table_cells"],
        "families.certify_s": sum(self_s[n] for n in certify),
        "families.certify_l2_s": self_s["families.certify_l2"],
        "families.certify_l3_s": self_s["families.certify_l3"],
        "extraction.extract_joint_s": self_s["extraction.extract_joint"],
        "extraction.joint_cells": counters["extraction.joint_cells"],
        "extraction.bucket_s": self_s["extraction.expected_max_bucket"],
        "extraction.bucket_evals": counters["extraction.evaluate"],
        "measures.divergence_s": incl_s["measures.empirical_divergences"],
        "measures.pmf_builds": counters["measures.Pmf"],
        "measures.renyi_divergence_calls": counters["measures.renyi_divergence"],
        "bounds.collect_s": incl_s["bounds.collect_bound_reports"],
        "cli.serialize_s": incl_s["cli.serialize"] + incl_s["cli.write_out"],
        "trace.wall_s": traced_wall_s,
        "trace.accounted_share": sum(layer_self.values()) / traced_wall_s,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()

    def load_cli():
        import renyi_extract.cli

        return renyi_extract.cli

    cli = tracer.span("cli.import", load_cli)()
    install(tracer)
    code = tracer.span("cli.main", cli.main)(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
