"""Experiment runner: ``run_verify``, ``run_sweep`` and ``run_bucket``, and
the header every report shares (``_report``).

Each command compiles only its own code.  Verify's and sweep's bound rows,
measured values, report sections and CSV are in ``_verify``, and the bucket
experiment in ``_bucket``; each is imported on its command's first run.  The
names through which a run calls its phases, ``certify_k_star``,
``extract_joint``, ``expected_max_bucket``, ``empirical_divergences`` and
``collect_bound_reports``, are attributes of this module, the last two
resolved on first access, and the moved code calls them through it: a
tracer or a test that replaces one here sees every call.  Reports are plain
dicts ready for JSON serialization.  Everything stored in a report is in
q-ary log units and deterministic for a fixed config, so repeated runs
produce byte-identical files (wall-clock timing goes to stderr, never into
the report).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import __version__
from .errors import ConfigError
from .extraction import expected_max_bucket, extract_joint  # noqa: F401
from .families import certify_k_star  # noqa: F401

if TYPE_CHECKING:
    from .config import ExperimentConfig

SCHEMA_VERSION = 1


def __getattr__(name):
    """The names whose modules a bucket experiment does not load, resolved
    on first access and kept."""
    if name == "empirical_divergences":
        from .measures import empirical_divergences as value
    elif name in ("collect_bound_reports", "SWEEP_COLUMNS"):
        from . import _verify

        value = getattr(_verify, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def _report(command: str, config: ExperimentConfig, **body) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "config": config.raw,
        **body,
    }


def run_verify(config: ExperimentConfig) -> dict:
    from ._verify import run_verify

    return run_verify(config)


def run_sweep(config: ExperimentConfig) -> tuple[str, bool]:
    """One CSV row per (alpha, m) grid point.  Returns (csv_text, all_ok)."""
    from ._verify import run_sweep

    return run_sweep(config)


def run_bucket(config: ExperimentConfig) -> dict:
    if config.bucket is None:
        raise ConfigError("config has no 'bucket' section")
    from ._bucket import bucket_row

    row = bucket_row(config)
    return _report("bucket", config, rows=[row], all_satisfied=row["satisfied"])
