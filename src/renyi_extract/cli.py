"""Command-line interface.

Subcommands: bound, verify, bucket, sweep, entropy.  Exit status is 0 only
when every certification and bound check passes; config errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import bounds as bd
from .config import _integer, load_config, parse_alpha
from .errors import BudgetExceededError, ConfigError
from .harness import run_bucket, run_sweep, run_verify

# --name -> (calculator, the flags it takes in order).  Every bound on a log
# quantity takes the entropy --H and is scaled by --units; bucket sizes and
# the gamma inverse take no --H and are plain numbers.
BOUNDS = {
    "joint-real": (bd.bound_real_alpha, ("q", "m", "k", "alpha", "H")),
    "simplified": (bd.bound_real_alpha_simplified, ("q", "m", "k", "alpha", "H")),
    "dk-simple": (bd.dk_bound_simple, ("q", "m", "k", "H")),
    "dk-sharp": (bd.dk_bound_sharp, ("q", "m", "k", "H")),
    "alpha-above-k": (bd.bound_alpha_above_k, ("q", "m", "k", "alpha", "H")),
    "infty": (bd.bound_infty, ("q", "m", "k", "H")),
    "bucket": (bd.bucket_bound, ("q", "m", "k", "A")),
    "gamma": (bd.gamma_fn, ("y",)),
}


def _units_factor(units: str, q: int) -> float:
    return math.log2(q) if units == "bits" else 1.0


def _write_out(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as e:  # a directory, a missing parent, no permission
            raise ConfigError(f"cannot write report to {out}: {e}") from e
    else:
        sys.stdout.write(text)


def _report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=False) + "\n"


def _bound(args) -> tuple[str, float]:
    """The label and value, in --units, of the bound or threshold named."""
    q = args.q
    if q < 2 or (args.k is not None and args.k < 2):
        raise ConfigError(f"--q and --k must be >= 2, got q={q}, k={args.k}")
    if args.m is not None and args.m < 1:
        raise ConfigError(f"--m must be >= 1, got {args.m}")
    if args.H is not None and args.H < 0:
        raise ConfigError(f"--H must be >= 0, got {args.H}")
    for flag in ("H", "eps", "alpha", "y"):
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"--{flag} must be finite, got {value}")
    factor = _units_factor(args.units, q)
    if args.regime:
        if args.regime in ("integer-alpha", "corollary") and args.alpha is None:
            raise ConfigError(f"--regime {args.regime} requires --alpha")
        if args.regime in ("min-entropy", "sharp-gamma") and args.k is None:
            raise ConfigError(f"--regime {args.regime} requires --k")
        if args.H is None or args.eps is None:
            raise ConfigError("threshold regimes require --H and --eps")
        value = bd.m_threshold(
            args.regime, q, args.H, args.eps, alpha=args.alpha, k=args.k
        )
        return f"m_threshold[{args.regime}]", value * factor

    name = args.name
    calculator, flags = BOUNDS[name]
    missing = [f"--{f}" for f in flags if getattr(args, f) is None]
    if missing:
        raise ConfigError(f"--name {name} requires {' '.join(missing)}")
    value = calculator(*(getattr(args, f) for f in flags))
    return name, value * (factor if "H" in flags else 1.0)


def _cmd_bound(args) -> int:
    try:
        label, value = _bound(args)
    except OverflowError as e:  # an integer argument too large for a float
        raise ConfigError(f"bound arguments leave floating point: {e}") from e
    if math.isnan(value):  # a result beyond floating point is inf, not NaN
        raise ConfigError(f"{label} is not a number at these arguments")
    print(f"{label} = {value:.12g}")
    return 0


def _load(args):
    config = load_config(args.config)
    if args.budget is not None:  # refused as the config's budget is
        config = config._replace(budget=_integer(args.budget, "budget", 1))
    return config


def _cmd_verify(args) -> int:
    config = _load(args)
    start = time.monotonic()
    report = run_verify(config)
    elapsed = time.monotonic() - start
    _write_out(_report_json(report), args.out or config.out)
    print(f"verify: wall-clock {elapsed:.3f}s", file=sys.stderr)
    certification = report["certification"]
    if not certification["is_k_star_universal"]:
        failed = [v["l"] for v in certification["per_order"] if not v["passed"]]
        print(f"certification FAILED at l={failed}", file=sys.stderr)
    # A failed certification leaves no verdicts, so no "all_satisfied".
    return 0 if report.get("all_satisfied") else 1


def _cmd_bucket(args) -> int:
    config = _load(args)
    if args.rng_seed is not None:  # refused as the config's rng_seed is
        config = config._replace(rng_seed=_integer(args.rng_seed, "rng_seed", 0))
    start = time.monotonic()
    report = run_bucket(config)
    elapsed = time.monotonic() - start
    _write_out(_report_json(report), args.out or config.out)
    print(f"bucket: wall-clock {elapsed:.3f}s", file=sys.stderr)
    return 0 if report["all_satisfied"] else 1


def _cmd_sweep(args) -> int:
    config = _load(args)
    start = time.monotonic()
    csv_text, all_ok = run_sweep(config)
    elapsed = time.monotonic() - start
    _write_out(csv_text, args.out or config.out)
    print(f"sweep: wall-clock {elapsed:.3f}s", file=sys.stderr)
    return 0 if all_ok else 1


def _cmd_entropy(args) -> int:
    from .measures import Pmf, renyi_entropy

    probs = np.array([float(v) for v in args.probs.split(",")])
    alpha = parse_alpha(args.alpha)
    pmf = Pmf(probs, args.q)
    value = renyi_entropy(pmf, alpha)
    print(f"H_{args.alpha} = {value * _units_factor(args.units, args.q):.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renyi-extract",
        description="Certify Renyi-divergence uniformity bounds for k*-universal "
        "leftover hashing by exact enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bound", help="evaluate a closed-form bound or threshold")
    group = pb.add_mutually_exclusive_group(required=True)
    group.add_argument("--regime", choices=bd.THRESHOLD_REGIMES)
    group.add_argument("--name", choices=BOUNDS)
    pb.add_argument("--q", type=int, default=2)
    pb.add_argument("--m", type=int)
    pb.add_argument("--k", type=int)
    pb.add_argument("--alpha", type=float)
    pb.add_argument("--H", type=float)
    pb.add_argument("--eps", type=float)
    pb.add_argument("--A", type=int, help="subset size for the bucket bound")
    pb.add_argument("--y", type=float, help="argument of the gamma inverse")
    pb.add_argument("--units", choices=("qary", "bits"), default="qary")
    pb.set_defaults(func=_cmd_bound)

    for name, func, helptext in (
        ("verify", _cmd_verify, "certify a family and check every bound"),
        ("bucket", _cmd_bucket, "expected largest-bucket experiment"),
        ("sweep", _cmd_sweep, "bound-vs-empirical CSV over a grid"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True)
        p.add_argument("--out")
        p.add_argument("--budget", type=int, help="evaluation budget")
        if name == "bucket":  # only sampled buckets draw random seeds
            p.add_argument("--rng-seed", type=int, dest="rng_seed")
        p.set_defaults(func=func)

    pe = sub.add_parser("entropy", help="Renyi entropy of an explicit pmf")
    pe.add_argument("--probs", required=True, help="comma-separated probabilities")
    pe.add_argument("--alpha", required=True)
    pe.add_argument("--q", type=int, default=2)
    pe.add_argument("--units", choices=("qary", "bits"), default="qary")
    pe.set_defaults(func=_cmd_entropy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, BudgetExceededError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
