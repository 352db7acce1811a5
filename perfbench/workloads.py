"""Benchmark workloads: seeded configs, report checks and computed work counts.

Each workload runs one `renyi-extract` subcommand on a config generated from
the workload seed.  The program only ever sees the generated config.

Why these three:

* ``certify-k3`` -- `verify` on GF(2^4), k=3.  Certification dominates
  (the seed table is rebuilt for every order l, then every 3-subset is
  scanned for every seed), so shared-table, Zech-table and symmetry changes
  show here.
* ``sweep-side`` -- `sweep` on GF(3^2), k=4, with a 3-symbol side channel.
  No certification at all: extraction and divergences only, over an odd
  characteristic, so a certification-only change should leave it flat.
* ``bucket-sampled`` -- `bucket` in sampled mode on GF(2^8), k=3.  Few
  evaluations per seed in a seed space (2^24) far too large to tabulate, so a
  "build the whole table" change that helps `certify-k3` must not slow it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass

# The seed whose report hash is pinned in each workload.
PINNED_SEED = 0

SWEEP_COLUMNS = [
    "alpha",
    "m",
    "entropy",
    "joint_divergence",
    "conditional_divergence",
    "bound",
    "bound_minus_empirical",
    "satisfied",
]


def _normalized(weights):
    total = sum(weights)
    return [w / total for w in weights]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "verify", "sweep" or "bucket"
    q: int
    n: int
    k: int
    m: int
    alphas: tuple = ()
    epsilons: tuple = ()
    m_values: tuple = ()  # sweep only
    side_symbols: int = 0  # sweep only: size of the side-channel alphabet
    subset_size: int = 0  # bucket only
    samples: int = 0  # bucket only
    pinned_sha256: str = ""  # sha256 of the report for PINNED_SEED

    @property
    def domain(self) -> int:
        return self.q**self.n

    @property
    def seeds(self) -> int:
        return self.domain**self.k

    def config(self, seed: int) -> dict:
        """The explicit config for one workload seed; same seed, same config."""
        rng = random.Random(f"{self.name}/{seed}")
        cfg = {
            "family": {
                "q": self.q,
                "n": self.n,
                "k": self.k,
                "m": self.m,
                "kind": "polynomial",
            },
            # Every mass is positive, so the enumerated work does not depend
            # on the seed.
            "source": {
                "probs": _normalized([rng.randint(1, 1000) for _ in range(self.domain)])
            },
            "alphas": ["inf" if a == math.inf else a for a in self.alphas],
            "epsilons": list(self.epsilons),
            "rng_seed": rng.randrange(2**31),
        }
        if self.command == "sweep":
            cfg["side_channel"] = [
                _normalized([rng.randint(1, 9) for _ in range(self.side_symbols)])
                for _ in range(self.domain)
            ]
            cfg["sweep"] = {"m_values": list(self.m_values)}
        if self.command == "bucket":
            cfg["bucket"] = {
                "subset": sorted(rng.sample(range(self.domain), self.subset_size)),
                "mode": "sampled",
                "samples": self.samples,
            }
        return cfg

    def check(self, text: str, config: dict) -> list[str]:
        """Invariants every report of this workload must meet, for any seed."""
        if self.command == "sweep":
            return self._check_sweep(text)
        try:
            report = json.loads(text)
        except json.JSONDecodeError as e:
            return [f"report is not JSON: {e}"]
        problems = []
        if report.get("command") != self.command:
            problems.append(f"command is {report.get('command')!r}")
        if report.get("config") != config:
            problems.append("report does not echo the config it was given")
        if report.get("all_satisfied") is not True:
            problems.append("all_satisfied is not true")
        if self.command == "verify":
            problems += self._check_certification(report.get("certification", {}))
            if not report.get("bounds"):
                problems.append("no bound was checked")
            elif not all(b["satisfied"] for b in report["bounds"]):
                problems.append("a bound is not satisfied")
        else:
            rows = report.get("rows", [])
            want = {
                "mode": "sampled",
                "n_samples": self.samples,
                "rng_seed": config["rng_seed"],
                "subset_size": self.subset_size,
            }
            got = {key: rows[0].get(key) for key in want} if len(rows) == 1 else None
            if got != want:
                problems.append(f"bucket row is {got}, expected {want}")
        return problems

    def _check_certification(self, cert: dict) -> list[str]:
        # Polynomial families are k-wise independent, so every order's worst
        # collision probability is exactly q^(-m(l-1)).
        want = [
            (l, f"1/{self.q ** (self.m * (l - 1))}") for l in range(2, self.k + 1)
        ]
        got = [(v["l"], v["collision_probability"]) for v in cert.get("per_order", [])]
        problems = []
        if cert.get("is_k_star_universal") is not True:
            problems.append("family not certified k*-universal")
        if got != want:
            problems.append(f"collision probabilities {got}, expected {want}")
        return problems

    def _check_sweep(self, text: str) -> list[str]:
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != SWEEP_COLUMNS:
            return ["sweep CSV header differs"]
        grid = [a for a in self.alphas if a <= self.k]
        want = [str(m) for m in self.m_values for _ in grid]
        got = [r[1] for r in rows[1:]]
        problems = []
        if got != want:
            problems.append(f"sweep rows have m = {got}, expected {want}")
        if not all(r[-1] == "true" for r in rows[1:]):
            problems.append("a sweep row is not satisfied")
        return problems

    def computed_work(self) -> dict[str, int]:
        """Work the config implies, counted once, independent of the code."""
        extractions = {"verify": (self.m,), "sweep": self.m_values}.get(self.command, ())
        # Conditioning cells of one joint: seeds, or (seed, side symbol) pairs.
        cells = self.seeds * max(1, self.side_symbols)
        # `verify` evaluates every configured order; `sweep` only those <= k.
        n_alphas = len(
            self.alphas
            if self.command == "verify"
            else [a for a in self.alphas if a <= self.k]
        )
        return {
            "families.table_cells_computed": self.seeds * self.domain if extractions else 0,
            "families.subset_checks_computed": (
                sum(math.comb(self.domain, l) for l in range(2, self.k + 1)) * self.seeds
                if self.command == "verify"
                else 0
            ),
            "extraction.joint_cells_computed": sum(self.q**m * cells for m in extractions),
            "measures.divergence_cells_computed": len(extractions) * cells * n_alphas,
            "extraction.bucket_evals_computed": self.samples * self.subset_size,
        }


ALPHAS_VERIFY = (1.25, 1.5, 2.0, 2.5, 3.0, math.inf)
ALPHAS_SWEEP = (1.25, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify-k3", "verify", q=2, n=4, k=3, m=2,
            alphas=ALPHAS_VERIFY, epsilons=(0.1, 0.01),
            pinned_sha256="b7f38bc2e20898403a52588ce00a8c36ab5676d04ff0b792445151e8db44471d",
        ),
        Workload(
            "sweep-side", "sweep", q=3, n=2, k=4, m=2,
            alphas=ALPHAS_SWEEP, m_values=(1, 2), side_symbols=3,
            pinned_sha256="6061b3f8d5486a3ae5e24bb6cc0993fb2636e4fa1de99573d19a0f55eccd24ee",
        ),
        Workload(
            "bucket-sampled", "bucket", q=2, n=8, k=3, m=4,
            subset_size=32, samples=1500,
            pinned_sha256="4438be8f1e49069e3c6fdf558cbcc670585ddec48870255c712d888a0e34067c",
        ),
    )
}

# GF(2^3) instances of the same three paths, for the self-test.
SMOKE = {
    w.name: w
    for w in (
        Workload(
            "certify-k3", "verify", q=2, n=3, k=3, m=1,
            alphas=ALPHAS_VERIFY, epsilons=(0.1, 0.01),
            pinned_sha256="54d8026a22a41d2325ad25ca3d0f5ed368db98553e2db653ee7fcdd417d29ad0",
        ),
        Workload(
            "sweep-side", "sweep", q=2, n=3, k=3, m=2,
            alphas=(1.5, 2.0, 3.0), m_values=(1, 2), side_symbols=2,
            pinned_sha256="5e0d3633205acfa01ccc2ae919e55ecdf4d806ea4214fffb234848bfd7da91fc",
        ),
        Workload(
            "bucket-sampled", "bucket", q=2, n=3, k=3, m=2,
            subset_size=5, samples=200,
            pinned_sha256="98fdb9878a095aa29d63561db6cc3366efb39a1d7b34f2ce9789ce96a2539389",
        ),
    )
}
