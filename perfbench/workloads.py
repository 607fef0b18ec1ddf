"""Seeded experiment configs for the benchmark's workloads.

Every config is derived from the workload name and seed alone, through
`random.Random`, so one seed gives the same configs in every process and on
every commit.  The program under test receives only the configs.
`tiny=True` shrinks sizes and horizons for the smoke test; the shapes of
the configs (kinds, channels, graphs) stay the same.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("tat-large", "prd-large", "batch-small", "cpf-complements")

# Horizon rounds are what rounds_per_s counts; warm-up and fitting rounds
# inside a trace cost time but are not counted.  Passes are kept to 1-3
# seconds so that a 25-second run takes its median over 8 or more of them:
# identical passes vary by +-20% on a shared host.  prd-large fits
# its constants on 60 rounds, not 200, so that per-round re-solves still
# take most of a pass.  cpf-complements runs 4 markets per pass, whose
# summed solver work varies by a few percent between seeds.
SIZES = {
    "tat-large": {"m": 200, "n": 200, "horizon": 300, "warmup": 100},
    "prd-large": {"m": 200, "n": 200, "horizon": 20, "fit": 60},
    "cpf-complements": {"m": 8, "n": 8, "horizon": 6, "markets": 4},
    "batch-small": {"low": 2, "high": 8, "horizon": 50, "diffusion_n": 16},
}
TINY = {
    "tat-large": {"m": 6, "n": 6, "horizon": 12, "warmup": 10},
    "prd-large": {"m": 5, "n": 5, "horizon": 6, "fit": 10},
    "cpf-complements": {"m": 3, "n": 3, "horizon": 6, "markets": 2},
    "batch-small": {"low": 2, "high": 3, "horizon": 8, "diffusion_n": 4},
}


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _tat_large(rng, size):
    return [(
        "tat-large",
        {
            "kind": "tatonnement-ms",
            "horizon": size["horizon"],
            "market": {"random": {"m": size["m"], "n": size["n"], "seed": _seed(rng)}},
            "schedule": {"generator": {
                "channel": "supply-additive", "magnitude": 0.01, "seed": _seed(rng),
            }},
            "bounds": {"delta": "fit", "warmup_rounds": size["warmup"]},
        },
    )]


def _prd_large(rng, size):
    return [(
        "prd-large",
        {
            "kind": "prd",
            "horizon": size["horizon"],
            "market": {"random": {
                "m": size["m"], "n": size["n"], "seed": _seed(rng), "unit_supplies": True,
            }},
            "schedule": {"generator": {
                "channel": "utility-multiplicative", "magnitude": 0.005, "seed": _seed(rng),
            }},
            "bounds": {"fit_rounds": size["fit"]},
        },
    )]


def _cpf_complements(rng, size):
    return [
        (
            f"cpf-{k:02d}",
            {
                "kind": "tatonnement-cpf",
                "horizon": size["horizon"],
                "market": {"random": {
                    "m": size["m"], "n": size["n"], "seed": _seed(rng),
                    "rho_low": -2.0, "rho_high": -0.5, "unit_supplies": True,
                }},
                "schedule": {"generator": {
                    "channel": "utility-multiplicative", "magnitude": 0.002,
                    "seed": _seed(rng),
                }},
            },
        )
        for k in range(size["markets"])
    ]


# (label, kind, schedule channel, drift magnitude) of batch-small's market configs.
BATCH_MARKETS = (
    ("ms-supply", "tatonnement-ms", "supply-additive", 0.01),
    ("ms-budget", "tatonnement-ms", "budget-additive", 0.01),
    ("ms-utility", "tatonnement-ms", "utility-multiplicative", 0.005),
    ("cpf-supply", "tatonnement-cpf", "supply-additive", 0.01),
    ("cpf-utility", "tatonnement-cpf", "utility-multiplicative", 0.005),
    ("prd-utility", "prd", "utility-multiplicative", 0.005),
)


def _batch_small(rng, size):
    horizon = size["horizon"]
    configs = []
    for rep in range(3):
        # Repetition r draws m and n from the r-th third of [low, high], so
        # every seed gets one small, one middle and one large market per
        # kind and the work per pass varies little between seeds.
        third = (size["high"] - size["low"]) / 3
        low, high = round(size["low"] + rep * third), round(size["low"] + (rep + 1) * third)
        for label, kind, channel, magnitude in BATCH_MARKETS:
            configs.append((f"{label}-{rep}", {
                "kind": kind,
                "horizon": horizon,
                "market": {"random": {
                    "m": rng.randint(low, high), "n": rng.randint(low, high),
                    "seed": _seed(rng),
                }},
                "schedule": {"generator": {
                    "channel": channel, "magnitude": magnitude, "seed": _seed(rng),
                }},
            }))
        configs.append((f"gd-{rep}", {
            "kind": "gd-shifting",
            "horizon": horizon,
            "quadratic": {"dims": 5, "shift": 0.01, "seed": _seed(rng)},
        }))
        for graph in ("path", "cycle", "complete"):
            configs.append((f"diffusion-{graph}-{rep}", {
                "kind": "diffusion",
                "horizon": horizon,
                "network": {
                    "graph": graph, "n": size["diffusion_n"], "seed": _seed(rng),
                    "drift": {"magnitude": 0.01, "seed": _seed(rng), "mode": "common"},
                },
            }))
    return configs


_MAKERS = {
    "tat-large": _tat_large,
    "prd-large": _prd_large,
    "cpf-complements": _cpf_complements,
    "batch-small": _batch_small,
}


def make_configs(workload: str, seed: int, tiny: bool = False) -> list[tuple[str, dict]]:
    """(stem, config) pairs for one workload, in run order."""
    size = (TINY if tiny else SIZES)[workload]
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"), size)


def write_configs(configs, config_dir: Path) -> list[Path]:
    """Write each config as <stem>.json and return the paths in run order."""
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, config in configs:
        path = config_dir / f"{stem}.json"
        path.write_text(json.dumps(config, sort_keys=True))
        paths.append(path)
    return paths
