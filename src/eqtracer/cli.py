"""Experiment runner: JSON configs in, CSV traces and JSON reports out.

`simulate` executes one seeded trace (or a directory of them with --batch),
`verify` runs the acceptance batteries and prints a table, or with --json one
JSON object, of their verdicts.  All randomness flows from config
seeds through numpy's default generator, so identical configs reproduce
their trace files byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .applications import (
    gd_regret_bound,
    simulate_diffusion,
    simulate_shifting_quadratic,
)
from .equilibrium import solve_equilibrium
from .instances import (
    drifting_quadratic,
    drifting_speeds,
    make_network,
    random_market,
    uniform_prices,
)
from .market import CesMarket
from .perturbation import (
    CHANNELS,
    PerturbationSchedule,
    generate_schedule,
)
from .prd import (
    PrdBoundConfig,
    prd_step,
    proportional_bids,
    reduce_supply_to_utility,
    run_prd_trace,
)
from .tatonnement import (
    CPF,
    CPF_STEP_SIZE,
    MISSPENDING,
    TatonnementConfig,
    default_step_size,
    fit_contraction,
    run_tatonnement_trace,
)
from .trace import write_trace_csv

KINDS = ("tatonnement-ms", "tatonnement-cpf", "prd", "gd-shifting", "diffusion")

# One path component, so a run's outputs land directly inside --out.
_FILE_NAME = {"type": "string", "pattern": r"^[^/\\]+$", "not": {"enum": [".", ".."]}}
_MARKET_ARRAYS = ("budgets", "supplies", "rho", "coefficients")

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "eqtracer experiment configuration",
    "type": "object",
    "required": ["kind", "horizon"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": list(KINDS)},
        "horizon": {"type": "integer", "minimum": 0},
        "market": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "random": {
                    "type": "object",
                    "required": ["m", "n", "seed"],
                    "additionalProperties": False,
                    "properties": {
                        "m": {"type": "integer", "minimum": 1},
                        "n": {"type": "integer", "minimum": 1},
                        "seed": {"type": "integer"},
                        "rho_low": {"type": "number"},
                        "rho_high": {"type": "number"},
                        "unit_supplies": {"type": "boolean"},
                    },
                },
                "budgets": {"type": "array", "items": {"type": "number"}},
                "supplies": {"type": "array", "items": {"type": "number"}},
                "rho": {"type": "array", "items": {"type": "number"}},
                "coefficients": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                },
                "initial_prices": {"type": "array", "items": {"type": "number"}},
            },
            # A market is generated or given as all four arrays, never both.
            "dependentSchemas": {"random": {"properties": {
                key: {"not": {}} for key in _MARKET_ARRAYS
            }}},
            "if": {"required": ["random"]},
            "else": {"required": list(_MARKET_ARRAYS)},
        },
        "dynamics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "step_size": {"anyOf": [{"type": "number"}, {"const": "auto"}]},
                "price_cap": {"anyOf": [{"type": "number"}, {"const": "2B"}]},
                "c_prime": {"type": "number"},
                "eta": {"anyOf": [{"type": "number"}, {"const": "max"}]},
            },
        },
        "schedule": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "events": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["round", "channel", "payload"],
                        "additionalProperties": False,
                        "properties": {
                            "round": {"type": "integer", "minimum": 1},
                            "channel": {"enum": list(CHANNELS)},
                            "payload": {"type": "array"},
                        },
                    },
                },
                "generator": {
                    "type": "object",
                    "required": ["channel", "magnitude", "seed"],
                    "additionalProperties": False,
                    "properties": {
                        "channel": {"enum": list(CHANNELS)},
                        "magnitude": {"type": "number", "minimum": 0},
                        "seed": {"type": "integer"},
                        "distribution": {"enum": ["uniform", "gaussian"]},
                        "start_round": {"type": "integer", "minimum": 1},
                        "every": {"type": "integer", "minimum": 1},
                    },
                },
            },
            # A generated schedule has no explicit events beside it.
            "dependentSchemas": {"generator": {"properties": {"events": {"not": {}}}}},
        },
        "bounds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "delta": {"anyOf": [{"type": "number"}, {"const": "fit"}]},
                "warmup_rounds": {"type": "integer", "minimum": 1},
                "q1": {"type": "number"},
                "q2": {"type": "number"},
                "fit_rounds": {"type": "integer", "minimum": 2},
            },
            "dependentRequired": {"q1": ["q2"], "q2": ["q1"]},
        },
        "quadratic": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dims": {"type": "integer", "minimum": 1},
                "curvature_low": {"type": "number", "exclusiveMinimum": 0},
                "curvature_high": {"type": "number", "exclusiveMinimum": 0},
                "shift": {"type": "number", "minimum": 0},
                "seed": {"type": "integer"},
                "start_offset": {"type": "number", "minimum": 0},
            },
        },
        "network": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "graph": {
                    "anyOf": [
                        {"enum": ["path", "cycle", "complete"]},
                        {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "items": {"type": "integer", "minimum": 0},
                                "minItems": 2,
                                "maxItems": 2,
                            },
                        },
                    ]
                },
                "n": {"type": "integer", "minimum": 1},
                "speeds": {"type": ["number", "array"], "items": {"type": "number"}},
                "loads": {"type": "array", "items": {"type": "number"}},
                "load_total": {"type": "number", "exclusiveMinimum": 0},
                "seed": {"type": "integer"},
                "drift": {
                    "type": "object",
                    "required": ["magnitude", "seed"],
                    "additionalProperties": False,
                    "properties": {
                        "magnitude": {"type": "number", "minimum": 0},
                        "seed": {"type": "integer"},
                        "low": {"type": "number", "exclusiveMinimum": 0},
                        "high": {"type": "number", "exclusiveMinimum": 0},
                        "mode": {"enum": ["common", "per-machine"]},
                    },
                },
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "trace": _FILE_NAME,
                "report": _FILE_NAME,
            },
        },
    },
}

# What each kind reads besides kind, horizon and output: section -> its keys
# (None for all of them).  A config that sets anything else is rejected, not
# silently ignored; the schema carries this table as one if/then per kind.
_TATONNEMENT_READS = {
    "market": None,
    "dynamics": ["step_size", "price_cap", "c_prime"],
    "schedule": None,
    "bounds": ["delta", "warmup_rounds"],
}
KIND_READS = {
    "tatonnement-ms": _TATONNEMENT_READS,
    "tatonnement-cpf": _TATONNEMENT_READS,
    "prd": {
        "market": ["random", "budgets", "supplies", "rho", "coefficients"],
        "schedule": None,
        "bounds": ["q1", "q2", "fit_rounds"],
    },
    "gd-shifting": {"quadratic": None, "dynamics": ["eta"]},
    "diffusion": {"network": None},
}
CONFIG_SCHEMA["allOf"] = [
    {
        "if": {"required": ["kind"], "properties": {"kind": {"const": kind}}},
        "then": {
            "required": ["market"] if "market" in reads else [],
            "propertyNames": {"enum": ["kind", "horizon", "output", *reads]},
            "properties": {
                section: {"propertyNames": {"enum": keys}}
                for section, keys in reads.items()
                if keys is not None
            },
        },
    }
    for kind, reads in KIND_READS.items()
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_BOUND = 4


def _build_market(section: dict) -> CesMarket:
    if "random" in section:
        return random_market(**section["random"])
    return CesMarket(**{key: section[key] for key in _MARKET_ARRAYS})


def _build_schedule(section: dict, market, horizon: int) -> PerturbationSchedule:
    if "generator" in section:
        return generate_schedule(market, horizon, **section["generator"])
    return PerturbationSchedule.from_events(
        (e["round"], e["channel"], e["payload"]) for e in section.get("events", ())
    )


def _domination(trace) -> dict:
    violations = trace.violations()
    return {
        "violations": violations,
        "verdict": "PASS" if violations == 0 else "FAIL",
        "rounds": len(trace),
    }


def _run_tatonnement(config: dict):
    market = _build_market(config["market"])
    dynamics = config.get("dynamics", {})
    bounds = config.get("bounds", {})
    horizon = config["horizon"]
    total = market.total_budget

    variant = MISSPENDING if config["kind"] == "tatonnement-ms" else CPF
    step_size = dynamics.get("step_size", "auto")
    if step_size == "auto":
        step_size = default_step_size(market) if variant == MISSPENDING else CPF_STEP_SIZE
    price_cap = dynamics.get("price_cap", "2B")
    if price_cap == "2B":
        price_cap = 2.0 * total
    tat_config = TatonnementConfig(
        lam=float(step_size),
        variant=variant,
        price_cap=float(price_cap),
        c_prime=dynamics.get("c_prime"),
    )
    prices0 = np.asarray(
        config["market"].get("initial_prices", uniform_prices(market)),
        dtype=float,
    )
    delta = bounds.get("delta", "fit")
    if delta == "fit":
        delta, prices0 = fit_contraction(
            market, prices0, tat_config, bounds.get("warmup_rounds", 100)
        )
        delta_source = "fitted-from-warmup"
    else:
        delta = float(delta)
        delta_source = "supplied"
    schedule = _build_schedule(config.get("schedule", {}), market, horizon)
    trace = run_tatonnement_trace(market, prices0, tat_config, schedule, delta, horizon)

    constants = {
        "step_size": {"value": tat_config.lam, "source": "supplied" if dynamics.get("step_size", "auto") != "auto" else "default"},
        "price_cap": {"value": tat_config.price_cap},
        "delta": {"value": delta, "source": delta_source},
    }
    report = {
        "constants": constants,
        "assumption1_violations": int(np.count_nonzero(~trace.assumption1_ok)),
        "schedule_channels": sorted(schedule.channels()),
    }
    if len(trace):
        report["final_potential"] = float(trace.potential[-1])
        report["final_bound"] = float(trace.bound[-1])
    if variant == CPF:
        # The starting market's cold solve, already made for its potential.
        report["initial_price_ratio"] = float(np.min(prices0 / solve_equilibrium(market).prices))
    return trace, report


def _run_prd(config: dict):
    market = _build_market(config["market"])
    bounds = config.get("bounds", {})
    horizon = config["horizon"]
    reduced = reduce_supply_to_utility(market)
    bids = proportional_bids(reduced)
    if "q1" in bounds:  # the schema requires q1 and q2 together
        bound, source = PrdBoundConfig(q1=bounds["q1"], q2=bounds["q2"]), "supplied"
    else:  # static warm-up rounds, then the closed-form constants
        bids = prd_step(bids, reduced, rounds=bounds.get("fit_rounds", 200))
        bound, source = PrdBoundConfig.closed_form(reduced), "closed-form"
    schedule = _build_schedule(config.get("schedule", {}), market, horizon)
    trace = run_prd_trace(market, bids, schedule, bound, horizon)
    recurrence = float(trace.recurrence_ok.mean()) if len(trace) else 1.0
    report = {
        "constants": {
            "q1": {"value": bound.q1, "source": source},
            "q2": {"value": bound.q2, "source": source},
        },
        "recurrence_fraction": recurrence,
        "schedule_channels": sorted(schedule.channels()),
    }
    if len(trace):
        report["final_potential"] = float(trace.potential[-1])
        report["final_bound"] = float(trace.bound[-1])
        report["final_kl"] = float(trace.kl_to_equilibrium[-1])
    return trace, report


def _run_gd(config: dict):
    spec = config.get("quadratic", {})
    horizon = config["horizon"]
    problem, x0 = drifting_quadratic(horizon=horizon, **spec)
    eta = config.get("dynamics", {}).get("eta", "max")
    if eta != "max":
        problem = dataclasses.replace(problem, eta=float(eta))
    trace, regret = simulate_shifting_quadratic(problem, x0)
    regret_cap = gd_regret_bound(
        trace.initial, problem.delta, spec.get("shift", 0.01), problem.beta_smooth,
        horizon,
    )
    report = {
        "constants": {
            "delta": {"value": problem.delta, "source": "curvature"},
            "eta": {"value": problem.eta},
            "alpha": problem.alpha,
            "beta": problem.beta_smooth,
        },
        "initial_distance": trace.initial,
        "regret": regret,
        "regret_bound": regret_cap,
        "regret_ok": bool(regret <= regret_cap),
    }
    return trace, report


def _run_diffusion(config: dict):
    spec = config.get("network", {})
    horizon = config["horizon"]
    n = spec.get("n", 8)
    network = make_network(
        spec.get("graph", "path"),
        n,
        speeds=spec.get("speeds"),
        loads=spec.get("loads"),
        seed=spec.get("seed", 0),
        load_total=spec.get("load_total"),
    )
    drift = spec.get("drift")
    if drift:
        path = network.speeds * drifting_speeds(n=n, T=horizon, **drift)
    else:
        path = np.tile(network.speeds, (horizon + 1, 1))
    trace, lam, contractions = simulate_diffusion(network, path)
    # Rounds already within rounding noise of balance carry a NaN ratio.
    measured = contractions[~np.isnan(contractions)]
    report = {
        "constants": {"lambda2": {"value": lam, "source": "eigensolve"}},
        "dominated_with_sqrt_n_slack": trace.violations(np.sqrt(n)) == 0,
        "worst_contraction": float(measured.max()) if measured.size else None,
        "initial_imbalance": trace.initial,
    }
    return trace, report


_RUNNERS = {
    "tatonnement-ms": _run_tatonnement,
    "tatonnement-cpf": _run_tatonnement,
    "prd": _run_prd,
    "gd-shifting": _run_gd,
    "diffusion": _run_diffusion,
}


@functools.cache
def _config_validator():
    """Validator for CONFIG_SCHEMA, with the schema itself checked once."""
    import jsonschema

    cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    cls.check_schema(CONFIG_SCHEMA)
    return cls(CONFIG_SCHEMA)


def load_config(path: Path) -> dict:
    from jsonschema.exceptions import best_match, relevance

    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    # The error jsonschema.validate would raise, without re-checking the schema
    # on every call, but naming the first of two sibling errors, not the last.
    errors = _config_validator().iter_errors(config)
    top = max(errors, key=lambda e: relevance(e)[:1] + relevance(e)[2:], default=None)
    if top is not None:
        error = best_match([top])
        path, message = list(error.absolute_path), error.message
        if "propertyNames" in error.schema_path:  # a KIND_READS rule
            path.append(error.instance)
            message = f"not read by kind {config['kind']}"
        elif "dependentSchemas" in error.schema_path:  # two sources, one section
            # schema_path: properties, <section>, dependentSchemas, <source>, …
            message = f"cannot be set with {path[0]}/{error.schema_path[3]}"
        field = "/".join(str(p) for p in path) or "<root>"
        raise ConfigError(f"config field {field}: {message}")
    return config


class ConfigError(ValueError):
    pass


def run_experiment(config_path: Path, out_dir: Path, strict: bool) -> int:
    config = load_config(config_path)
    output = config.get("output", {})
    trace_path = out_dir / output.get("trace", "trace.csv")
    report_path = out_dir / output.get("report", "report.json")
    if trace_path == report_path:
        raise ConfigError(
            f"config field output: trace and report both name {trace_path.name}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)

    trace, report = _RUNNERS[config["kind"]](config)
    report.update(
        kind=config["kind"],
        horizon=config["horizon"],
        domination=_domination(trace),
        trace_file=trace_path.name,
    )
    # Refuse NaN and infinities, which are not JSON, before writing anything.
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    write_trace_csv(trace, trace_path)
    report_path.write_text(text + "\n")

    verdict = report["domination"]["verdict"]
    final = report.get("final_potential")
    summary = f"{config['kind']}: {len(trace)} rounds, domination {verdict}"
    if final is not None:
        summary += f", final potential {final:.6g}"
    print(summary)
    print(f"trace: {trace_path}")
    print(f"report: {report_path}")
    if strict and verdict != "PASS":
        return EXIT_BOUND
    return EXIT_OK


def run_batch(batch_dir: Path, out_dir: Path, strict: bool) -> int:
    configs = sorted(batch_dir.glob("*.json"))
    if not configs:
        print(f"no *.json configs under {batch_dir}", file=sys.stderr)
        return EXIT_CONFIG
    return max(
        _exit_code(cfg, out_dir / cfg.stem, strict, f"{cfg.name}: ") for cfg in configs
    )


def _exit_code(config_path: Path, out_dir: Path, strict: bool, label: str = "") -> int:
    """`run_experiment`'s code; a failure prints one line: 2 for the config, else 3."""
    try:
        return run_experiment(config_path, out_dir, strict)
    except ConfigError as exc:
        print(f"{label}config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"{label}simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


def run_verify(suite: str, as_json: bool = False) -> int:
    try:
        results = verify_mod.run_suite(suite)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_CONFIG
    passed = sum(r.passed for r in results)
    if as_json:
        batteries = [
            {"name": r.name, "passed": r.passed, "seconds": r.seconds, "detail": r.detail}
            for r in results
        ]
        print(json.dumps({"suite": suite, "batteries": batteries, "passed": passed}))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name:<{width}}  [{r.seconds:7.2f}s]  {r.detail}")
        print(f"{passed}/{len(results)} checks passed")
    return EXIT_OK if passed == len(results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqtracer",
        description="Simulate adaptation dynamics on drifting markets and "
        "verify tracking bounds.",
    )
    parser.add_argument(
        "--emit-schema",
        action="store_true",
        help="print the JSON schema for experiment configs and exit",
    )
    sub = parser.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="run one experiment config (or a batch)")
    group = sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", type=Path, help="path to a JSON experiment config")
    group.add_argument("--batch", type=Path, help="directory of JSON configs to run")
    sim.add_argument("--out", type=Path, required=True, help="output directory")
    sim.add_argument(
        "--strict",
        action="store_true",
        help="exit with status 4 when the measured potential ever exceeds its bound",
    )

    ver = sub.add_parser("verify", help="run acceptance batteries")
    ver.add_argument(
        "--suite",
        default="all",
        help=f"one of {sorted(verify_mod.SUITES)}",
    )
    ver.add_argument(
        "--json",
        action="store_true",
        help="print one JSON object: the suite, each battery's name, verdict, "
        "seconds and detail, and the pass count",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.emit_schema:
        print(json.dumps(CONFIG_SCHEMA, indent=2, sort_keys=True))
        return EXIT_OK
    if args.command == "simulate":
        if args.batch:
            return run_batch(args.batch, args.out, args.strict)
        return _exit_code(args.config, args.out, args.strict)
    if args.command == "verify":
        return run_verify(args.suite, args.json)
    parser.print_help()
    return EXIT_CONFIG


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
