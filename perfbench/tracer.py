"""Span-recording shims around the calls between eqtracer's modules.

`Tracer.install()` finds every function that one layer module imports from
another (for example `eqtracer.tatonnement.demand` or
`eqtracer.cli.write_trace_csv`) and replaces each binding of it, in every
layer module including the one that defines it, with a shim that records a
span.  A few module-internal entry points that a layer metric needs
(`INTERNAL`) and `CesMarket.replace` are wrapped the same way.
`Tracer.uninstall()` puts every original back.

A span is (id, parent id, name, start, end, thread id, solver iterations).
Spans are kept in memory and written out by `write_csv`; `summarize`
turns a slice of them into the benchmark's per-layer metrics.  Nothing
under `src/` is modified on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import threading
from pathlib import Path
from time import perf_counter

LAYERS = (
    "market", "tatonnement", "equilibrium", "prd", "perturbation",
    "applications", "instances", "trace", "cli",
)

# Same-module calls that a per-layer metric needs to see.
INTERNAL = {
    "tatonnement": ("step_ms", "step_cpf"),
    "prd": ("prd_step", "kl_divergence", "prd_potential_g"),
    "cli": ("load_config", "run_experiment", "run_batch"),
}
METHODS = (("market", "CesMarket", "replace"),)

SOLVE = "equilibrium.solve_equilibrium"

# Per-layer metric groups: group name -> span names that belong to it.
GROUPS = {
    "market.demand": ("market.demand",),
    "market.potential": (
        "market.misspending_potential", "market.cpf_potential",
        "market.normalized_cpf_potential", "market.unit_cost",
    ),
    "market.replace": ("market.replace",),
    "tatonnement.step": ("tatonnement.step_ms", "tatonnement.step_cpf"),
    "tatonnement.fit": ("tatonnement.fit_contraction",),
    "equilibrium.solve": (SOLVE,),
    "prd.step": ("prd.prd_step",),
    "prd.kl": ("prd.kl_divergence",),
    "prd.potential": ("prd.prd_potential_g",),
    "prd.fit": ("prd.fit_prd_constants",),
    "perturbation.schedule": ("perturbation.generate_schedule",),
    "perturbation.apply": ("perturbation.apply_event",),
    "perturbation.cap": (
        "perturbation.delta_ms_supply", "perturbation.delta_ms_budget",
        "perturbation.delta_ms_utility", "perturbation.delta_cpf_supply",
        "perturbation.delta_cpf_budget", "perturbation.delta_cpf_utility",
        "perturbation.delta_prd_utility", "perturbation._prd_delta_from_parts",
        "perturbation._min_coefficient_share",
    ),
    "applications.gd": (
        "applications.simulate_shifting_quadratic", "applications.gd_regret_bound",
    ),
    "applications.diffusion": (
        "applications.simulate_diffusion", "applications.second_eigenvalue",
    ),
    "trace.write": ("trace.write_trace_csv",),
    "cli.load_config": ("cli.load_config",),
    "cli.run": ("cli.run_experiment",),
    "cli.batch": ("cli.run_batch",),
}


def _layer(func) -> str | None:
    module = getattr(func, "__module__", "") or ""
    package, _, layer = module.rpartition(".")
    return layer if package == "eqtracer" and layer in LAYERS else None


class Tracer:
    """Installs shims on the eqtracer modules and records spans in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def _targets(self) -> dict:
        """function object -> span name, for every function to be wrapped."""
        modules = {layer: importlib.import_module(f"eqtracer.{layer}") for layer in LAYERS}
        found = {}
        for layer, module in modules.items():
            for obj in vars(module).values():
                owner = _layer(obj) if inspect.isfunction(obj) else None
                if owner is not None and owner != layer:
                    found[obj] = f"{owner}.{obj.__name__}"
        for layer, names in INTERNAL.items():
            for name in names:
                found[getattr(modules[layer], name)] = f"{layer}.{name}"
        return found

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("shims are already installed")
        shims = {func: self._shim(func, name) for func, name in self._targets().items()}
        for layer in LAYERS:
            module = importlib.import_module(f"eqtracer.{layer}")
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in shims:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, shims[obj])
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"eqtracer.{layer}"), cls_name)
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, self._shim(original, f"{layer}.{method}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _shim(self, func, name: str):
        spans, ids, local = self.spans, self._ids, self._local
        iterations_of = name == SOLVE

        @functools.wraps(func)
        def shim(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            iterations = -1
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                if iterations_of:
                    iterations = result.iterations
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(
                    (span_id, parent, name, start, end, threading.get_ident(), iterations)
                )

        return shim

    def write_csv(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end,thread,iterations\n")
            for span in sorted(self.spans):
                fh.write(",".join(
                    repr(v) if isinstance(v, float) else str(v) for v in span
                ) + "\n")


def group_of(name: str) -> str | None:
    for group, members in GROUPS.items():
        if name in members:
            return group
    # Every generator in `instances` counts towards instances.s.
    return "instances" if name.startswith("instances.") else None


def self_times(spans) -> dict:
    """span id -> its duration minus the durations of its direct children."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] in own:
            own[s[1]] -= s[4] - s[3]
    return own


def summarize(spans) -> dict:
    """Flat per-layer metrics of one pass of spans.

    For each group: `<group>.calls`, `<group>.self_s` (duration minus the
    durations of direct child spans) and `<group>.s` (inclusive time of the
    outermost spans of the group, so nested calls are not counted twice).
    Plus the solver's iteration total, warm-hit fraction and latency
    percentiles, and the batch pool's span-sum-over-wall ratio.
    """
    by_id = {s[0]: s for s in spans}
    group = {name: group_of(name) for name in {s[2] for s in spans}}
    own = self_times(spans)

    out = {}
    for g in (*GROUPS, "instances"):
        out[f"{g}.calls"] = 0
        out[f"{g}.self_s"] = 0.0
        out[f"{g}.s"] = 0.0
    for s in spans:
        g = group[s[2]]
        if g is None:
            continue
        out[f"{g}.calls"] += 1
        out[f"{g}.self_s"] += own[s[0]]
        parent = by_id.get(s[1])
        while parent is not None and group[parent[2]] != g:
            parent = by_id.get(parent[1])
        if parent is None:
            out[f"{g}.s"] += s[4] - s[3]

    solves = [s for s in spans if s[2] == SOLVE]
    solve_ms = sorted((s[4] - s[3]) * 1e3 for s in solves)
    out["equilibrium.iterations"] = sum(max(s[6], 0) for s in solves)
    out["equilibrium.warm_hits"] = sum(1 for s in solves if s[6] == 0)
    out["equilibrium.warm_hit_frac"] = (
        out["equilibrium.warm_hits"] / len(solves) if solves else 0.0
    )
    out["equilibrium.solve_ms.p50"] = _percentile(solve_ms, 0.50)
    out["equilibrium.solve_ms.p99"] = _percentile(solve_ms, 0.99)

    batches = [s for s in spans if s[2] == "cli.run_batch"]
    batch_runs = [
        s for s in spans
        if s[2] == "cli.run_experiment"
        and any(b[3] <= s[3] and s[4] <= b[4] for b in batches)
    ]
    batch_wall = sum(s[4] - s[3] for s in batches)
    out["cli.batch.span_sum_over_wall"] = (
        sum(s[4] - s[3] for s in batch_runs) / batch_wall if batch_wall else 0.0
    )
    out["cli.batch.threads"] = len({s[5] for s in batch_runs})
    return out


def _percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]
