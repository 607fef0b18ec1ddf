"""eqtracer benchmark: seeded `simulate` workloads through the CLI entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tat-large --seed 1 --seconds 25 --trace 0

Each workload is a closed loop with one client: the process calls
`eqtracer.cli.main(["simulate", ...])` in-process, one trace (or, for
`batch-small`, one `--batch` directory) after another, until `--seconds`
have passed.  One pass runs every config of the workload once; every pass
repeats the same configs, so passes do equal work.  Every trace is checked
(exit code 0, domination verdict PASS, zero price-cap violations for
tatonnement, recurrence fraction >= 0.95 for bid dynamics, regret within its
cap for descent, one CSV row per round) and must be byte-identical to the
same trace in the first pass.

`--trace 0` prints the end-to-end metrics: median horizon rounds per second
over passes (warm-up rounds cost time but are not counted), set-up time
(median of fifteen fresh-interpreter `import eqtracer.cli` plus config
generation), and peak resident memory.  Rounds per second and set-up time
are scaled to a nominal host speed: a fixed numpy kernel that does not use
eqtracer is timed on both sides of every pass and every set-up, and each
measured time is divided by how much slower than nominal the kernel ran
(see reference.py).  The unscaled medians are printed on the `env` line.

`--trace 1` alternates untraced passes with passes that have span-recording
shims installed on the calls between eqtracer's modules (see tracer.py),
and prints per-layer metrics for one pass plus the tracing overhead.
Spans are written to `.perfbench_out/<workload>/spans.csv`.

Seeds: the default seed is 1.  Seed 20261017 is held out: a later
performance claim must also hold on it.  `TRACER_THREADS` must be unset,
so that the batch pool uses the program's default worker count.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 15
RECURRENCE_MIN = 0.95  # the bid-dynamics battery's threshold

END_TO_END = (
    ("rounds_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("market.demand.calls", "count"),
    ("market.demand.self_s", "s"),
    ("market.potential.calls", "count"),
    ("market.potential.self_s", "s"),
    ("market.replace.calls", "count"),
    ("market.replace.self_s", "s"),
    ("tatonnement.step.calls", "count"),
    ("tatonnement.step.self_s", "s"),
    ("tatonnement.fit.s", "s"),
    ("equilibrium.solve.calls", "count"),
    ("equilibrium.solve.self_s", "s"),
    ("equilibrium.iterations", "count"),
    ("equilibrium.warm_hit_frac", "frac"),
    ("equilibrium.solve_ms.p50", "ms"),
    ("equilibrium.solve_ms.p99", "ms"),
    ("prd.step.calls", "count"),
    ("prd.step.self_s", "s"),
    ("prd.kl.self_s", "s"),
    ("prd.potential.self_s", "s"),
    ("prd.fit.s", "s"),
    ("perturbation.schedule.s", "s"),
    ("perturbation.apply.calls", "count"),
    ("perturbation.apply.self_s", "s"),
    ("perturbation.cap.self_s", "s"),
    ("applications.gd.s", "s"),
    ("applications.diffusion.s", "s"),
    ("instances.s", "s"),
    ("trace.write.s", "s"),
    ("trace.bytes", "bytes"),
    ("cli.load_config.s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.batch.span_sum_over_wall", "ratio"),
    ("tracing_overhead_frac", "frac"),
)

# Per-pass figures that must repeat exactly from one traced pass to the next.
EXACT = tuple(
    name for name, unit in PER_LAYER if unit in ("count", "bytes")
) + ("equilibrium.warm_hits",)


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny sizes, for the smoke test"
    )
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Wall time of `import eqtracer.cli` in a fresh interpreter."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t = time.perf_counter()\n"
        "import eqtracer.cli\n"
        "print(time.perf_counter() - t)\n"
        "print(eqtracer.cli.__file__)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise BenchError(f"cannot import eqtracer from {SRC}:\n{done.stderr}")
    seconds, location = done.stdout.split("\n")[:2]
    if not Path(location).resolve().is_relative_to(SRC):
        raise BenchError(f"eqtracer was imported from {location}, not from {SRC}")
    return float(seconds)


def set_up(workload: str, seed: int, tiny: bool, config_dir: Path):
    """Time import plus config generation SETUP_REPEATS times; keep the last configs.

    Returns the median set-up time scaled to the nominal host speed, the
    median wall time, and the configs.
    """
    scaled, walls = [], []
    before = reference.seconds()
    for _ in range(SETUP_REPEATS):
        seconds = import_seconds()
        shutil.rmtree(config_dir, ignore_errors=True)
        start = time.perf_counter()
        configs = workloads.make_configs(workload, seed, tiny)
        paths = workloads.write_configs(configs, config_dir)
        wall = seconds + time.perf_counter() - start
        after = reference.seconds()
        walls.append(wall)
        scaled.append(wall / reference.slowdown(before, after))
        before = after
    return statistics.median(scaled), statistics.median(walls), configs, paths


def import_cli():
    sys.path.insert(0, str(SRC))
    import eqtracer.cli

    if not Path(eqtracer.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"eqtracer was imported from {eqtracer.cli.__file__}")
    return eqtracer.cli


class Runner:
    """Runs passes of one workload and checks every trace they write."""

    def __init__(self, cli, configs, paths, work: Path, batch: bool = False):
        self.cli = cli
        self.batch = batch
        self.configs = dict(configs)
        self.paths = paths
        self.config_dir = paths[0].parent
        self.out_dir = work / "out"
        self.rounds = sum(c["horizon"] for c in self.configs.values())
        self.attempted = 0
        self.failures: list[str] = []  # one line per failed trace
        self.errors: list[str] = []    # inconsistencies not tied to one trace
        self.first_digests: dict | None = None
        self.trace_bytes = 0

    def run_pass(self) -> float:
        """One pass over every config; returns its wall time in seconds."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        errors = io.StringIO()
        codes = {}
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(errors):
            start = time.perf_counter()
            if self.batch:
                codes["batch"] = self._main(
                    ["--batch", str(self.config_dir), "--out", str(self.out_dir)]
                )
            else:
                for path in self.paths:
                    codes[path.stem] = self._main(
                        ["--config", str(path), "--out", str(self.out_dir / path.stem)]
                    )
            wall = time.perf_counter() - start
        self._check(codes, errors.getvalue())
        return wall

    def _main(self, args):
        try:
            return self.cli.main(["simulate", *args])
        except Exception as exc:  # a crash is a failed trace, not a benchmark error
            return f"{type(exc).__name__}: {exc}"

    def _check(self, codes: dict, stderr: str) -> None:
        digests = {}
        failed = []
        self.trace_bytes = 0
        batch_code = codes.get("batch", 0)
        for stem, config in self.configs.items():
            self.attempted += 1
            trace_dir = self.out_dir / stem
            problem = self._check_trace(config, trace_dir, codes.get(stem, 0))
            if problem is None:
                data = (trace_dir / "trace.csv").read_bytes()
                self.trace_bytes += len(data)
                digests[stem] = hashlib.sha256(data).hexdigest()
                if self.first_digests and self.first_digests.get(stem) != digests[stem]:
                    problem = "trace.csv differs from the first pass"
            if problem is not None:
                failed.append(f"{stem}: {problem}")
        if batch_code != 0 and not failed:
            failed.append(f"batch: exit code {batch_code}")
        if failed and stderr.strip():
            failed[-1] += " (stderr: " + stderr.strip().replace("\n", " | ") + ")"
        self.failures.extend(failed)
        if self.first_digests is None:
            self.first_digests = digests

    def _check_trace(self, config, trace_dir: Path, code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            report = json.loads((trace_dir / "report.json").read_text())
            rows = len((trace_dir / "trace.csv").read_text().splitlines()) - 1
        except (OSError, ValueError) as exc:
            return f"unreadable output: {exc}"
        kind = config["kind"]
        try:
            if report["domination"]["verdict"] != "PASS":
                return f"domination {report['domination']}"
            if kind.startswith("tatonnement") and report["assumption1_violations"] != 0:
                return f"{report['assumption1_violations']} price-cap violations"
            if kind == "prd" and report["recurrence_fraction"] < RECURRENCE_MIN:
                return f"recurrence fraction {report['recurrence_fraction']}"
            if kind == "gd-shifting" and not report["regret_ok"]:
                return f"regret {report['regret']} above cap {report['regret_bound']}"
        except KeyError as exc:
            return f"report lacks {exc}"
        if rows != config["horizon"]:
            return f"{rows} trace rows for horizon {config['horizon']}"
        return None

    def digest(self) -> str:
        combined = hashlib.sha256()
        for stem, digest in sorted((self.first_digests or {}).items()):
            combined.update(f"{stem} {digest}\n".encode())
        return combined.hexdigest()


def paced(seconds: float):
    """Yield until about `seconds` have passed, at least once.

    Another iteration starts only if, at the pace of the last one, it would
    end no later than half an iteration after `seconds`.
    """
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        yield
        now = time.perf_counter()
        if now - start + 0.5 * (now - began) >= seconds:
            return


def untraced_rates(runner: Runner, seconds: float):
    """Rounds per second of each untraced pass: scaled to the nominal host
    speed by the reference kernel timed on both sides of the pass, and as
    measured."""
    scaled, walls = [], []
    before = reference.seconds()
    for _ in paced(seconds):
        rate = runner.rounds / runner.run_pass()
        after = reference.seconds()
        walls.append(rate)
        scaled.append(rate * reference.slowdown(before, after))
        before = after
    return scaled, walls


def traced_layers(runner: Runner, seconds: float, spans_path: Path):
    """Untraced and traced passes in turn.

    Returns the per-layer metrics of one traced pass (counts from the first,
    times as medians over traced passes, tracing overhead from the medians
    of both kinds of pass) and the number of batch threads seen.
    """
    import tracer

    shims = tracer.Tracer()
    plain, traced, per_pass = [], [], []
    for _ in paced(seconds):
        plain.append(runner.rounds / runner.run_pass())
        first = len(shims.spans)
        with shims:
            traced.append(runner.rounds / runner.run_pass())
        summary = tracer.summarize(shims.spans[first:])
        summary["trace.bytes"] = runner.trace_bytes
        per_pass.append(summary)
    shims.write_csv(spans_path)
    for summary in per_pass[1:]:
        moved = [k for k in EXACT if summary[k] != per_pass[0][k]]
        if moved:
            runner.errors.append(f"traced counts differ between passes: {moved}")
    layers = {
        name: per_pass[0][name] if name in EXACT
        else statistics.median(p[name] for p in per_pass)
        for name, _ in PER_LAYER if name != "tracing_overhead_frac"
    }
    layers["tracing_overhead_frac"] = (
        statistics.median(plain) / statistics.median(traced) - 1.0
    )
    return layers, per_pass[0]["cli.batch.threads"]


def environment(runner: Runner) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "batch_workers": (
            min(len(runner.configs), os.cpu_count() or 1) if runner.batch else 0
        ),
    }


def run(args) -> dict:
    if "TRACER_THREADS" in os.environ:
        raise BenchError(
            "TRACER_THREADS is set; unset it so the batch pool uses its default size"
        )
    if not (SRC / "eqtracer" / "__init__.py").is_file():
        raise BenchError(f"no eqtracer sources under {SRC}")
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_s, setup_wall_s, configs, paths = set_up(
        args.workload, args.seed, args.tiny, work / "configs"
    )
    cli = import_cli()

    # Lazy imports (jsonschema) and first-call set-up happen on a tiny
    # config of the same workload, outside every timed pass.
    warm_configs = workloads.make_configs(args.workload, args.seed, tiny=True)[:1]
    warm = Runner(
        cli, warm_configs, workloads.write_configs(warm_configs, work / "warmup"),
        work / "warmup",
    )
    warm.run_pass()

    runner = Runner(cli, configs, paths, work, batch=args.workload == "batch-small")
    env = environment(runner)
    if args.trace:
        layers, env["batch_threads_seen"] = traced_layers(
            runner, args.seconds, work / "spans.csv"
        )
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER}
    else:
        rates, wall_rates = untraced_rates(runner, args.seconds)
        values = {
            "rounds_per_s": statistics.median(rates),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        env["passes"] = len(rates)
        env["wall_rounds_per_s"] = statistics.median(wall_rates)
        env["wall_setup_s"] = setup_wall_s

    attempted, failed = runner.attempted, len(runner.failures)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"trace_digest {args.workload} seed={args.seed} {runner.digest()}")
    print(f"failed_frac {failed / attempted:.6g} frac ({failed} of {attempted} traces)")
    for problem in warm.failures + runner.failures + runner.errors:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not (warm.failures or runner.failures or runner.errors),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    (work / "result.json").write_text(json.dumps({**result, "env": env}, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
