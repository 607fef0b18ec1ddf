"""Smoke test of the benchmark itself at tiny sizes.

Run from the root of a checkout: python3 -m pytest perfbench/test_smoke.py
"""

import json

import pytest

import run
import tracer
import workloads

cli = run.import_cli()


def _bindings():
    """Every attribute of every layer module, plus the wrapped method."""
    import importlib

    found = {}
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"eqtracer.{layer}")
        for attr, obj in vars(module).items():
            found[(layer, attr)] = obj
    for layer, cls_name, method in tracer.METHODS:
        cls = getattr(importlib.import_module(f"eqtracer.{layer}"), cls_name)
        found[(cls_name, method)] = cls.__dict__[method]
    return found


def _traced_pass(workload, tmp_path):
    configs = workloads.make_configs(workload, seed=3, tiny=True)
    paths = workloads.write_configs(configs, tmp_path / "configs")
    runner = run.Runner(cli, configs, paths, tmp_path, batch=workload == "batch-small")
    with tracer.Tracer() as shims:
        runner.run_pass()
    assert not runner.failures and not runner.errors
    return shims.spans


def test_shims_restore_originals():
    before = _bindings()
    shims = tracer.Tracer()
    with shims:
        during = _bindings()
        import eqtracer.market
        import eqtracer.tatonnement

        assert eqtracer.tatonnement.demand is not before[("tatonnement", "demand")]
        assert eqtracer.market.demand is not before[("market", "demand")]
        assert during[("CesMarket", "replace")] is not before[("CesMarket", "replace")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not shims.installed


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_spans_nest_and_counts_repeat(workload, tmp_path):
    spans = _traced_pass(workload, tmp_path / "a")
    by_id = {s[0]: s for s in spans}
    assert len(by_id) == len(spans)
    for span_id, parent, _, start, end, thread, _ in spans:
        assert start <= end
        if parent != -1:
            outer = by_id[parent]
            assert outer[5] == thread
            assert outer[3] <= start and end <= outer[4]
    assert min(tracer.self_times(spans).values()) >= -1e-9

    summary = tracer.summarize(spans)
    second = tracer.summarize(_traced_pass(workload, tmp_path / "b"))
    for name in run.EXACT:
        if name != "trace.bytes":
            assert summary[name] == second[name], name
    assert summary["market.demand.calls"] > 0
    if workload == "tat-large":
        assert summary["equilibrium.solve.calls"] == 0
    if workload == "batch-small":
        assert summary["cli.batch.span_sum_over_wall"] > 0
        assert summary["applications.diffusion.s"] > 0


def test_benchmark_json_matches_the_script():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace, capsys):
    code = run.main([
        "--workload", "batch-small", "--seed", "5", "--seconds", "0.2",
        "--trace", str(trace), "--tiny",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: unit for name, unit in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert any(line.startswith("trace_digest batch-small seed=5 ") for line in lines)
    if not trace:
        env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
        assert env["wall_rounds_per_s"] > 0 and env["wall_setup_s"] > 0
