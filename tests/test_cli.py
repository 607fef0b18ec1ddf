import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest

import eqtracer.applications
import eqtracer.cli
import eqtracer.equilibrium
import eqtracer.prd
import eqtracer.tatonnement
from eqtracer import verify
from eqtracer.cli import (
    CONFIG_SCHEMA,
    EXIT_BOUND,
    EXIT_CONFIG,
    EXIT_SIMULATION,
    KINDS,
    build_parser,
    main,
)
from eqtracer.instances import drifting_quadratic, drifting_speeds, random_market
from eqtracer.perturbation import generate_schedule
from eqtracer.trace import CSV_HEADER, file_sha256

ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


BASE = {
    "kind": "tatonnement-ms",
    "horizon": 200,
    "market": {"random": {"m": 3, "n": 4, "seed": 1}},
    "schedule": {
        "generator": {"channel": "supply-additive", "magnitude": 0.01, "seed": 2}
    },
}


def test_simulate_writes_trace_and_report(tmp_path):
    cfg = write_config(tmp_path, "c.json", BASE)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 201
    report = json.loads((out / "report.json").read_text())
    assert report["domination"]["verdict"] == "PASS"
    assert report["constants"]["delta"]["source"] == "fitted-from-warmup"
    assert report["constants"]["delta"]["value"] > 0


def test_static_run_converges_with_pass_verdict(tmp_path):
    config = {
        "kind": "tatonnement-ms",
        "horizon": 500,
        "market": {"random": {"m": 4, "n": 4, "seed": 3}},
    }
    cfg = write_config(tmp_path, "static.json", config)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["domination"]["verdict"] == "PASS"
    budget_scale = 1e-6 * 4 * 2.0  # budgets drawn from [0.5, 2]
    assert report["final_potential"] < budget_scale


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "c.json", BASE)
    digests = []
    for i in range(2):
        out = tmp_path / f"out{i}"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        digests.append(file_sha256(out / "trace.csv"))
    assert digests[0] == digests[1]


def test_malformed_json_exits_2_with_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": }')
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line 1" in err


def test_schema_violation_exits_2_with_field(tmp_path, capsys):
    for config, field in (
        ({"kind": "prd", "horizon": -3, "market": BASE["market"]}, "horizon"),
        ({"kind": "diffusion", "horizon": 5, "network": {"speeds": ["fast", 1.0]}},
         "network/speeds/0"),
        ({"kind": "diffusion", "horizon": 5, "network": {"speeds": ["fast", "slow"]}},
         "network/speeds/0"),
    ):
        cfg = write_config(tmp_path, "c.json", config)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"config field {field}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, market, message",
    [
        ("tatonnement-ms", None, "config field <root>: 'market' is a required property"),
        ("tatonnement-cpf", {}, "config field market: 'budgets' is a required property"),
        (
            "prd",
            {"budgets": [1.0], "supplies": [1.0], "rho": [0.5]},
            "config field market: 'coefficients' is a required property",
        ),
    ],
    ids=["no-market", "empty", "no-coefficients"],
)
def test_missing_market_fields_are_config_errors(tmp_path, capsys, kind, market, message):
    config = {"kind": kind, "horizon": 5}
    if market is not None:
        config["market"] = market
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulation_error_exits_3(tmp_path, capsys):
    config = {
        "kind": "tatonnement-ms",
        "horizon": 10,
        "market": {
            "budgets": [1.0],
            "supplies": [1.0],
            "rho": [0.5],
            "coefficients": [[0.0]],
        },
    }
    cfg = write_config(tmp_path, "c.json", config)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_SIMULATION
    assert "simulation error" in capsys.readouterr().err


def test_schedule_leaving_valid_supplies_exits_3_before_any_output(tmp_path, capsys):
    # The cumulative supply of good 0 (at most 2) turns negative by round 5; levels
    # are checked before round 1, with the single-event message.
    events = [
        {"round": t, "channel": "supply-additive", "payload": [-0.4, 0.0, 0.0, 0.0]}
        for t in range(1, 6)
    ]
    config = {**BASE, "horizon": 10, "schedule": {"events": events}}
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_SIMULATION
    assert "supply event would drive a supply non-positive" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


def test_unwritable_output_exits_3_for_one_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", BASE)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["simulate", "--config", str(cfg), "--out", str(blocker / "x")]) == EXIT_SIMULATION
    err = capsys.readouterr().err
    assert "simulation error" in err and "Not a directory" in err
    assert "Traceback" not in err


def test_unwritable_output_exits_3_for_a_batch(tmp_path, capsys):
    configs = tmp_path / "configs"
    configs.mkdir()
    write_config(configs, "c.json", BASE)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["simulate", "--batch", str(configs), "--out", str(blocker / "x")]) == EXIT_SIMULATION
    err = capsys.readouterr().err
    assert "c.json: simulation error" in err and "Not a directory" in err


def test_strict_mode_flags_bound_violation(tmp_path):
    # A deliberately overstated contraction rate makes the envelope decay
    # faster than the measured potential, tripping the strict gate.
    config = dict(BASE, bounds={"delta": 0.999}, schedule={"events": []})
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--strict"]) == EXIT_BOUND
    report = json.loads((out / "report.json").read_text())
    assert report["domination"]["verdict"] == "FAIL"
    # without --strict the same run exits 0 but still reports the failure
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o2")]) == 0


def test_emit_schema_is_valid_jsonschema(capsys):
    assert main(["--emit-schema"]) == 0
    schema = json.loads(capsys.readouterr().out)
    jsonschema.Draft202012Validator.check_schema(schema)
    assert schema == CONFIG_SCHEMA


def test_batch_runs_all_configs(tmp_path):
    configs = tmp_path / "configs"
    configs.mkdir()
    write_config(configs, "a.json", BASE)
    write_config(
        configs,
        "b.json",
        {
            "kind": "gd-shifting",
            "horizon": 100,
            "quadratic": {"dims": 3, "shift": 0.01, "seed": 4},
        },
    )
    out = tmp_path / "out"
    assert main(["simulate", "--batch", str(configs), "--out", str(out)]) == 0
    assert (out / "a" / "trace.csv").exists()
    assert (out / "b" / "report.json").exists()


def test_batch_propagates_worst_exit(tmp_path, capsys):
    configs = tmp_path / "configs"
    configs.mkdir()
    write_config(configs, "good.json", BASE)
    (configs / "bad.json").write_text("{nope")
    assert main(["simulate", "--batch", str(configs), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_batch_keeps_going_past_a_failing_config(tmp_path, capsys):
    configs = tmp_path / "configs"
    configs.mkdir()
    (configs / "a_bad.json").write_text('{"kind": }')
    good = write_config(configs, "b_good.json", BASE)
    out = tmp_path / "out"
    assert main(["simulate", "--batch", str(configs), "--out", str(out)]) == EXIT_CONFIG
    assert "a_bad.json" in capsys.readouterr().err
    alone = tmp_path / "alone"
    assert main(["simulate", "--config", str(good), "--out", str(alone)]) == 0
    assert file_sha256(out / "b_good" / "trace.csv") == file_sha256(alone / "trace.csv")


def test_output_names_must_stay_inside_out_dir(tmp_path, capsys):
    out = tmp_path / "nest" / "out"
    for field, name in (("trace", "nested/trace.csv"), ("report", "../escaped.csv")):
        config = {"kind": "gd-shifting", "horizon": 5, "output": {field: name}}
        cfg = write_config(tmp_path, "c.json", config)
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and f"output/{field}" in err
    assert not (tmp_path / "nest" / "escaped.csv").exists()


def test_trace_and_report_must_differ(tmp_path, capsys):
    for output in ({"trace": "same.csv", "report": "same.csv"}, {"report": "trace.csv"}):
        config = {"kind": "gd-shifting", "horizon": 5, "output": output}
        cfg = write_config(tmp_path, "c.json", config)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


def test_module_entry_point_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "eqtracer.cli", *args],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )

    schema = run("--emit-schema")
    assert schema.returncode == 0, schema.stderr
    assert json.loads(schema.stdout) == CONFIG_SCHEMA
    assert run("verify", "--suite", "nope").returncode == EXIT_CONFIG


def test_verify_unknown_suite_exits_2(capsys):
    assert main(["verify", "--suite", "bogus"]) == EXIT_CONFIG
    assert "unknown suite" in capsys.readouterr().err


def test_verify_json_prints_one_object_per_suite(capsys):
    assert main(["verify", "--suite", "oracles", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["suite", "batteries", "passed"]
    assert report["suite"] == "oracles"
    batteries = report["batteries"]
    assert [b["name"] for b in batteries] == [
        "extremal shares match exhaustive search",
        "supply perturbations reduce to utility ones",
    ]
    for battery in batteries:
        assert list(battery) == ["name", "passed", "seconds", "detail"]
        assert battery["passed"] is True and battery["seconds"] > 0
        assert isinstance(battery["detail"], str) and battery["detail"]
    assert report["passed"] == len(batteries) == 2


def test_verify_prints_a_table_without_json(capsys):
    assert main(["verify", "--suite", "oracles"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("PASS  ") for line in lines[:2])
    assert lines[2] == "2/2 checks passed"


def test_gd_report_reads_a_supplied_step_size(tmp_path):
    config = {"kind": "gd-shifting", "horizon": 5, "dynamics": {"eta": 0.25}}
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(write_config(tmp_path, "c.json", config)),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["constants"]["eta"]["value"] == 0.25


def test_prd_and_diffusion_reports(tmp_path):
    prd_cfg = write_config(
        tmp_path,
        "prd.json",
        {
            "kind": "prd",
            "horizon": 120,
            "market": {"random": {"m": 3, "n": 4, "seed": 5, "unit_supplies": True}},
            "schedule": {
                "generator": {
                    "channel": "utility-multiplicative",
                    "magnitude": 0.005,
                    "seed": 6,
                }
            },
        },
    )
    out = tmp_path / "prd-out"
    assert main(["simulate", "--config", str(prd_cfg), "--out", str(out), "--strict"]) == 0
    report = json.loads((out / "report.json").read_text())
    market = random_market(5, 3, 4, unit_supplies=True)
    assert report["constants"] == {
        "q1": {"value": market.rho.max(), "source": "closed-form"},
        "q2": {"value": 1.0, "source": "closed-form"},
    }
    assert report["recurrence_fraction"] == 1.0

    diff_cfg = write_config(
        tmp_path,
        "diff.json",
        {
            "kind": "diffusion",
            "horizon": 150,
            "network": {
                "graph": "cycle",
                "n": 8,
                "seed": 7,
                "load_total": 4.0,
                "drift": {"magnitude": 0.002, "seed": 8, "mode": "common"},
            },
        },
    )
    out2 = tmp_path / "diff-out"
    assert main(["simulate", "--config", str(diff_cfg), "--out", str(out2)]) == 0
    report2 = json.loads((out2 / "report.json").read_text())
    assert 0 <= report2["constants"]["lambda2"]["value"] < 1
    assert report2["dominated_with_sqrt_n_slack"] is True


def test_diffusion_run_computes_lambda2_once(tmp_path, monkeypatch):
    calls = []
    original = eqtracer.applications.second_eigenvalue

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # Any binding of the function, wherever the run looks it up.
    for module in (eqtracer.applications, eqtracer.cli):
        monkeypatch.setattr(module, "second_eigenvalue", counted, raising=False)
    config = {"kind": "diffusion", **verify._DETERMINISM_CONFIGS["diffusion"]}
    cfg = write_config(tmp_path, "c.json", config)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_budget_schedule_on_prd_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "kind": "prd",
            "horizon": 10,
            "market": {"random": {"m": 2, "n": 3, "seed": 9, "unit_supplies": True}},
            "schedule": {
                "generator": {"channel": "budget-additive", "magnitude": 0.01, "seed": 10}
            },
        },
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_SIMULATION


def test_supplied_delta_outside_unit_interval_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {**BASE, "bounds": {"delta": 1.5}})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_SIMULATION
    assert "delta must lie" in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize(
    "network",
    [{"graph": "path", "n": 1}, {"graph": "complete", "n": 2, "loads": [1, 1]}],
    ids=["single-machine", "balanced-pair"],
)
def test_report_without_measurable_contraction_is_valid_json(tmp_path, network):
    # Every round starts balanced, so no round has a contraction ratio.
    config = {"kind": "diffusion", "horizon": 5, "network": network}
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    text = (out / "report.json").read_text()
    report = json.loads(text, parse_constant=_reject_constant)
    assert report["worst_contraction"] is None


@pytest.mark.parametrize(
    "section, generator",
    [
        (("market", "random"), random_market),
        (("network", "drift"), drifting_speeds),
        (("quadratic",), drifting_quadratic),
        (("schedule", "generator"), generate_schedule),
    ],
)
def test_generator_sections_name_generator_parameters(section, generator):
    # The CLI passes these sections to their generators as keyword arguments.
    schema = CONFIG_SCHEMA
    for key in section:
        schema = schema["properties"][key]
    assert set(schema["properties"]) <= set(inspect.signature(generator).parameters)


@pytest.mark.parametrize("graph", [[[0, 1], [2, 3]], [[0, 1], [1, 2]]])
def test_disconnected_diffusion_network_exits_3(tmp_path, capsys, graph):
    network = {"graph": graph, "n": 4, "seed": 1, "drift": {"magnitude": 0.01, "seed": 2}}
    cfg = write_config(tmp_path, "c.json", {"kind": "diffusion", "horizon": 20, "network": network})
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_SIMULATION
    assert "the diffusion matrix must mix" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize(
    "kind, section, field",
    [
        ("diffusion", {"network": {"n": 4, "speeds": math.inf}}, "speeds"),
        ("diffusion", {"network": {"n": 4, "speeds": [1.0, math.nan, 1.0, 1.0]}}, "speeds"),
        ("diffusion", {"network": {"n": 4, "loads": [1.0, math.inf, 1.0, 1.0]}}, "loads"),
        ("diffusion", {"network": {"n": 4, "loads": [1.0, math.inf, 1.0, 1.0], "load_total": 4}},
         "loads"),
        ("gd-shifting", {"quadratic": {"shift": math.nan}}, "optima"),
        ("gd-shifting", {"quadratic": {"start_offset": math.inf}}, "x0"),
    ],
    ids=["infinite-speed", "nan-speed", "infinite-load", "infinite-rescaled-load", "nan-shift",
         "infinite-start"],
)
def test_non_finite_inputs_exit_3_by_name(tmp_path, capsys, kind, section, field):
    # JSON's NaN and Infinity pass the schema's number type; the model refuses them.
    cfg = write_config(tmp_path, "c.json", {"kind": kind, "horizon": 10, **section})
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_SIMULATION
    assert capsys.readouterr().err == f"simulation error: {field} must be finite\n"
    assert not caught
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize(
    "kind, section, message",
    [
        ("tatonnement-ms", {"market": {"random": {"m": 3, "n": 4, "seed": 1, "rho_low": 0.8,
                                                  "rho_high": 0.2}}},
         "rho_low (0.8) must not exceed rho_high (0.2)"),
        ("gd-shifting", {"quadratic": {"curvature_low": 2.0, "curvature_high": 1.0}},
         "curvature_low (2.0) must not exceed curvature_high (1.0)"),
        ("diffusion", {"network": {"n": 4, "drift": {"magnitude": 0.01, "seed": 2, "low": 2.0,
                                                     "high": 0.5}}},
         "drift low (2.0) and high (0.5) must satisfy 0 < low <= 1 <= high"),
        ("diffusion", {"network": {"n": 4, "drift": {"magnitude": 0.01, "seed": 2, "low": 1.5,
                                                     "high": 2.0}}},
         "drift low (1.5) and high (2.0) must satisfy 0 < low <= 1 <= high"),
        ("diffusion", {"network": {"n": 4, "drift": {"magnitude": 0.5, "seed": 2}}},
         "drift magnitude (0.5) must lie in [0, ln(high / low) / 2] = [0, 0.223144]"),
    ],
    ids=["rho-range", "curvature-range", "drift-band-reversed", "drift-band-above-one",
         "drift-too-wide"],
)
def test_generator_range_that_cannot_hold_exits_3_by_name(
    tmp_path, capsys, kind, section, message
):
    cfg = write_config(tmp_path, "c.json", {"kind": kind, "horizon": 10, **section})
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_SIMULATION
    assert capsys.readouterr().err == f"simulation error: {message}\n"
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize(
    "graph", [[[0, 1.5], [1, 2]], [[0, -1], [0, 1]], [[0, 1, 2]], [[0]]],
    ids=["fractional", "negative", "triple", "single"],
)
def test_malformed_edge_list_is_a_config_error(tmp_path, capsys, graph):
    network = {"graph": graph, "n": 3}
    cfg = write_config(tmp_path, "c.json", {"kind": "diffusion", "horizon": 5, "network": network})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config field network/graph" in capsys.readouterr().err


def test_edge_beyond_machine_count_exits_3(tmp_path, capsys):
    network = {"graph": [[0, 5], [1, 2]], "n": 3}
    cfg = write_config(tmp_path, "c.json", {"kind": "diffusion", "horizon": 5, "network": network})
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_SIMULATION
    assert "edge (0, 5) must join machine indices 0..2" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


def test_overflowing_prd_cap_exits_3_by_name(tmp_path, capsys):
    market = {"m": 2, "n": 12, "seed": 5, "rho_low": 0.99, "rho_high": 0.999, "unit_supplies": True}
    config = {
        "kind": "prd",
        "horizon": 20,
        "market": {"random": market},
        "schedule": {
            "generator": {"channel": "utility-multiplicative", "magnitude": 0.006, "seed": 4}
        },
    }
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_SIMULATION
    err = capsys.readouterr().err
    assert "too large for rho this close to 1" in err
    assert "Warning" not in err and "JSON" not in err


@pytest.mark.parametrize("bounds", [{"q1": 0.5}, {"q2": 0.5}], ids=["q1-alone", "q2-alone"])
def test_lone_prd_constant_is_a_config_error(tmp_path, capsys, bounds):
    config = {"kind": "prd", "horizon": 5, "market": BASE["market"], "bounds": bounds}
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "config field bounds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["budgets", "supplies", "rho", "coefficients"])
def test_random_market_with_explicit_arrays_is_a_config_error(tmp_path, capsys, field):
    market = {**BASE["market"], field: [1.0, 1.0]}
    cfg = write_config(tmp_path, "c.json", {"kind": "prd", "horizon": 5, "market": market})
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config field market/{field}: cannot be set with market/random" in err
    assert not out.exists()


def test_generated_schedule_with_explicit_events_is_a_config_error(tmp_path, capsys):
    event = {"round": 1, "channel": "budget-additive", "payload": [0.1, 0.0, 0.0]}
    schedule = {**BASE["schedule"], "events": [event]}
    cfg = write_config(tmp_path, "c.json", {**BASE, "horizon": 5, "schedule": schedule})
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config field schedule/events: cannot be set with schedule/generator" in err
    assert not out.exists()


# One config per kind that sets sections the kind does not read.
@pytest.mark.parametrize(
    "config, fields",
    [
        (
            {
                "kind": "gd-shifting", "quadratic": {"dims": 3},
                "schedule": BASE["schedule"], "market": BASE["market"],
            },
            {"schedule", "market"},
        ),
        (
            {
                "kind": "prd",
                "market": {**BASE["market"], "initial_prices": [1.0, 1.0, 1.0, 1.0]},
                "bounds": {"delta": 0.1, "warmup_rounds": 5},
                "dynamics": {"step_size": 0.01},
            },
            {"market/initial_prices", "bounds/delta", "bounds/warmup_rounds", "dynamics"},
        ),
        (
            {
                "kind": "tatonnement-ms", "market": BASE["market"],
                "bounds": {"q1": 0.5, "q2": 1.0, "fit_rounds": 10},
                "network": {"graph": "path"},
            },
            {"bounds/q1", "bounds/q2", "bounds/fit_rounds", "network"},
        ),
    ],
    ids=["gd-shifting", "prd", "tatonnement-ms"],
)
def test_sections_a_kind_does_not_read_are_config_errors(tmp_path, capsys, config, fields):
    cfg = write_config(tmp_path, "c.json", {**config, "horizon": 5})
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    named = err.split("config field ")[1].split(":")[0]
    assert named in fields
    assert f"not read by kind {config['kind']}" in err
    assert not out.exists()


def test_schema_states_what_each_kind_reads():
    rules = {
        rule["if"]["properties"]["kind"]["const"]: rule["then"]
        for rule in CONFIG_SCHEMA["allOf"]
    }
    assert set(rules) == set(KINDS)
    prd = rules["prd"]
    assert "network" not in prd["propertyNames"]["enum"]
    assert "initial_prices" not in prd["properties"]["market"]["propertyNames"]["enum"]


@pytest.mark.parametrize(
    "field, literal, message",
    [
        ("supplies", "[1e400, 1.0]", "supplies must be finite"),
        ("budgets", "[1e400, 1.0]", "budgets must be finite"),
        ("coefficients", "[[1e400, 1.0], [1.0, 2.0]]", "coefficients must be finite"),
        ("rho", "[1e400, 0.5]", "each rho must be finite"),
    ],
)
def test_infinite_market_field_exits_3_before_any_output(
    tmp_path, capsys, field, literal, message
):
    # JSON reads 1e400 as infinity; the market must refuse it by name before
    # numpy warns or a trace is written.
    market = {
        "budgets": "[1.0, 2.0]",
        "supplies": "[1.0, 1.0]",
        "rho": "[0.5, 0.5]",
        "coefficients": "[[1.0, 2.0], [2.0, 1.0]]",
        field: literal,
    }
    body = ", ".join(f'"{key}": {value}' for key, value in market.items())
    cfg = tmp_path / "c.json"
    cfg.write_text(f'{{"kind": "tatonnement-ms", "horizon": 10, "market": {{{body}}}}}')
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_SIMULATION
    err = capsys.readouterr().err
    assert message in err
    assert "Warning" not in err
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize(
    "kind, section, message",
    [
        ("tatonnement-ms", {"dynamics": {"price_cap": math.nan}}, "price_cap must be positive"),
        (
            "tatonnement-cpf",
            {
                "dynamics": {"c_prime": math.nan},
                "schedule": {"events": [{"round": 1, "channel": "budget-additive",
                                         "payload": [0.01, 0.0, 0.0]}]},
            },
            "c_prime must be positive",
        ),
        (
            "tatonnement-ms",
            {"schedule": {"generator": {"channel": "supply-additive", "magnitude": math.nan,
                                        "seed": 2}}},
            "magnitude must be non-negative",
        ),
        (
            "tatonnement-ms",
            {"schedule": {"events": [
                {"round": 1, "channel": "supply-additive", "payload": [0.01, 0.0, 0.0, 0.0]},
                {"round": 2, "channel": "supply-additive", "payload": [0.01, 0.0]},
            ]}},
            "supply-additive event for round 2 has payload shape (2,); expected (4,)",
        ),
        (
            "tatonnement-ms",
            {"schedule": {"events": [
                {"round": 3, "channel": "utility-multiplicative", "payload": [[1.0, 1.0], [1.0]]},
            ]}},
            "utility-multiplicative event for round 3 has a ragged or non-numeric payload",
        ),
        (
            "tatonnement-ms",
            {"schedule": {"events": [
                {"round": 10**20, "channel": "supply-additive", "payload": [0.01, 0.0, 0.0, 0.0]},
            ]}},
            f"supply-additive event for round {10**20}: rounds must be whole numbers below 2**63",
        ),
    ],
    ids=[
        "nan-price-cap", "nan-c-prime", "nan-magnitude", "ragged-events", "ragged-payload",
        "round-beyond-int64",
    ],
)
def test_bad_constants_and_events_exit_3_by_name_before_any_output(
    tmp_path, capsys, kind, section, message
):
    # JSON reads NaN as a float, which every "x <= 0" check lets through.
    cfg = write_config(tmp_path, "c.json", {**BASE, "kind": kind, "horizon": 20, **section})
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_SIMULATION
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_cached_parser_leaks_no_state_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    cfg = write_config(tmp_path, "a.json", BASE)
    batch = tmp_path / "batch"
    batch.mkdir()
    write_config(batch, "tat.json", {**BASE, "horizon": 60})
    write_config(
        batch,
        "diff.json",
        {"kind": "diffusion", "horizon": 40, "network": {"graph": "path", "n": 5}},
    )
    runs = [
        ("config", ["--config", str(cfg)], ["."]),
        ("batch", ["--batch", str(batch)], ["diff", "tat"]),
        ("config-again", ["--config", str(cfg)], ["."]),
    ]
    assert main(["--emit-schema"]) == 0
    for name, args, _ in runs:
        assert main(["simulate", *args, "--out", str(tmp_path / "in" / name)]) == 0
    capsys.readouterr()

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for name, args, subdirs in runs:
        fresh = tmp_path / "fresh" / name
        subprocess.run(
            [sys.executable, "-m", "eqtracer.cli", "simulate", *args, "--out", str(fresh)],
            env=env, cwd=ROOT, capture_output=True, check=True, timeout=120,
        )
        for sub in subdirs:
            for file in ("trace.csv", "report.json"):
                ours = (tmp_path / "in" / name / sub / file).read_bytes()
                assert ours == (fresh / sub / file).read_bytes(), (name, sub, file)


_HEADER_ONLY = "b073bcd32f4daf7e70bd68c40a639e3f77293a38b2602265b65f878ffeaa6d4e"

# sha256 of (trace.csv, report.json) for each determinism config, at its own
# horizon and at horizon 0.  A change that moves any output byte must say
# so and update these digests.
GOLDEN_DIGESTS = {
    ("tatonnement-ms", None): (
        "dd13ba7b3e43aed453c0a9a0c4ac9b301ab217bfc8e8c8cd5ed43fe3fe5edfca",
        "7a66fde5700996afc9ee334ac842ab788534b5e09ef806ae23ea800d0cad8797",
    ),
    ("tatonnement-ms", 0): (
        _HEADER_ONLY,
        "511da0d5f0764609657e7a7aad9db93cad3fe100cd8e2fb26e3e489e513f35f9",
    ),
    ("tatonnement-cpf", None): (
        "007e5fa70ea5e4b3cdb22eaf7fcbc82c708c56fededc7052119da50d71813bbf",
        "b07628c4f776a0e14acd4e8e8cc76b83694e8ee78259b47859842af47845797d",
    ),
    ("tatonnement-cpf", 0): (
        _HEADER_ONLY,
        "931a4f31f40e86672f2185f5dfcba5a5e583f7b25fe933bdf492dd247376d93c",
    ),
    ("prd", None): (
        "c90e97ca38e11bd542be5ab18d9663404a05d8fca7c913286e17676a79e6cbb7",
        "58732b0059922787fa2fba1fc543355913eda13195533c7050d0c32565a52e80",
    ),
    ("prd", 0): (
        _HEADER_ONLY,
        "a748fb0890a9f3402e6f66e2283f7108231db1a9da59dc02bd56209020db89c5",
    ),
    ("gd-shifting", None): (
        "282d76bc878b976300711d7ba45e6dd06b77af2a03d3d5ed65da79e16744304b",
        "a0f60b8397bb9d2301b62cecfafb317d6fe907ca8bb667947af891c2dbf6ab0a",
    ),
    ("gd-shifting", 0): (
        _HEADER_ONLY,
        "7301b5a3d2c6efeb916babdd3bf82dbae1d82cd286e5ca98515d0d62c0a1ff5b",
    ),
    ("diffusion", None): (
        "c0cde548a21f4154248fa11616ac36e159772733621e838917afadff7f0412db",
        "2c1408c1a774753f0a5982f3f04519181163fe11f1d8d2974d8aadc159ef88e4",
    ),
    ("diffusion", 0): (
        _HEADER_ONLY,
        "3dbd648e3b076f9f56adba355f82eb88bf739dd1643333ddb44e331587e5c276",
    ),
}


# The same digests for the paths that take supplied constants: the prd
# runner's own cold solve, and the cpf initial price ratio read from a solve
# the runner made.  Pinned with the determinism configs' markets and schedules.
SUPPLIED_BOUNDS = {"prd": {"q1": 0.5, "q2": 1.0}, "tatonnement-cpf": {"delta": 0.01}}
SUPPLIED_DIGESTS = {
    "prd": (
        "ee027490e7545914f8e99832794edb2d3633736d9e5bfe57e06a6a63a4e83340",
        "746c16fdda80ebd4f3c4e9d582f671e26c1c33a6d9832922e8b6214dc08ebddb",
    ),
    "tatonnement-cpf": (
        "dc8e54f2b2a4c16c8ec1955333fff2f9459f41ca6b2dd12ecbfcbe3b51fed95d",
        "131da711139436d8240d18763f5d30d470991df01ea499844c2e36f63d7e38ae",
    ),
}


@pytest.mark.parametrize(
    "kind, horizon",
    GOLDEN_DIGESTS,
    ids=[f"{k}-{'own' if h is None else h}" for k, h in GOLDEN_DIGESTS],
)
def test_determinism_configs_match_golden_digests(tmp_path, capsys, kind, horizon):
    config = {"kind": kind, **verify._DETERMINISM_CONFIGS[kind]}
    if horizon is not None:
        config["horizon"] = horizon
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    got = (file_sha256(out / "trace.csv"), file_sha256(out / "report.json"))
    assert got == GOLDEN_DIGESTS[kind, horizon]


def test_tatonnement_trace_is_independent_of_blas_threads(tmp_path):
    # Excess demand is a BLAS matrix-vector product; at 200x200 OpenBLAS
    # splits it across threads, and the trace must not depend on how.
    config = {
        "kind": "tatonnement-ms",
        "horizon": 30,
        "market": {"random": {"m": 200, "n": 200, "seed": 7}},
        "schedule": {"generator": {"channel": "supply-additive", "magnitude": 0.01, "seed": 8}},
        "bounds": {"warmup_rounds": 20},
    }
    cfg = write_config(tmp_path, "c.json", config)
    unset = {
        k: v for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    }
    traces = []
    for name, env in (("one", {**unset, "OPENBLAS_NUM_THREADS": "1"}), ("default", unset)):
        out = tmp_path / name
        subprocess.run(
            [sys.executable, "-m", "eqtracer.cli", "simulate", "--config", str(cfg),
             "--out", str(out)],
            env={**env, "PYTHONPATH": str(ROOT / "src")},
            cwd=ROOT, capture_output=True, check=True, timeout=120,
        )
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


# sha256 of (trace.csv, report.json) of two large configs, where schedule
# handling acts per payload row.  The PRD market stays at 80 goods: from
# about 100 goods its trace depends on the BLAS thread count (ROADMAP item 1).
LARGE_CONFIGS = {
    "tatonnement-ms": {
        "horizon": 40,
        "market": {"random": {"m": 200, "n": 200, "seed": 11}},
        "schedule": {"generator": {"channel": "supply-additive", "magnitude": 0.01, "seed": 12}},
        "bounds": {"warmup_rounds": 20},
    },
    "prd": {
        "horizon": 20,
        "market": {"random": {"m": 80, "n": 80, "seed": 13, "unit_supplies": True}},
        "schedule": {"generator": {**verify._UTILITY_DRIFT, "seed": 14}},
        "bounds": {"fit_rounds": 20},
    },
}
LARGE_DIGESTS = {
    "tatonnement-ms": (
        "e5a2557e68b2b657cd26ff1c298ba8ee89e243fe76dd7158946a623ea25d0b31",
        "bf71fd10e1fc36ce0f8185ac1438481c740b2dd046d3cc6ebc801e381f3e8a12",
    ),
    "prd": (
        "f269ce3b492816a9abbe749ce19b729776754ff7de12c637cf9195353984737d",
        "8d7041e3d501adfc9ee974b20dde78d893d8ae53012ab2d3f126b67f16e74690",
    ),
}


@pytest.mark.parametrize("kind", LARGE_DIGESTS)
def test_large_configs_match_golden_digests(tmp_path, capsys, kind):
    cfg = write_config(tmp_path, "c.json", {"kind": kind, **LARGE_CONFIGS[kind]})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    got = (file_sha256(out / "trace.csv"), file_sha256(out / "report.json"))
    assert got == LARGE_DIGESTS[kind]


# sha256 of (trace.csv, report.json) of explicit events on several channels
# that share rounds, listed out of order.  In the tatonnement configs, budget
# events fall on supply and utility rounds, so the caps of a round after a
# budget event read that event's budgets.
_UTILITY_ROWS = (
    [[1.01, 0.99, 1.0, 1.02], [0.98, 1.0, 1.01, 1.0], [1.0, 1.03, 0.99, 0.97]],
    [[0.99, 1.0, 1.02, 0.98], [1.01, 1.01, 0.99, 1.0], [0.97, 1.0, 1.0, 1.02]],
)
_MIXED_EVENTS = [
    {"round": 7, "channel": "supply-additive", "payload": [-0.01, 0.02, 0.0, 0.01]},
    {"round": 2, "channel": "budget-additive", "payload": [0.02, -0.01, 0.0]},
    {"round": 2, "channel": "supply-additive", "payload": [0.01, 0.0, -0.01, 0.005]},
    {"round": 2, "channel": "utility-multiplicative", "payload": _UTILITY_ROWS[0]},
    {"round": 5, "channel": "supply-additive", "payload": [0.0, -0.02, 0.01, 0.0]},
    {"round": 7, "channel": "budget-additive", "payload": [-0.01, 0.0, 0.03]},
    {"round": 7, "channel": "utility-multiplicative", "payload": _UTILITY_ROWS[1]},
    {"round": 9, "channel": "utility-multiplicative", "payload": _UTILITY_ROWS[0]},
]
EXPLICIT_EVENT_CONFIGS = {
    "tatonnement-ms": {
        "kind": "tatonnement-ms",
        "horizon": 12,
        "market": {"random": {"m": 3, "n": 4, "seed": 21}},
        "schedule": {"events": _MIXED_EVENTS},
    },
    "tatonnement-cpf": {
        "kind": "tatonnement-cpf",
        "horizon": 12,
        "market": {"random": {"m": 3, "n": 4, "seed": 22}},
        "dynamics": {"c_prime": 1.5},
        "schedule": {"events": _MIXED_EVENTS},
    },
    "prd": {
        "kind": "prd",
        "horizon": 12,
        "market": {"random": {"m": 3, "n": 4, "seed": 23, "unit_supplies": True}},
        "schedule": {"events": [e for e in _MIXED_EVENTS if e["channel"] != "budget-additive"]},
        "bounds": {"fit_rounds": 20},
    },
}
# The same prd events on non-unit supplies: each supply row is a level on the
# market's own supplies, as in tatonnement, and each event round's market is
# its `reduce_supply_to_utility`.
EXPLICIT_EVENT_CONFIGS["prd-supplies"] = {
    **EXPLICIT_EVENT_CONFIGS["prd"],
    "market": {"random": {"m": 3, "n": 4, "seed": 23}},
}
EXPLICIT_EVENT_DIGESTS = {
    "tatonnement-ms": (
        "a2581d6f9b0a3408d5ac0ed94e9e75101f4e1b0bd51f725ca88f02c16eb60748",
        "0bbc5c82ab1e60749e2a4fc73c44ee0343a73ea151f21121ac7b3f8125aad4be",
    ),
    "tatonnement-cpf": (
        "4afdb7dc815fe1b950d7adf5353b4fe0a72c6c37656f39d313e0fea570b53303",
        "eb9f6e5e9e43a4c2e7e2cca4fec63403b1e94ac76db3d86c86b433f2a944a3f6",
    ),
    "prd": (
        "26d1b0b8ca03ba7d0a4b2132b0a9e89b8a727a4aabb6265d4dd1bb47de54805a",
        "3ffc7a4b04d6e11cc9228df301601a0cb78c524f3eedea8c3d2e024d963cfc35",
    ),
    "prd-supplies": (
        "153a0a6509ddce6095a20499bf8152c164d26ddb58f687313c5b183fff12aa01",
        "c2cf6df5bccf6fbadbb60da3e79c2fd534b49b0381d7d5732997b1949e6a6fc9",
    ),
}


@pytest.mark.parametrize("kind", EXPLICIT_EVENT_DIGESTS)
def test_explicit_multi_channel_events_match_golden_digests(tmp_path, capsys, kind):
    cfg = write_config(tmp_path, "c.json", EXPLICIT_EVENT_CONFIGS[kind])
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    got = (file_sha256(out / "trace.csv"), file_sha256(out / "report.json"))
    assert got == EXPLICIT_EVENT_DIGESTS[kind]


@pytest.mark.parametrize("kind", SUPPLIED_DIGESTS)
def test_supplied_constants_match_golden_digests(tmp_path, capsys, kind):
    config = {**verify._DETERMINISM_CONFIGS[kind], "bounds": SUPPLIED_BOUNDS[kind]}
    cfg = write_config(tmp_path, "c.json", {"kind": kind, **config})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    got = (file_sha256(out / "trace.csv"), file_sha256(out / "report.json"))
    assert got == SUPPLIED_DIGESTS[kind]


@pytest.mark.parametrize(
    "bounds, warm_up", [({}, [200]), ({"fit_rounds": 7}, [7]), (SUPPLIED_BOUNDS["prd"], [])]
)
def test_prd_warm_up_runs_fit_rounds_unless_constants_are_supplied(
    tmp_path, monkeypatch, capsys, bounds, warm_up
):
    step = eqtracer.cli.prd_step
    seen = []

    def recorded(bids, market, rounds=1):
        seen.append(rounds)
        return step(bids, market, rounds=rounds)

    monkeypatch.setattr(eqtracer.cli, "prd_step", recorded)
    config = {"kind": "prd", **verify._DETERMINISM_CONFIGS["prd"], "bounds": bounds}
    cfg = write_config(tmp_path, "c.json", config)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert seen == warm_up


@pytest.mark.parametrize("kind", SUPPLIED_DIGESTS)
@pytest.mark.parametrize("source", ["fitted", "supplied"])
def test_newton_cold_solves_each_starting_market_once(
    tmp_path, monkeypatch, capsys, kind, source
):
    config = {"kind": kind, **verify._DETERMINISM_CONFIGS[kind]}
    if source == "supplied":
        config["bounds"] = SUPPLIED_BOUNDS[kind]
    solve = eqtracer.equilibrium.solve_equilibrium
    cold = []

    def recorded(*args, **kwargs):
        result = solve(*args, **kwargs)
        if kwargs.get("previous") is None:
            cold.append(result)
        return result

    for module in (eqtracer.cli, eqtracer.prd, eqtracer.tatonnement):
        monkeypatch.setattr(module, "solve_equilibrium", recorded)
    cfg = write_config(tmp_path, "c.json", config)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    # Every cold call after the first returns the first one's result.
    assert len(cold) >= 1
    assert len({id(result) for result in cold}) == 1
