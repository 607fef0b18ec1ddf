import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from eqtracer.cli import CONFIG_SCHEMA, EXIT_BOUND, EXIT_CONFIG, EXIT_SIMULATION, main
from eqtracer.instances import drifting_speeds, random_market
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
    cfg = write_config(tmp_path, "c.json", {"kind": "prd", "horizon": -3})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "horizon" in capsys.readouterr().err


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
    assert 0 < report["constants"]["q1"]["value"] < report["constants"]["q2"]["value"]
    assert report["recurrence_fraction"] >= 0.95

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
    [(("market", "random"), random_market), (("network", "drift"), drifting_speeds)],
)
def test_generator_sections_name_generator_parameters(section, generator):
    # The CLI passes these sections to their generators as keyword arguments.
    schema = CONFIG_SCHEMA
    for key in section:
        schema = schema["properties"][key]
    assert set(schema["properties"]) <= set(inspect.signature(generator).parameters)
