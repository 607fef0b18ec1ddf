"""Every committed BENCH_<topic>.json carries the keys a perf claim needs."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REQUIRED = ("topic", "layer_that_moved", "machine", "end_to_end")


def test_bench_files_exist():
    assert sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_file_parses_and_names_its_claim(path):
    bench = json.loads(path.read_text())
    assert isinstance(bench, dict)
    assert [key for key in REQUIRED if key not in bench] == []
