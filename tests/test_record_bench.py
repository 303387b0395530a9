"""The bench recorder (``benchmarks/record_bench.py``): its gate check
(each operator's bound, the host rule of wall-time gates), its four
options and its output directory."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RECORD = {"suite": {"rate": 10.0, "counts": {"hit": 2}}}
HOST = {"cpu_count": 2, "platform": "Linux-a", "python": "3.11.7"}
FOREIGN = {"cpu_count": 1, "platform": "Linux-b", "python": "3.11.7"}


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "record_bench", ROOT / "benchmarks" / "record_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    ("path", "op", "bound", "holds"),
    [
        ("suite.rate", ">=", 10.0, True),
        ("suite.rate", ">=", 10.5, False),
        ("suite.rate", "<=", 10.0, True),
        ("suite.rate", "<=", 9.5, False),
        ("suite.counts", "==", {"hit": 2}, True),
        ("suite.counts", "==", {"hit": 3}, False),
    ],
)
def test_gate_bound(bench, capsys, path, op, bound, holds):
    assert bench.check_gate("s", bench.Gate(path, op, bound), RECORD, HOST) is holds
    assert capsys.readouterr().out.startswith("FAIL") is not holds


def test_fingerprinted_gate_skips_on_foreign_host(bench, capsys):
    gate = bench.Gate("suite.rate", ">=", 1e9, FOREIGN)
    assert bench.check_gate("s", gate, RECORD, HOST)
    assert "skipped" in capsys.readouterr().out


def test_fingerprinted_gate_runs_on_its_reference_host(bench, capsys):
    # The Python version is no part of the match.
    reference = {"cpu_count": 2, "platform": "Linux-a"}
    gate = bench.Gate("suite.rate", ">=", 1e9, reference)
    assert not bench.check_gate("s", gate, RECORD, HOST)
    assert capsys.readouterr().out.startswith("FAIL")


@pytest.mark.parametrize("host", [HOST, FOREIGN])
def test_every_host_gate_never_skips(bench, capsys, host):
    assert not bench.check_gate("s", bench.Gate("suite.rate", ">=", 1e9), RECORD, host)
    assert "skipped" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "suite", ["planner", "enact", "shard", "analysis", "obs", "planlib", "prov"]
)
def test_gates_hold_on_committed_record(bench, suite):
    # Every key path resolves; a wall-time gate runs only where the
    # record was taken on its reference host.
    record = json.loads((ROOT / f"BENCH_{suite}.json").read_text())
    for gate in bench.SUITES[suite].gates:
        assert bench.check_gate(suite, gate, record, record["host"]), gate


def test_cli_has_four_options(bench, capsys):
    with pytest.raises(SystemExit):
        bench.main(["--help"])
    options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert options == {"--help", "--suite", "--rounds", "--shard-cases", "--out-dir"}


def test_main_writes_only_the_chosen_suite_into_out_dir(bench, tmp_path):
    committed = (ROOT / "BENCH_bus.json").stat().st_mtime_ns
    argv = ["--suite", "bus", "--rounds", "1", "--out-dir", str(tmp_path)]
    assert bench.main(argv) == 0
    assert [path.name for path in tmp_path.iterdir()] == ["BENCH_bus.json"]
    record = json.loads((tmp_path / "BENCH_bus.json").read_text())
    assert record["benchmark"] == "message bus throughput"
    assert (ROOT / "BENCH_bus.json").stat().st_mtime_ns == committed
