"""CLI smoke tests (fast subcommands only)."""

import pytest

from repro.cli import build_parser, main


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Population Size" in out and "200" in out


def test_figures_subset(capsys):
    assert main(["figures", "fig4_7", "fig12_13"]) == 0
    out = capsys.readouterr().out
    assert "Figures 4-7" in out
    assert "Figures 12-13" in out


def test_figures_unknown_name(capsys):
    assert main(["figures", "fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_validate_ok(tmp_path, capsys):
    wf = tmp_path / "wf.txt"
    wf.write_text("BEGIN; A; {FORK {B} {C} JOIN}; END")
    assert main(["validate", str(wf)]) == 0
    assert "OK: 3 end-user" in capsys.readouterr().out


def test_validate_invalid(tmp_path, capsys):
    wf = tmp_path / "wf.txt"
    wf.write_text("BEGIN; {FORK {A} JOIN}; END")
    assert main(["validate", str(wf)]) == 1
    assert "INVALID" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert main(["validate", "/no/such/file"]) == 2


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_table2_tiny(capsys):
    # Exercise the table2 path with a non-default run count via argv.
    # (Uses the full Table-1 GP config; 1 run keeps it quick.)
    assert main(["table2", "--runs", "1", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "Average Fitness" in out


def test_render_writes_dot_files(tmp_path, capsys):
    out = tmp_path / "figs"
    assert main(["render", "--out", str(out)]) == 0
    fig10 = (out / "fig10_process.dot").read_text()
    fig11 = (out / "fig11_plan_tree.dot").read_text()
    assert fig10.startswith('digraph "PD-3DSD"')
    assert fig11.count("->") == 9


def test_trace_export_writes_valid_telemetry(tmp_path, capsys):
    import json

    from repro.obs.export import validate_chrome_trace

    out = tmp_path / "traces"
    assert main([
        "trace", "export", "--cases", "2", "--containers", "2",
        "--out", str(out),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "2/2 cases" in stdout
    document = json.loads((out / "trace.chrome.json").read_text())
    assert validate_chrome_trace(document) > 0
    lines = (out / "spans.jsonl").read_text().splitlines()
    assert all(json.loads(line)["span_id"] for line in lines)


def test_profile_prints_attribution_table(capsys):
    assert main(["profile", "case-1", "--cases", "2", "--containers", "2"]) == 0
    out = capsys.readouterr().out
    assert "case case-1" in out
    assert "coverage=" in out
    assert "activity" in out


def test_trace_export_case_filter(tmp_path, capsys):
    import json

    out = tmp_path / "traces"
    assert main([
        "trace", "export", "--cases", "2", "--containers", "2",
        "--case", "case-1", "--out", str(out),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "case case-1" in stdout
    lines = (out / "spans.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    assert spans
    # exactly one case root survives the filter, and it is case-1
    case_roots = [s for s in spans if s["kind"] == "case"]
    assert [s["name"] for s in case_roots] == ["case-1"]


def test_trace_export_unknown_case_fails(tmp_path, capsys):
    assert main([
        "trace", "export", "--cases", "2", "--containers", "2",
        "--case", "case-99", "--out", str(tmp_path / "t"),
    ]) == 1
    assert "case-99" in capsys.readouterr().err


def test_journal_prints_timeline_and_stats(capsys):
    assert main(["journal", "case-1", "--cases", "2", "--containers", "2"]) == 0
    out = capsys.readouterr().out
    assert "case-intake" in out
    assert "case-complete" in out
    assert "dispatch" in out
    assert '"appended"' in out


def test_journal_unknown_case_fails(capsys):
    assert main(["journal", "ghost", "--cases", "2", "--containers", "2"]) == 1


def test_journal_purge_reports_counters(capsys):
    assert main([
        "journal", "case-0", "--cases", "2", "--containers", "2", "--purge",
    ]) == 0
    out = capsys.readouterr().out
    assert "purged 2 cases / " in out
    assert "mirrored" not in out


def test_lineage_dot_output(capsys):
    assert main([
        "lineage", "out", "--case", "case-0",
        "--cases", "2", "--containers", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert out.lstrip().startswith("digraph")
    assert "->" in out


def test_lineage_json_output(capsys):
    import json

    assert main([
        "lineage", "out", "--case", "case-0", "--format", "json",
        "--cases", "2", "--containers", "2",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["root"].endswith(":out")
    assert payload["activities"]


def test_lineage_unknown_key_fails(capsys):
    assert main([
        "lineage", "nothing-here", "--cases", "2", "--containers", "2",
    ]) == 1


def test_cases_on_two_shards(capsys):
    assert main([
        "cases", "--cases", "6", "--containers", "2", "--shards", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "6/6 cases completed" in out
    assert "\n  s0: " in out and "\n  s1: " in out


def test_cases_one_shard_prints_the_default_run(capsys):
    outputs = []
    for shards in ("1", "0"):
        assert main([
            "cases", "--cases", "6", "--containers", "2", "--shards", shards,
        ]) == 0
        outputs.append(capsys.readouterr().out)
    assert "6/6 cases completed" in outputs[0]
    assert outputs[0] == outputs[1]
