"""The determinism lint (``tools/lint_determinism.py``): one hit per rule,
the ``# det: ok`` exemption, and a clean ``src/repro`` tree."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location(
        "lint_determinism", ROOT / "tools" / "lint_determinism.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def codes(lint, tmp_path, source):
    path = tmp_path / "specimen.py"
    path.write_text(textwrap.dedent(source))
    return [(line, code) for _, line, code, _ in lint.check_file(path)]


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import time\nnow = time.time()\n", [(2, "DET001")]),
        ("import datetime\nstamp = datetime.datetime.now()\n", [(2, "DET001")]),
        ("import random\nx = random.random()\n", [(2, "DET002")]),
        ("for x in {1, 2}:\n    pass\n", [(1, "DET003")]),
        ("ys = [y for y in set('ab')]\n", [(1, "DET003")]),
        (
            "from concurrent.futures import as_completed\n"
            "out = [f.result() for f in as_completed(fs)]\n",
            [(2, "DET004")],
        ),
        (
            "import concurrent.futures\n"
            "done = concurrent.futures.as_completed(fs)\n",
            [(2, "DET004")],
        ),
        ("out = list(pool.imap_unordered(work, items))\n", [(1, "DET004")]),
        (
            "from concurrent.futures import FIRST_COMPLETED, wait\n"
            "wait(fs, return_when=FIRST_COMPLETED)\n",
            [(2, "DET004")],
        ),
        (
            "import concurrent.futures as cf\n"
            "cf.wait(fs, return_when=cf.FIRST_COMPLETED)\n",
            [(2, "DET004")],
        ),
    ],
    ids=[
        "DET001-time", "DET001-datetime", "DET002", "DET003-for",
        "DET003-comprehension", "DET004-as_completed", "DET004-dotted",
        "DET004-imap_unordered", "DET004-name", "DET004-attribute",
    ],
)
def test_each_rule_hits(lint, tmp_path, source, expected):
    assert codes(lint, tmp_path, source) == expected


def test_submission_order_is_clean(lint, tmp_path):
    source = """\
        import time
        from concurrent.futures import ThreadPoolExecutor
        start = time.perf_counter()
        with ThreadPoolExecutor(2) as pool:
            out = list(pool.map(abs, [-1, -2]))
        for x in sorted({1, 2}):
            pass
        """
    assert codes(lint, tmp_path, source) == []


def test_det_ok_marker_exempts_its_line(lint, tmp_path):
    source = """\
        import time
        stamp = time.time()  # det: ok
        out = list(pool.imap_unordered(work, items))  # det: ok
        late = time.time()
        """
    assert codes(lint, tmp_path, source) == [(4, "DET001")]


def test_main_reports_violations(lint, tmp_path, capsys):
    (tmp_path / "bad.py").write_text("import random\nrandom.seed(1)\n")
    assert lint.main([str(tmp_path)]) == 1
    assert "DET002" in capsys.readouterr().out


def test_source_tree_is_clean(lint, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert lint.main(["src/repro"]) == 0
