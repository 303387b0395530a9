#!/usr/bin/env python
"""Determinism lint: AST checks over the simulation-facing packages.

The reproduction's core property is that runs are deterministic — same
seeds, same traces, byte-identical telemetry.  Four habits quietly break
that, and this checker bans them from all of ``src/repro``:

* ``DET001`` — wall-clock reads (``time.time()``, ``datetime.now()``,
  ``datetime.utcnow()``, ``datetime.today()``): simulated components must
  take time from the simulation engine, never the host clock.
  (``time.perf_counter`` is allowed: it only ever feeds *telemetry about*
  a run — wall-cost span attributes — not the run itself.)
* ``DET002`` — the process-global ``random`` module: all randomness flows
  through seeded ``numpy.random.Generator`` instances passed explicitly,
  so two runs with the same seed share every draw.
* ``DET003`` — iterating a set literal / ``set(...)`` call / set
  comprehension in a ``for`` statement or comprehension: set iteration
  order is salted per interpreter run, so any scheduling or messaging
  decision derived from it diverges between runs.  Iterate a ``sorted()``
  view or a list/dict instead.
* ``DET004`` — consuming concurrent results in completion order
  (``as_completed(...)``, ``.imap_unordered(...)``, ``FIRST_COMPLETED``):
  which worker finishes first depends on the host's load, so anything
  assembled in that order — a float sum, a list — differs between runs.
  Consume results in submission order (``Executor.map``, or the futures
  in the order they were submitted).

A line ending in a ``# det: ok`` comment is exempt (for the rare case
that has a real reason, e.g. hashing wall time into a log file name).

Usage: ``python tools/lint_determinism.py [paths...]`` — the default
path is the whole ``src/repro`` tree.  Exit 1 when violations are found.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT_PATHS = ("src/repro",)

ALLOW_MARKER = "# det: ok"

#: Attribute calls read off the host clock: (object chain, attribute).
_CLOCK_CALLS = {
    ("time", "time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("datetime.datetime", "now"),
    ("datetime.datetime", "utcnow"),
    ("datetime.datetime", "today"),
}

#: Callables and names that hand out results in completion order.
_COMPLETION_ORDER_CALLS = {"as_completed", "imap_unordered"}
_COMPLETION_ORDER_NAME = "FIRST_COMPLETED"
_COMPLETION_ORDER_MESSAGE = (
    "results consumed in completion order — consume them in submission "
    "order (Executor.map) instead"
)


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _Checker(ast.NodeVisitor):
    def __init__(self, path: Path, source_lines: list[str]) -> None:
        self.path = path
        self.lines = source_lines
        self.violations: list[tuple[Path, int, str, str]] = []

    def _allowed(self, lineno: int) -> bool:
        line = self.lines[lineno - 1] if lineno - 1 < len(self.lines) else ""
        return ALLOW_MARKER in line

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        if not self._allowed(node.lineno):
            self.violations.append((self.path, node.lineno, code, message))

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            chain = _dotted(node.func.value)
            if chain is not None and (chain, node.func.attr) in _CLOCK_CALLS:
                self._report(
                    node, "DET001",
                    f"wall-clock read {chain}.{node.func.attr}() — simulated "
                    f"code takes time from the engine",
                )
            called = node.func.attr
        else:
            called = node.func.id if isinstance(node.func, ast.Name) else None
        if called in _COMPLETION_ORDER_CALLS:
            self._report(node, "DET004", f"{called}(): {_COMPLETION_ORDER_MESSAGE}")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == "random":
            self._report(
                node, "DET002",
                f"global random.{node.attr} — use a seeded "
                f"numpy.random.Generator passed explicitly",
            )
        if node.attr == _COMPLETION_ORDER_NAME:
            self._report(node, "DET004", f"{node.attr}: {_COMPLETION_ORDER_MESSAGE}")
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == _COMPLETION_ORDER_NAME:
            self._report(node, "DET004", f"{node.id}: {_COMPLETION_ORDER_MESSAGE}")

    def _check_iter(self, iter_node: ast.expr) -> None:
        if _is_set_expr(iter_node):
            self._report(
                iter_node, "DET003",
                "iteration over a set — order is salted per run; iterate "
                "sorted(...) or a list instead",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension_generators(self, generators) -> None:
        for gen in generators:
            self._check_iter(gen.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)


def check_file(path: Path) -> list[tuple[Path, int, str, str]]:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    checker = _Checker(path, source.splitlines())
    checker.visit(tree)
    return checker.violations


def main(argv: list[str] | None = None) -> int:
    paths = [Path(p) for p in (argv if argv else DEFAULT_PATHS)]
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    violations: list[tuple[Path, int, str, str]] = []
    for file in files:
        violations.extend(check_file(file))
    for path, lineno, code, message in violations:
        print(f"{path}:{lineno}: {code} {message}")
    if violations:
        print(f"{len(violations)} determinism violation(s)")
        return 1
    print(f"determinism lint: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
