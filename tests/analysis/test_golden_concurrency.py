"""Golden concurrency digests: fork regions and every finding built on them.

The concurrency verifier reads its fork regions off the structure of a
process graph.  These digests pin what it reads and what it concludes,
so a change to how regions are recovered can be checked against the
exact regions, conflicts and findings of the code it replaces.

For each input group the digest covers, per process in order:
``repr(fork_regions(pd))``, ``repr(interference_conflicts(pd))``, the
``str`` of every ``concurrency_findings(pd, reservations=...)`` finding
and the ``str`` of every ``analyze_process(pd, reservations=...)``
finding.  The groups are the defect corpus (with each sidecar's activity
library and ``reserves``), the shipped ``.process`` files (with their
``.bindings.json`` where one exists), the in-code Figure-10 process and
1,000 seeded ASTs elaborated with ``ast_to_process``: nested Sequence,
Fork, Choice and Iterative nodes, guards that are a ``dN.Value <op> k``
atom or ``true``, random input and output subsets of five data names,
random services, and a random ``reserves`` table for half of them.  The
per-code counts of the generated set's concurrency findings are pinned
too, and every concurrency code must occur.  Update a value only on
purpose.
"""

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

from repro.analysis import (
    analyze_process,
    concurrency_findings,
    fork_regions,
    interference_conflicts,
    load_bindings,
    process_from_graph,
)
from repro.process import (
    TRUE,
    Activity,
    ActivityKind,
    ActivityNode,
    Atom,
    ChoiceNode,
    ForkNode,
    IterativeNode,
    ast_to_process,
    parse_process,
    seq,
)

REPO = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).parent / "corpus"

DATA = ("d0", "d1", "d2", "d3", "d4")
SERVICES = ("S0", "S1", "S2")
RELATIONS = ("<", "<=", ">", ">=", "=", "!=")
RESOURCES = ("r0", "r1", "r2")
GENERATED = 1_000

GOLDEN = {
    "corpus": "04ffa3ae8e96532890146ebd77f6769e",
    "shipped": "7ea9a7d4a30ef02f3c667ada12440e59",
    "figure10": "552059c4623bc9b0f3fa9b8753dfe648",
    "generated": "ad76d990724131f549dee9bd8ad389a8",
}

# 700 of the 1,000 generated processes have at least one fork region.
GENERATED_COUNTS = {"E601": 7516, "E611": 1011, "E612": 395, "W602": 1947, "W621": 18}


def _source_input(path: Path, sidecar: Path):
    bindings = load_bindings(sidecar) if sidecar.exists() else None
    library = bindings.library if bindings else None
    pd = ast_to_process(
        parse_process(path.read_text()), name=path.stem, library=library or None
    )
    return pd, (bindings.reserves if bindings else None) or None


def corpus_inputs():
    inputs = [
        (process_from_graph(json.loads(path.read_text())), None)
        for path in sorted(CORPUS.glob("*.graph.json"))
    ]
    inputs += [
        _source_input(path, path.with_suffix(".json"))
        for path in sorted(CORPUS.glob("*.process"))
    ]
    return inputs


def shipped_inputs():
    paths = sorted(REPO.glob("examples/processes/*.process"))
    paths += sorted(REPO.glob("figures/*.process"))
    return [_source_input(path, path.with_suffix(".bindings.json")) for path in paths]


def figure10_inputs():
    from repro.virolab import process_description

    return [(process_description(), None)]


def _guard(rng: random.Random):
    if rng.random() < 0.25:
        return TRUE
    return Atom(rng.choice(DATA), "Value", rng.choice(RELATIONS), rng.randrange(4))


def _node(rng: random.Random, depth: int, names: list[str]):
    roll = rng.random() if depth < 4 else 0.0
    if roll < 0.4:
        names.append(f"A{len(names)}")
        return ActivityNode(names[-1])
    width = rng.randint(2, 3)
    if roll < 0.55:
        return seq(*(_node(rng, depth + 1, names) for _ in range(width)))
    if roll < 0.75:
        return ForkNode(tuple(_node(rng, depth + 1, names) for _ in range(width)))
    if roll < 0.9:
        return ChoiceNode(
            tuple((_guard(rng), _node(rng, depth + 1, names)) for _ in range(width))
        )
    return IterativeNode(_guard(rng), _node(rng, depth + 1, names))


def generated_input(seed: int):
    rng = random.Random(seed)
    names: list[str] = []
    ast = seq(_node(rng, 0, names), _node(rng, 1, names))
    library = {
        name: Activity(
            name,
            ActivityKind.END_USER,
            rng.choice(SERVICES),
            tuple(sorted(rng.sample(DATA, rng.randint(0, 2)))),
            tuple(sorted(rng.sample(DATA, rng.randint(1, 2)))),
        )
        for name in names
    }
    reserves = None
    if rng.random() < 0.5:
        reserves = {
            name: tuple(rng.sample(RESOURCES, rng.randint(1, 2)))
            for name in names
            if rng.random() < 0.5
        }
    return ast_to_process(ast, name=f"gen-{seed}", library=library), reserves


def generated_inputs():
    return [generated_input(seed) for seed in range(GENERATED)]


def digest(inputs) -> tuple[str, dict[str, int]]:
    """The group's digest and the per-code counts of its concurrency
    findings."""
    h = hashlib.blake2b(digest_size=16)
    counts: Counter[str] = Counter()
    for pd, reserves in inputs:
        findings = concurrency_findings(pd, reservations=reserves)
        counts.update(f.code for f in findings)
        parts = [repr(fork_regions(pd)), repr(interference_conflicts(pd))]
        parts += [str(f) for f in findings]
        parts.append("--")
        parts += [str(f) for f in analyze_process(pd, reservations=reserves)]
        h.update(("\n".join(parts) + "\n==\n").encode())
    return h.hexdigest(), dict(sorted(counts.items()))


def test_corpus_digest():
    assert digest(corpus_inputs())[0] == GOLDEN["corpus"]


def test_shipped_processes_digest():
    assert digest(shipped_inputs())[0] == GOLDEN["shipped"]


def test_figure10_digest():
    assert digest(figure10_inputs())[0] == GOLDEN["figure10"]


def test_generated_digest_and_counts():
    value, counts = digest(generated_inputs())
    assert counts == GENERATED_COUNTS
    assert all(counts.get(code) for code in ("E601", "W602", "E611", "E612", "W621"))
    assert value == GOLDEN["generated"]
