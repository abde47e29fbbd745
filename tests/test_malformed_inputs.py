"""Seeded malformed-input matrix for the two file readers and the CLI.

Each case applies one to three SplitMix64-drawn mutations to a committed
fixture: delete, duplicate or swap a line, or replace, drop or add a field.
``golden/malformed_inputs.json`` records the outcome of every case: the
parsed result, or the exception class, line and message. The readers must
reproduce each outcome exactly, which pins both the messages and which error
wins in a file with several.

Rewrite the record with ``python tests/test_malformed_inputs.py`` only for an
intended change of the file formats or their messages.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from patmine._rng import SplitMix64
from patmine.cli import main
from patmine.dataio import GraphFileError, parse_graphs, parse_patterns

FIXTURES = Path(__file__).parent / "fixtures"
DEMO = str(FIXTURES / "demo.graphs")
RECORD = Path(__file__).parent / "golden" / "malformed_inputs.json"
READERS = {
    "demo.graphs": parse_graphs,
    "candidate_hexchord.pattern": parse_patterns,
    "candidate_notinduced.pattern": parse_patterns,
    "candidate_tailpath.pattern": parse_patterns,
}
CASES_PER_FIXTURE = 100
TOKENS = (
    "x", "0", "1", "2", "-1", "9", "#", "t", "v", "e", "p", "mode",
    "pos", "neg", "template", "directed", "size=3", "pos=x", "1.5",
)


def mutate(rng: SplitMix64, lines: list[str]) -> str:
    """Apply one mutation to ``lines`` in place and describe it."""
    op = rng.below(6)
    i = rng.below(len(lines))
    if op == 0:
        del lines[i]
        return f"delete {i + 1}"
    if op == 1:
        lines.insert(i, lines[i])
        return f"duplicate {i + 1}"
    if op == 2:
        j = rng.below(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
        return f"swap {i + 1} {j + 1}"
    fields = lines[i].split()
    if op == 3 and fields:
        k = rng.below(len(fields))
        fields[k] = TOKENS[rng.below(len(TOKENS))]
        what = f"replace field {k + 1} of {i + 1}"
    elif op == 4 and fields:
        k = rng.below(len(fields))
        del fields[k]
        what = f"drop field {k + 1} of {i + 1}"
    else:
        k = rng.below(len(fields) + 1)
        fields.insert(k, TOKENS[rng.below(len(TOKENS))])
        what = f"add field {k + 1} to {i + 1}"
    lines[i] = " ".join(fields)
    return what


def cases(name: str) -> dict[str, tuple[str, str]]:
    """Case key -> (mutation description, mutated text) for one fixture."""
    base = (FIXTURES / name).read_text(encoding="utf-8").splitlines()
    offset = 1000 * list(READERS).index(name)
    out = {}
    for k in range(CASES_PER_FIXTURE):
        rng = SplitMix64(offset + k)
        lines = list(base)
        steps = [mutate(rng, lines) for _ in range(1 + rng.below(3))]
        out[f"{name}#{k}"] = ("; ".join(steps), "\n".join(lines) + "\n")
    return out


def outcome(name: str, text: str):
    """The parsed result as plain lists, or the error's class, line and message."""
    try:
        parsed = READERS[name](text)
    except GraphFileError as exc:
        return {"error": type(exc).__name__, "line": exc.line, "message": str(exc)}
    if READERS[name] is parse_graphs:
        return [
            [bid, tag, g.undirected_input, list(g.labels), sorted(map(list, g.edges))]
            for bid, tag, g in parsed
        ]
    return [
        [b.index, b.size, b.pos, b.neg, b.time_ms, list(b.subset),
         sorted(map(list, b.labels.items())), list(map(list, b.edges))]
        for b in parsed
    ]


def record(name: str) -> dict:
    """Case key -> mutations and outcome, for one fixture."""
    return {
        key: {"mutations": what, "outcome": outcome(name, text)}
        for key, (what, text) in cases(name).items()
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", READERS)
def test_reader_matches_record(recorded, name):
    want = {key: rec for key, rec in recorded.items() if key.startswith(name + "#")}
    assert record(name) == want


def test_record_covers_each_error_class_and_clean_parses(recorded):
    outcomes = [r["outcome"] for r in recorded.values()]
    errors = {o["error"] for o in outcomes if "error" in o}
    assert errors == {
        "GraphSyntaxError", "NonDenseVertexIds", "UnknownClassTag", "DuplicateBlockId",
    }
    assert any(isinstance(o, list) for o in outcomes)


def failing_cases(recorded, prefix: str, count: int) -> list[tuple[str, str]]:
    """(mutated text, recorded message) of the first ``count`` recorded parse
    errors among the fixtures whose name starts with ``prefix``."""
    texts = {}
    for name in READERS:
        if name.startswith(prefix):
            texts.update({key: text for key, (_, text) in cases(name).items()})
    out = []
    for key, text in texts.items():
        rec = recorded[key]["outcome"]
        if "error" in rec and len(out) < count:
            out.append((text, rec["message"]))
    return out


@pytest.mark.parametrize("command", ["mine", "check", "encode"])
def test_cli_reports_parse_errors_in_one_line(recorded, command, tmp_path, capsys):
    prefix = "candidate" if command == "check" else "demo"
    extra = {"encode": ["--target", "asp"]}.get(command, [])
    for text, message in failing_cases(recorded, prefix, 4):
        bad = tmp_path / "bad"
        bad.write_text(text, encoding="utf-8")
        if command == "check":
            argv = [command, "--pattern", str(bad), "--examples", DEMO]
        else:
            argv = [command, "--examples", str(bad), *extra]
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, f"error: {message}\n")


if __name__ == "__main__":
    rows = [
        f"{json.dumps(key)}: {json.dumps(rec)}"
        for name in READERS
        for key, rec in record(name).items()
    ]
    RECORD.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
