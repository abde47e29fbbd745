"""Output checks, run outside the timed region.

``verify_patterns`` checks one pattern file from scratch against the
dataset and the pinned subset list. Later samples of the same run must
write the same file up to the ``time_ms`` fields (``same_output``).
"""

from __future__ import annotations

import itertools
import re

from patmine import Dataset, ExampleClass, coverage, induced_subgraph
from patmine.dataio import parse_patterns

_TIME_FIELD = re.compile(r" time_ms=\S+")


def strip_times(text: str) -> str:
    return _TIME_FIELD.sub("", text)


def same_output(text: str, reference: str) -> bool:
    return strip_times(text) == strip_times(reference)


def _connected(vertices: tuple[int, ...], edges: set[tuple[int, int]]) -> bool:
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {vertices[0]}
    todo = [vertices[0]]
    while todo:
        for w in adj[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    return len(seen) == len(vertices)


def canonical_form(labels: list[str], edges: set[tuple[int, int]]) -> tuple:
    """Least (labels, edges) image over all vertex orders that keep
    (label, out-degree, in-degree) classes in place: equal exactly for
    isomorphic graphs. Brute force, so meant for small patterns."""
    n = len(labels)
    outd = [0] * n
    ind = [0] * n
    for u, v in edges:
        outd[u] += 1
        ind[v] += 1
    key = [(labels[v], outd[v], ind[v]) for v in range(n)]
    classes = [
        [v for v in range(n) if key[v] == k] for k in sorted(set(key))
    ]
    best = None
    for perms in itertools.product(*(itertools.permutations(c) for c in classes)):
        order = [v for p in perms for v in p]
        pos = {v: i for i, v in enumerate(order)}
        image = tuple(sorted((pos[u], pos[v]) for u, v in edges))
        if best is None or image < best:
            best = image
    return tuple(sorted(key)), best


def verify_patterns(
    text: str, dataset: Dataset, pinned: list[tuple[int, ...]]
) -> list[str]:
    """Problems found in a pattern file; empty when it is correct."""
    template = dataset.template
    problems: list[str] = []
    blocks = parse_patterns(text)
    if [b.index for b in blocks] != list(range(1, len(blocks) + 1)):
        problems.append("pattern indices are not 1..n")
    forms: dict[tuple, int] = {}
    for b in blocks:
        where = f"pattern {b.index} {list(b.subset)}"
        if not b.subset or any(not 0 <= v < template.n for v in b.subset):
            problems.append(f"{where}: vertex outside the template")
            continue
        if b.size != len(b.subset):
            problems.append(f"{where}: size field {b.size}")
        if any(b.labels[v] != template.labels[v] for v in b.subset):
            problems.append(f"{where}: labels differ from the template")
        pattern = induced_subgraph(template, b.subset)
        dense = {orig: i for i, orig in enumerate(pattern.orig_ids)}
        claimed = set()
        for u, v in b.edges:
            if u not in dense or v not in dense:
                problems.append(f"{where}: edge ({u}, {v}) leaves the subset")
                continue
            claimed.add((dense[u], dense[v]))
            if template.undirected_input:
                claimed.add((dense[v], dense[u]))
        if claimed != set(pattern.edges):
            problems.append(f"{where}: not the induced subgraph")
        if not _connected(tuple(range(pattern.n)), claimed):
            problems.append(f"{where}: not connected")
        pos = coverage(pattern, dataset, ExampleClass.POSITIVE).positive_covered
        neg = coverage(pattern, dataset, ExampleClass.NEGATIVE).negative_covered
        if pos < dataset.n_pos_threshold or neg > dataset.n_neg_threshold:
            problems.append(f"{where}: full coverage pos={pos} neg={neg}")
        if not (dataset.n_pos_threshold <= b.pos <= pos and b.neg <= neg):
            problems.append(f"{where}: reported pos={b.pos} neg={b.neg}")
        form = canonical_form(list(pattern.labels), claimed)
        if form in forms:
            problems.append(f"{where}: isomorphic to pattern {forms[form]}")
        forms.setdefault(form, b.index)
    subsets = [b.subset for b in blocks]
    if subsets != pinned:
        problems.append(
            f"subset list differs from pinned.json ({len(subsets)} mined, "
            f"{len(pinned)} pinned)"
        )
    return problems
