"""Outside-in tracing of one mining run, and the per-layer figures from it.

``Tracer.install`` rebinds module attributes of ``patmine.miner`` and
``patmine.morphism`` to timing wrappers; nothing in ``src/patmine`` is
edited. Each call, or each ``next()`` on a wrapped generator, is a span
(name, start, end, parent). Spans stay in memory and are written out by
``Tracer.dump`` when the run ends. Counts are taken at the same
boundaries. A wrapped name that the program no longer has is reported as
absent and the run goes on without it.

``layer_metrics`` turns a dump into the per-layer metrics: a layer's self
time is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, kind); "gen" wrappers time each next().
WRAPPED = (
    ("patmine.miner", "candidate_subsets", "gen"),
    ("patmine.miner", "induced_subgraph", "call"),
    ("patmine.miner", "evaluate_strategy", "call"),
    ("patmine.miner", "coverage", "call"),
    ("patmine.miner", "template_occurrences", "call"),
    ("patmine.miner", "is_isomorphic", "call"),
    ("patmine.miner", "iter_homomorphisms", "gen"),
    ("patmine.morphism", "find_homomorphism", "call"),
)

ROOT_SPAN = "mine"


class Tracer:
    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        # Per size level: subsets yielded, occurrence subsets returned, and
        # whether the level's candidate generator ran to its end.
        self._yielded: dict[int, set[tuple[int, ...]]] = {}
        self._occurrences: dict[int, set[tuple[int, ...]]] = {}
        self._exhausted: set[int] = set()
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _parent_name(self) -> str | None:
        return self.names[self.span_name[self._stack[-1]]] if self._stack else None

    # -- counts at the boundaries ------------------------------------------

    def _after(self, attr: str, args: tuple, kwargs: dict, result, parent) -> None:
        c = self.counts
        c[attr + ".calls"] += 1
        if attr == "find_homomorphism":
            c["find_homomorphism.hits"] += result is not None
        elif attr == "is_isomorphic":
            c["is_isomorphic.true"] += bool(result)
            if parent == ROOT_SPAN:
                c["is_isomorphic.recheck"] += 1
        elif attr == "template_occurrences":
            c["template_occurrences.returned"] += len(result)
            for occ in result:
                self._occurrences.setdefault(len(occ), set()).add(tuple(occ))
        elif attr == "evaluate_strategy":
            config = args[2] if len(args) > 2 else kwargs["config"]
            ok, pos, _ = result
            if ok:
                c["evaluate.accepted"] += 1
            elif pos < config.n_pos_threshold:
                c["evaluate.rejected_pos"] += 1
            else:
                c["evaluate.rejected_neg"] += 1

    def _wrap_call(self, attr: str, fn):
        name = "miner." + attr if attr != "find_homomorphism" else "morphism." + attr

        def wrapper(*args, **kwargs):
            parent = self._parent_name()
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._after(attr, args, kwargs, result, parent)
            return result

        return wrapper

    def _wrap_gen(self, attr: str, fn):
        name = "miner." + attr

        def wrapper(*args, **kwargs):
            self.counts[attr + ".calls"] += 1
            level = None
            if attr == "candidate_subsets":
                level = args[1] if len(args) > 1 else kwargs["size"]
                self._yielded.setdefault(level, set())
            return self._iterate(name, attr, fn(*args, **kwargs), level)

        return wrapper

    def _iterate(self, name: str, attr: str, it, level):
        items = attr + ".items"
        while True:
            idx = self._open(name)
            try:
                item = next(it)
            except StopIteration:
                self._close(idx)
                if level is not None:
                    self._exhausted.add(level)
                return
            except BaseException:
                self._close(idx)
                raise
            self._close(idx)
            self.counts[items] += 1
            if level is not None:
                self._yielded[level].add(item)
            yield item

    # -- install / dump ------------------------------------------------

    def install(self) -> None:
        import importlib

        for module_name, attr, kind in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrap = self._wrap_gen if kind == "gen" else self._wrap_call
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrap(attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def levels(self) -> dict[int, dict[str, int]]:
        """Per size level: candidates yielded and subsets blocked.

        A subset counts as blocked when ``template_occurrences`` returned it
        at that level and the candidate generator, run to its end, never
        yielded it. Levels cut short (``max_patterns``) report no blocked
        count.
        """
        out = {}
        for level, yielded in sorted(self._yielded.items()):
            row = {"candidates": len(yielded)}
            if level in self._exhausted:
                row["blocked"] = len(self._occurrences.get(level, set()) - yielded)
            out[level] = row
        return out

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "names": self.names,
            "span_name": self.span_name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counts": dict(self.counts),
            "levels": {str(k): v for k, v in self.levels().items()},
            "absent": self.absent,
        }

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_json()), encoding="utf-8")


def self_times(trace: dict) -> dict[str, tuple[float, int]]:
    """Per span name: (self time in seconds, span count)."""
    start, end, parent = trace["start"], trace["end"], trace["parent"]
    child_ns = [0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child_ns[p] += end[i] - start[i]
    totals: dict[str, list] = {}
    for i, nid in enumerate(trace["span_name"]):
        row = totals.setdefault(trace["names"][nid], [0, 0])
        row[0] += end[i] - start[i] - child_ns[i]
        row[1] += 1
    return {name: (ns / 1e9, n) for name, (ns, n) in totals.items()}


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


# Per-layer metric -> unit. Times are self times in seconds.
LAYER_UNITS = {
    "miner.enumerate_s": "s",
    "miner.candidates": "count",
    "miner.blocked": "count",
    "graphs.induced_s": "s",
    "graphs.induced_calls": "count",
    "miner.evaluate_s": "s",
    "miner.evaluated": "count",
    "miner.accepted": "count",
    "miner.rejected_pos": "count",
    "miner.rejected_neg": "count",
    "miner.accept_ratio": "ratio",
    "morphism.coverage_s": "s",
    "morphism.coverage_calls": "count",
    "morphism.find_s": "s",
    "morphism.find_calls": "count",
    "morphism.find_hits": "count",
    "morphism.find_hit_ratio": "ratio",
    "morphism.witness_s": "s",
    "morphism.witness_streams": "count",
    "morphism.witnesses": "count",
    "miner.occurrences_s": "s",
    "miner.occurrences_calls": "count",
    "miner.nogoods_added": "count",
    "morphism.iso_s": "s",
    "morphism.iso_calls": "count",
    "morphism.iso_true": "count",
    "miner.recheck_iso_calls": "count",
    "dataio.load_s": "s",
    "dataio.write_s": "s",
    "mine.self_s": "s",
}

# Metrics that are counts: they must repeat exactly across traced runs.
COUNT_METRICS = tuple(k for k, u in LAYER_UNITS.items() if u != "s")


def layer_metrics(trace: dict) -> dict[str, float]:
    """The per-layer metrics of one traced run (see LAYER_UNITS)."""
    st = self_times(trace)
    c = trace["counts"]

    def t(name: str) -> float:
        return st.get(name, (0.0, 0))[0]

    levels = trace["levels"].values()
    evaluated = c.get("evaluate_strategy.calls", 0)
    find_calls = c.get("find_homomorphism.calls", 0)
    accepted = c.get("evaluate.accepted", 0)
    return {
        "miner.enumerate_s": t("miner.candidate_subsets"),
        "miner.candidates": sum(r["candidates"] for r in levels),
        "miner.blocked": sum(r.get("blocked", 0) for r in levels),
        "graphs.induced_s": t("miner.induced_subgraph"),
        "graphs.induced_calls": c.get("induced_subgraph.calls", 0),
        "miner.evaluate_s": t("miner.evaluate_strategy"),
        "miner.evaluated": evaluated,
        "miner.accepted": accepted,
        "miner.rejected_pos": c.get("evaluate.rejected_pos", 0),
        "miner.rejected_neg": c.get("evaluate.rejected_neg", 0),
        "miner.accept_ratio": _ratio(accepted, evaluated),
        "morphism.coverage_s": t("miner.coverage"),
        "morphism.coverage_calls": c.get("coverage.calls", 0),
        "morphism.find_s": t("morphism.find_homomorphism"),
        "morphism.find_calls": find_calls,
        "morphism.find_hits": c.get("find_homomorphism.hits", 0),
        "morphism.find_hit_ratio": _ratio(
            c.get("find_homomorphism.hits", 0), find_calls
        ),
        "morphism.witness_s": t("miner.iter_homomorphisms"),
        "morphism.witness_streams": c.get("iter_homomorphisms.calls", 0),
        "morphism.witnesses": c.get("iter_homomorphisms.items", 0),
        "miner.occurrences_s": t("miner.template_occurrences"),
        "miner.occurrences_calls": c.get("template_occurrences.calls", 0),
        "miner.nogoods_added": c.get("template_occurrences.returned", 0),
        "morphism.iso_s": t("miner.is_isomorphic"),
        "morphism.iso_calls": c.get("is_isomorphic.calls", 0),
        "morphism.iso_true": c.get("is_isomorphic.true", 0),
        "miner.recheck_iso_calls": c.get("is_isomorphic.recheck", 0),
        "dataio.load_s": t("dataio.load"),
        "dataio.write_s": t("dataio.write"),
        "mine.self_s": t(ROOT_SPAN),
    }
