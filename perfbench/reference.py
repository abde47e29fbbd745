"""A fixed pure-Python workload that measures how fast the machine is now.

    python3 perfbench/reference.py      # prints {"ref_s": ...}

On a shared machine other tenants slow every process down, in phases of
10-60 s and by up to 1.9x. Each timed sample is followed by one run of this
workload in a fresh process. Its time, against NOMINAL_S, gives the
slowdown at that moment, and run.py divides the sample's times by it.

The work resembles the program's and none of it comes from patmine:
backtracking searches for labelled 5-vertex patterns in 200 random graphs
of 15-25 vertices, on sets, lists and dicts. It must never change: every
commit is measured against it.
"""

from __future__ import annotations

import json
import random
import time

# Fastest time of this workload on the uncontended 2-CPU machine the
# benchmark was defined on (Python 3.11).
NOMINAL_S = 0.35


def _graph(rng: random.Random, n: int, m: int) -> tuple[dict, list]:
    adj = {v: set() for v in range(n)}
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].add(v)
        adj[v].add(u)
    while sum(len(a) for a in adj.values()) // 2 < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj, [rng.choice("abcd") for _ in range(n)]


def _count(pattern, graph, limit: int) -> int:
    (padj, plab), (gadj, glab) = pattern, graph
    n = len(plab)
    used: set[int] = set()
    assigned: list[int] = []
    found = 0

    def extend(i: int) -> bool:
        nonlocal found
        if i == n:
            found += 1
            return found >= limit
        for t in range(len(glab)):
            if t in used or glab[t] != plab[i]:
                continue
            if all((assigned[j] in gadj[t]) == (j in padj[i]) for j in range(i)):
                used.add(t)
                assigned.append(t)
                if extend(i + 1):
                    return True
                assigned.pop()
                used.discard(t)
        return False

    extend(0)
    return found


def main() -> None:
    t0 = time.perf_counter()
    rng = random.Random(1)
    graphs = [_graph(rng, rng.randint(15, 25), 23) for _ in range(200)]
    patterns = [_graph(rng, 5, 5) for _ in range(25)]
    total = sum(_count(p, g, 3) for p in patterns for g in graphs)
    print(json.dumps({"ref_s": time.perf_counter() - t0, "total": total}))


if __name__ == "__main__":
    main()
