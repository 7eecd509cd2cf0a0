"""Pure-Python Dinic engine kept as the reference for the compiled kernel.

This is the solver that ``enflow.flowcrit`` ran before ``_maxflow.c``
replaced it. The parity tests in ``test_flowcrit.py`` require the kernel's
values, residuals and per-arc drops to equal this engine's with ``==``, and
the warm-start tests trace its push sequence, which the kernel follows step
for step.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


class ReferenceEngine:
    """Residual-graph solver over one arc list.

    Each arc a occupies residual slots 2a (forward) and 2a+1 (reverse). A
    residual is a list of slot capacities; the reverse slot holds the flow on
    its arc. Every solve copies ``base_cap``.
    """

    def __init__(self, node_count: int, arcs: Sequence[tuple[int, int, float]]):
        self.n = node_count
        to: list[int] = []
        base_cap: list[float] = []
        adj: list[list[int]] = [[] for _ in range(node_count)]
        for tail, head, capacity in arcs:
            adj[tail].append(len(to))
            to.append(head)
            base_cap.append(capacity)
            adj[head].append(len(to))
            to.append(tail)
            base_cap.append(0.0)
        self.to = to
        self.base_cap = base_cap
        self.adj = adj

    def solve(self, source: int, target: int) -> tuple[float, list[float]]:
        """Max-flow value and the final residual."""
        cap = self.base_cap.copy()
        return self._augment(cap, source, target), cap

    def drops(self, source: int, target: int) -> np.ndarray:
        """Per arc, the fall in the pair's max flow when the arc is deleted:
        re-solved warm for arcs that carry flow, 0 for the others."""
        value, cap = self.solve(source, target)
        out = np.zeros(len(self.to) // 2)
        carrying = np.flatnonzero(np.asarray(cap)[1::2] > 0.0)
        out[carrying] += [
            value - self.value_without(cap, source, target, value, int(a)) for a in carrying
        ]
        return out

    def value_without(
        self, cap: Sequence[float], source: int, target: int, value: float, arc: int
    ) -> float:
        """Max-flow value after deleting ``arc``, warm-started from ``cap``, a
        max-flow residual of value ``value`` for the same pair.

        The arc's flow f is first rerouted from its tail u to its head v; the
        part e that cannot be rerouted is cancelled by pushing e from u back to
        the source and from the target to v. The residual then holds a valid
        flow of value ``value - e`` without the arc, and augmenting it to
        optimality gives the exact new max flow.
        """
        cap = list(cap)
        u, v = self.to[2 * arc + 1], self.to[2 * arc]
        f = cap[2 * arc + 1]
        cap[2 * arc] = cap[2 * arc + 1] = 0.0
        e = f - self._augment(cap, u, v, f)
        if e > 0.0:
            # With no u-v path left, the e units reach u only from the source
            # and leave v only towards the target, so both pushes find e.
            if u != source:
                self._augment(cap, u, source, e)
            if v != target:
                self._augment(cap, target, v, e)
        return value - e + self._augment(cap, source, target)

    def _augment(
        self, cap: list[float], source: int, target: int, limit: float = math.inf
    ) -> float:
        """Push up to ``limit`` units from source to target by blocking flows
        on level graphs (Dinic), updating the residual ``cap`` in place.
        Returns the amount pushed, exactly ``limit`` when the limit binds."""
        to = self.to
        adj = self.adj
        n = self.n
        total = 0.0
        while True:
            level = [-1] * n
            level[source] = 0
            queue = [source]
            qi = 0
            target_level = -1
            while qi < len(queue):
                v = queue[qi]
                qi += 1
                next_level = level[v] + 1
                if target_level >= 0 and next_level > target_level:
                    break  # deeper nodes cannot lie on a shortest path
                for e in adj[v]:
                    if cap[e] > 0.0 and level[to[e]] < 0:
                        level[to[e]] = next_level
                        queue.append(to[e])
                        if to[e] == target:
                            target_level = next_level
            if level[target] < 0:
                return total
            pointer = [0] * n
            path: list[int] = []
            v = source
            while True:
                if v == target:
                    bottleneck = min(cap[e] for e in path)
                    done = bottleneck >= limit - total
                    if done:
                        bottleneck = limit - total
                    for e in path:
                        cap[e] -= bottleneck
                        cap[e ^ 1] += bottleneck
                    if done:
                        return limit
                    total += bottleneck
                    cut = 0
                    while cut < len(path) and cap[path[cut]] > 0.0:
                        cut += 1
                    v = source if cut == 0 else to[path[cut - 1]]
                    del path[cut:]
                    continue
                edges = adj[v]
                i = pointer[v]
                want_level = level[v] + 1
                while i < len(edges):
                    e = edges[i]
                    if cap[e] > 0.0 and level[to[e]] == want_level:
                        break
                    i += 1
                pointer[v] = i
                if i < len(edges):
                    e = edges[i]
                    path.append(e)
                    v = to[e]
                else:
                    level[v] = -2  # dead end in this phase
                    if not path:
                        break
                    e = path.pop()
                    v = to[e ^ 1]
                    pointer[v] += 1
