"""Maximum flows and arc criticality.

The criticality of an arc is the relative drop in the total max flow of the
network caused by deleting that arc: with m_base the sum of the max-flow
values over a fixed set of ordered node pairs and m_removed the same sum
without the arc,

    index = 1 - m_removed / m_base.

Deleting capacity can never increase a max flow, so the index lies in
[0, 1]; it reaches 1 exactly when the arc was the only carrier of every
positive pair flow (removal of a global bridge), and 0 when the arc is
redundant for every pair.

Max flows are computed with a blocking-flow (level graph) augmenting-path
solver, which handles real-valued capacities exactly enough for the min-cut
identity to be exact on integer inputs. In exact mode the pair set is all
ordered pairs; in sampled mode it is a seeded fixed sample of ordered pairs
reused for the baseline and for every arc removal, so sampled runs are
reproducible given (seed, pair count).

Removal totals are computed pair by pair, and both shortcuts are exact. Each
pair is solved once. An arc that carries no flow in that certified max flow
leaves the pair's value unchanged: the flow stays feasible without the arc,
and deleting capacity cannot raise a max flow. Only the arcs that carry flow
are re-solved, each warm-started from the pair's final residual (see
``_BlockingFlowEngine.value_without``); the re-solve ends in a residual with
no augmenting path, as a from-scratch solve does. Every solve, baseline or
re-solve, is certified (capacity bounds and conservation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import FlowCertificateError, ValidationError, ZeroBaselineError
from .multinet import SupraAdjacency, aggregate_to_layers

__all__ = [
    "FlowNetwork",
    "ArcRemovalRow",
    "ArcCriticalityReport",
    "max_flow",
    "arc_criticality",
    "country_level_criticality",
    "EXACT_MODE_NODE_LIMIT",
    "DEFAULT_SAMPLE_PAIRS",
]

# Exact all-ordered-pairs mode is the default up to this many nodes; beyond,
# the quadratic number of max-flow calls per arc removal calls for sampling.
EXACT_MODE_NODE_LIMIT = 250
DEFAULT_SAMPLE_PAIRS = 2000


class FlowNetwork:
    """Immutable capacitated digraph.

    Parallel arcs are merged by adding capacities; self-loops are rejected
    (they can never carry flow between distinct endpoints). Arcs are kept in
    sorted (tail, head) order, which fixes the iteration order everywhere.
    """

    def __init__(self, node_count: int, arcs: Iterable[tuple[int, int, float]]):
        if node_count < 1:
            raise ValidationError("node_count must be >= 1")
        merged: dict[tuple[int, int], float] = {}
        for tail, head, capacity in arcs:
            tail, head = int(tail), int(head)
            if not (0 <= tail < node_count and 0 <= head < node_count):
                raise ValidationError(
                    f"arc ({tail}, {head}) outside node range 0..{node_count - 1}"
                )
            if tail == head:
                raise ValidationError(f"self-loop arc at node {tail} is not allowed")
            capacity = float(capacity)
            if not np.isfinite(capacity) or capacity < 0:
                raise ValidationError(
                    f"arc ({tail}, {head}) capacity must be finite and >= 0, got {capacity}"
                )
            merged[(tail, head)] = merged.get((tail, head), 0.0) + capacity
        self.node_count = int(node_count)
        self.arcs: tuple[tuple[int, int, float], ...] = tuple(
            (t, h, c) for (t, h), c in sorted(merged.items())
        )
        self._engine: _BlockingFlowEngine | None = None

    @classmethod
    def from_matrix(cls, matrix) -> "FlowNetwork":
        """Build from a square capacity matrix; diagonal entries are dropped."""
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"capacity matrix must be square, got shape {m.shape}")
        rows, cols = np.nonzero(m)
        arcs = [
            (int(r), int(c), float(m[r, c])) for r, c in zip(rows, cols) if r != c
        ]
        return cls(m.shape[0], arcs)

    @property
    def engine(self) -> "_BlockingFlowEngine":
        if self._engine is None:
            self._engine = _BlockingFlowEngine(self.node_count, self.arcs)
        return self._engine

    def __repr__(self) -> str:
        return f"FlowNetwork(nodes={self.node_count}, arcs={len(self.arcs)})"


class _BlockingFlowEngine:
    """Reusable residual-graph solver over one arc list.

    Each arc a occupies residual slots 2a (forward) and 2a+1 (reverse). A
    residual is a list of slot capacities. The reverse slot starts at 0 and
    holds the flow on its arc: unlike ``base_cap[2a] - cap[2a]``, it keeps a
    flow far below the arc's capacity. Every solve copies ``base_cap``, so one
    engine serves many queries.
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
        self.scale = max(1.0, max(base_cap, default=0.0))
        self.arc_cap = np.array(base_cap[0::2], dtype=np.float64)
        self.tails = np.array(to[1::2], dtype=np.intp)
        self.heads = np.array(to[0::2], dtype=np.intp)

    def solve(self, source: int, target: int) -> tuple[float, list[float]]:
        """Certified max-flow value and the final residual."""
        cap = self.base_cap.copy()
        value = self._augment(cap, source, target)
        self._certify(cap, source, target, value)
        return value, cap

    def value_without(
        self, cap: Sequence[float], source: int, target: int, value: float, arc: int
    ) -> float:
        """Certified max-flow value after deleting ``arc``, warm-started from
        ``cap``, a max-flow residual of value ``value`` for the same pair.

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
        value = value - e + self._augment(cap, source, target)
        self._certify(cap, source, target, value)
        return value

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

    def _certify(self, cap: Sequence[float], source: int, target: int, value: float) -> None:
        """Certify the residual as a flow of ``value``: capacity bounds plus
        conservation."""
        flow = np.asarray(cap)[1::2]
        tol = 1e-9 * self.scale
        bad = (flow < -tol) | (flow > self.arc_cap + tol)
        if bad.any():
            raise FlowCertificateError(
                f"flow on arc {int(bad.argmax())} violates its capacity bound"
            )
        net = np.bincount(self.heads, flow, self.n) - np.bincount(self.tails, flow, self.n)
        net[source] += value
        net[target] -= value
        bad = np.abs(net) > 1e-6 * self.scale
        if bad.any():
            raise FlowCertificateError(f"flow conservation violated at node {int(bad.argmax())}")


def max_flow(net: FlowNetwork, source: int, target: int) -> float:
    """Value of a maximum source-to-target flow (equals the min-cut capacity)."""
    if source == target:
        raise ValidationError("source and target must differ")
    for name, v in (("source", source), ("target", target)):
        if not 0 <= v < net.node_count:
            raise ValidationError(f"{name} node {v} outside 0..{net.node_count - 1}")
    return net.engine.solve(source, target)[0]


def _pair_set(node_count: int, mode: str, pairs: int, seed: int) -> list[tuple[int, int]]:
    total = node_count * (node_count - 1)
    if total == 0:
        return []
    if mode == "exact" or pairs >= total:
        indices = range(total)
    else:
        rng = np.random.default_rng(seed)
        indices = np.sort(rng.choice(total, size=pairs, replace=False)).tolist()
    out = []
    for idx in indices:
        s, r = divmod(int(idx), node_count - 1)
        out.append((s, r if r < s else r + 1))
    return out


@dataclass(frozen=True)
class ArcRemovalRow:
    tail: int
    head: int
    removed_total: float
    index: float


@dataclass(frozen=True)
class ArcCriticalityReport:
    """Criticality index per arc, sorted by descending index.

    ``mode`` is "exact" or "sampled"; sampled reports carry the pair count
    and seed that reproduce them.
    """

    baseline_total: float
    rows: tuple[ArcRemovalRow, ...]
    mode: str
    pair_count: int | None = None
    seed: int | None = None

    def top(self, k: int) -> tuple[ArcRemovalRow, ...]:
        return self.rows[:k]


def arc_criticality(
    net: FlowNetwork,
    mode: str = "exact",
    *,
    pairs: int = DEFAULT_SAMPLE_PAIRS,
    seed: int = 0,
) -> ArcCriticalityReport:
    """Delete each arc in turn and measure the drop in the total max flow.

    In exact mode the total runs over all ordered node pairs; in sampled
    mode over a fixed seeded sample of ordered pairs shared by the baseline
    and every removal. Per pair, arcs without flow in the baseline max flow
    keep the pair's value exactly and are not re-solved; arcs with flow are
    re-solved warm-started from the baseline residual. Per-arc drops are
    summed in pair-list order, so reruns are bit-identical.

    Raises
    ------
    ZeroBaselineError
        The baseline total is zero, so the index is undefined.
    """
    if mode not in ("exact", "sampled"):
        raise ValidationError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    if mode == "sampled" and pairs < 1:
        raise ValidationError("sampled mode needs at least one pair")
    if mode == "sampled" and seed < 0:
        raise ValidationError(f"sampling seed must be >= 0, got {seed}")
    pair_list = _pair_set(net.node_count, mode, pairs, seed)
    engine = net.engine
    # drops[a] sums, pair by pair in pair-list order, the fall in the pair's
    # max flow when arc a is deleted. Only arcs carrying flow in the pair's
    # certified max flow are re-solved: without any other arc that flow stays
    # feasible, and deleting capacity cannot raise a max flow.
    values = np.empty(len(pair_list))
    drops = np.zeros(len(net.arcs))
    for i, (s, t) in enumerate(pair_list):
        value, cap = engine.solve(s, t)
        values[i] = value
        carrying = np.flatnonzero(np.asarray(cap)[1::2] > 0.0)
        drops[carrying] += [
            value - engine.value_without(cap, s, t, value, int(a)) for a in carrying
        ]
    baseline = float(values.sum())
    if baseline <= 0.0:
        raise ZeroBaselineError(
            "baseline total max flow is zero; the criticality index is undefined"
        )
    rows = []
    for (tail, head, _), drop in zip(net.arcs, drops):
        # Deleting capacity cannot raise the total; clip float dust so the
        # reported pair (removed, index) stays exactly on the defining line.
        removed = min(baseline - float(drop), baseline)
        rows.append(
            ArcRemovalRow(
                tail=tail, head=head, removed_total=removed, index=1.0 - removed / baseline
            )
        )
    rows.sort(key=lambda r: (-r.index, r.tail, r.head))
    return ArcCriticalityReport(
        baseline_total=baseline,
        rows=tuple(rows),
        mode=mode,
        pair_count=len(pair_list) if mode == "sampled" else None,
        seed=seed if mode == "sampled" else None,
    )


def country_level_criticality(
    w: SupraAdjacency,
    mode: str = "exact",
    *,
    pairs: int = DEFAULT_SAMPLE_PAIRS,
    seed: int = 0,
) -> ArcCriticalityReport:
    """Arc criticality on the layer-aggregated network.

    Sectors are collapsed first (summing all sector-level weights per ordered
    layer pair), so intra-layer structure becomes inert diagonal mass and is
    dropped; nodes of the resulting flow network are the layers.
    """
    aggregated = aggregate_to_layers(w)
    net = FlowNetwork.from_matrix(aggregated)
    return arc_criticality(net, mode, pairs=pairs, seed=seed)
