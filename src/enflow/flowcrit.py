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
identity to be exact on integer inputs. It is C code (``_maxflow.c``) that
the first solve in a process compiles, so a C compiler is needed then. In
exact mode the pair set is all ordered pairs; in sampled mode it is a seeded
fixed sample of ordered pairs reused for the baseline and for every arc
removal, so sampled runs are reproducible given (seed, pair count).

Removal totals are computed pair by pair, and every shortcut is exact. One
kernel call per period (one network) solves all its pairs in pair-list
order, so the per-arc sums are added in that order. Each pair is solved
once, and the solve is certified (capacity bounds and conservation); the
call stops at the first failing certificate. An arc that carries no flow
in that max flow leaves the pair's value unchanged: the flow stays feasible
without the arc, and deleting capacity cannot raise a max flow. An arc that
carries flow is settled by the first of three means that applies, each
giving the bits of the warm re-solve (the header of ``_maxflow.c`` has the
proofs):

- the cut screen: the arc leaves the source side S of the max flow's
  minimum cut (the nodes its residual reaches from the source), so deleting
  it lowers the value by exactly its flow;
- the two-hop screen: the residual's two-hop paths around the arc hold at
  least its flow f times (1 + 1e-9), so the flow is rerouted in full on one
  side of S and the value does not fall;
- otherwise a certified re-solve, warm-started from the pair's final
  residual (see ``without`` in ``_maxflow.c``), which ends in a residual
  with no augmenting path, as a from-scratch solve does.

The report counts the arcs that each means settled.
"""

from __future__ import annotations

import ctypes
import functools
import shlex
import subprocess
import sysconfig
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import FlowCertificateError, ValidationError, ZeroBaselineError, first_failure
from .multinet import SupraAdjacency, aggregate_to_layers, merged

__all__ = [
    "FlowNetwork",
    "ARC_ROW",
    "ArcCriticalityReport",
    "max_flow",
    "arc_criticality",
    "country_level_criticality",
    "DEFAULT_SAMPLE_PAIRS",
]

DEFAULT_SAMPLE_PAIRS = 2000


def _checked_arcs(arcs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys tail * n + head (int64) and capacities (float64) of ``arcs``, an
    (m, 3) array-like of (tail, head, capacity). The first arc that is not
    three numbers, or that fails a check (integral ends, ends in 0..n-1, no
    self-loop, a finite capacity >= 0, in that order), raises ValidationError
    naming it."""
    if not isinstance(arcs, np.ndarray):
        arcs = list(arcs)
    try:
        table = np.asarray(arcs, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        table = None
    if table is not None and table.shape == (0,):
        table = table.reshape(0, 3)
    if table is None or table.ndim != 2 or table.shape[1] != 3:
        for i, arc in enumerate(arcs):
            try:
                ok = np.shape(np.asarray(arc, dtype=np.float64)) == (3,)
            except (TypeError, ValueError, OverflowError):
                ok = False
            if not ok:
                raise ValidationError(f"arc {i} is not a (tail, head, capacity) triple: {arc!r}")
        raise ValidationError(f"arc triples must form an (m, 3) array, got {np.shape(table)}")
    tails, heads, capacity = table.T  # column by column: numpy is slow on rows of 2
    hit = first_failure((
        (~(np.isfinite(tails) & np.isfinite(heads)
           & (tails == np.floor(tails)) & (heads == np.floor(heads))),
         lambda i: f"arc {i} endpoints ({tails[i]}, {heads[i]}) are not integers"),
        ((tails < 0) | (tails >= n) | (heads < 0) | (heads >= n),
         lambda i: f"arc ({int(tails[i])}, {int(heads[i])}) outside node range 0..{n - 1}"),
        (tails == heads, lambda i: f"self-loop arc at node {int(tails[i])} is not allowed"),
        (~(np.isfinite(capacity) & (capacity >= 0)),
         lambda i: f"arc ({int(tails[i])}, {int(heads[i])}) capacity must be finite and "
                   f">= 0, got {float(capacity[i])}"),
    ))
    if hit is not None:
        i, message = hit
        raise ValidationError(message(i))
    key = tails.astype(np.int64) * n
    key += heads.astype(np.int64)
    return key, capacity


class FlowNetwork:
    """Immutable capacitated digraph and its residual graph for the compiled
    Dinic kernel in ``_maxflow.c``.

    ``arcs`` is an iterable of (tail, head, capacity) triples or an (m, 3)
    array. Parallel arcs are merged by :func:`~enflow.multinet.merged`;
    self-loops are rejected (they can never carry flow between distinct
    endpoints). Arcs are kept in sorted (tail, head) order, which fixes the
    iteration order everywhere.

    Arc a occupies residual slots 2a (forward) and 2a+1 (reverse). A residual
    is an array of slot capacities. The reverse slot starts at 0 and holds the
    flow on its arc: unlike ``base_cap[2a] - cap[2a]``, it keeps a flow far
    below the arc's capacity. Every solve copies ``base_cap``, so one network
    serves many queries.
    """

    def __init__(self, node_count: int, arcs: Iterable[tuple[int, int, float]] | np.ndarray):
        if not isinstance(node_count, (int, np.integer)) or node_count < 1:
            raise ValidationError(f"node_count must be an int >= 1, got {node_count!r}")
        n = self.node_count = int(node_count)
        key, capacity = merged(*_checked_arcs(arcs, n))
        tails, heads = np.divmod(key, n)
        if not np.all(np.isfinite(capacity)):
            a = int(np.argmin(np.isfinite(capacity)))
            raise ValidationError(
                f"parallel arcs ({tails[a]}, {heads[a]}) merge to a capacity that is not finite"
            )
        self.arcs: tuple[tuple[int, int, float], ...] = tuple(
            zip(tails.tolist(), heads.tolist(), capacity.tolist())
        )
        ends = np.column_stack((tails, heads)).astype(np.intc)
        owner = ends.ravel()  # slot 2a leaves the tail, slot 2a+1 the head
        self.to = np.ascontiguousarray(ends[:, ::-1]).ravel()
        # A stable sort keeps each node's slots in ascending order.
        self.adj = np.argsort(owner, kind="stable").astype(np.intc)
        self.start = np.zeros(n + 1, dtype=np.intc)
        np.cumsum(np.bincount(owner, minlength=n), out=self.start[1:])
        self.base_cap = np.zeros(owner.size)
        self.base_cap[0::2] = capacity
        self.scale = max(1.0, float(self.base_cap.max(initial=0.0)))
        # The kernel reads these arrays only through this tuple: it keeps them
        # alive, and a reassigned public attribute cannot leave a stale pointer.
        arrays = (self.to, self.start, self.adj, self.base_cap)
        self._static = arrays, tuple(a.ctypes.data for a in arrays)

    @classmethod
    def from_matrix(cls, matrix) -> "FlowNetwork":
        """Build from a square capacity matrix; diagonal entries are dropped."""
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"capacity matrix must be square, got shape {m.shape}")
        rows, cols = np.nonzero(m)
        off = rows != cols
        rows, cols = rows[off], cols[off]
        return cls(m.shape[0], np.column_stack((rows, cols, m[rows, cols])))

    def solve(self, source: int, target: int) -> tuple[float, np.ndarray]:
        """Certified max-flow value and the final residual."""
        self._check_pair(source, target)
        values, cap, _, _ = self._solve_pairs([(source, target)])
        return float(values[0]), cap

    def _solve_pairs(self, pairs, drops: bool = False):
        """Certified max-flow values of ``pairs``, (source, target) rows of
        distinct nodes, solved in row order in one kernel call, and the last
        pair's residual. With ``drops``, also, per arc, the falls in the
        pairs' values when it is deleted, summed in row order, and the number
        of carrying arcs settled by the cut screen, by the two-hop screen and
        by a re-solve; else None and None."""
        pairs = np.ascontiguousarray(pairs, dtype=np.intc)
        (*_, base_cap), pointers = self._static
        values, cap = np.empty(len(pairs)), np.empty_like(base_cap)
        sums = (np.zeros(len(self.arcs)), np.zeros(3, dtype=np.int64)) if drops else (None, None)
        where = ctypes.c_int()
        code = _kernel().solve_pairs(
            self.node_count, len(self.arcs), *pointers, self.scale, len(pairs),
            pairs.ctypes.data, cap.ctypes.data, values.ctypes.data,
            *(None if a is None else a.ctypes.data for a in sums), ctypes.byref(where),
        )
        _raise_for(code, where.value)
        return values, cap, *sums

    def _certify(self, cap, source: int, target: int, value: float) -> None:
        """Certify the residual as a flow of ``value``: capacity bounds plus
        conservation."""
        self._check_pair(source, target)
        cap = np.ascontiguousarray(cap, dtype=np.float64)
        (*_, base_cap), (to, *_, base) = self._static
        if cap.shape != base_cap.shape:
            raise ValidationError(f"residual has shape {cap.shape}, expected {base_cap.shape}")
        work, where = np.empty(2 * self.node_count), ctypes.c_int()
        code = _kernel().certify(
            self.node_count, len(self.arcs), to, base, cap.ctypes.data, self.scale, source,
            target, value, work.ctypes.data, ctypes.byref(where),
        )
        _raise_for(code, where.value)

    def _check_pair(self, source: int, target: int) -> None:
        # The kernel indexes node arrays by both ends and needs them distinct.
        if source == target:
            raise ValidationError("source and target must differ")
        for name, v in (("source", source), ("target", target)):
            if not 0 <= v < self.node_count:
                raise ValidationError(f"{name} node {v} outside 0..{self.node_count - 1}")

    def __repr__(self) -> str:
        return f"FlowNetwork(nodes={self.node_count}, arcs={len(self.arcs)})"


_CERTIFICATE_ERRORS = {
    1: "flow on arc {} violates its capacity bound",
    2: "flow conservation violated at node {}",
}


# FMA contraction stays off so the kernel's arithmetic is that of plain IEEE
# doubles, operation for operation.
_CFLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-shared", "-fPIC")


@functools.cache
def _kernel() -> ctypes.CDLL:
    """The compiled ``_maxflow.c``, built once per process with the C compiler
    Python was built with and ``_CFLAGS``."""
    source = Path(__file__).with_name("_maxflow.c")
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    with tempfile.TemporaryDirectory() as tmp:
        lib = Path(tmp, "_maxflow.so")
        cmd = [*cc, *_CFLAGS, "-o", str(lib), str(source)]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise OSError(f"cannot compile {source.name} with {cc[0]}: {exc}") from None
        if done.returncode:
            raise OSError(f"cannot compile {source.name} with {cc[0]}: {done.stderr.strip()}")
        kernel = ctypes.CDLL(str(lib))
    i, d, p = ctypes.c_int, ctypes.c_double, ctypes.c_void_p
    kernel.certify.argtypes = [i, i, p, p, p, d, i, i, d, p, p]
    kernel.solve_pairs.argtypes = [i, i, p, p, p, p, d, i, p, p, p, p, p, p]
    kernel.certify.restype = kernel.solve_pairs.restype = i
    return kernel


def _raise_for(code: int, where: int) -> None:
    if code == 3:
        raise MemoryError("max-flow kernel is out of memory")
    if code:
        raise FlowCertificateError(_CERTIFICATE_ERRORS[code].format(where))


def max_flow(net: FlowNetwork, source: int, target: int) -> float:
    """Value of a maximum source-to-target flow (equals the min-cut capacity)."""
    return net.solve(source, target)[0]


def _check_sampling(mode: str, pairs: int, seed: int) -> None:
    """ValidationError unless ``mode`` is "exact", or "sampled" with pairs >= 1 and seed >= 0."""
    if mode not in ("exact", "sampled"):
        raise ValidationError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    if mode == "sampled" and pairs < 1:
        raise ValidationError("sampled mode needs at least one pair")
    if mode == "sampled" and seed < 0:
        raise ValidationError(f"sampling seed must be >= 0, got {seed}")


def _pair_set(node_count: int, mode: str, pairs: int, seed: int) -> np.ndarray:
    """The ordered pairs (s, t), s != t, as a (k, 2) ``intc`` array in index
    order s * (n - 1) + (t if t < s else t - 1): all of them, or a seeded
    sample."""
    total = node_count * (node_count - 1)
    if mode == "exact" or pairs >= total:
        indices = np.arange(total)
    else:
        indices = np.sort(np.random.default_rng(seed).choice(total, size=pairs, replace=False))
    s, r = np.divmod(indices, node_count - 1)
    return np.column_stack((s, r + (r >= s))).astype(np.intc)


ARC_ROW = np.dtype([("tail", np.int64), ("head", np.int64), ("removed_total", np.float64),
                    ("index", np.float64)])


@dataclass(frozen=True, eq=False)
class ArcCriticalityReport:
    """Criticality index per arc.

    ``rows`` is an ``ARC_ROW`` structured array, one row per arc, sorted by
    descending index, then tail, then head. ``mode`` is "exact" or "sampled";
    sampled reports carry the pair count and seed that reproduce them. Summed
    over the pairs, ``settled_by_cut``, ``settled_by_two_hop`` and
    ``resolved`` count the arcs carrying a pair's flow that each means
    settled (see the module docstring).
    """

    baseline_total: float
    rows: np.ndarray
    mode: str
    pair_count: int | None = None
    seed: int | None = None
    settled_by_cut: int = 0
    settled_by_two_hop: int = 0
    resolved: int = 0


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
    keep the pair's value exactly; arcs with flow are settled by an exact
    screen or re-solved warm-started from the baseline residual. Per-arc
    drops are summed in pair-list order, so reruns are bit-identical.

    Raises
    ------
    ZeroBaselineError
        The baseline total is zero, so the index is undefined.
    """
    _check_sampling(mode, pairs, seed)
    pair_list = _pair_set(net.node_count, mode, pairs, seed)
    # drops[a] sums, pair by pair in pair-list order, the fall in the pair's
    # max flow when arc a is deleted. Only arcs carrying flow in the pair's
    # certified max flow can lower it: without any other arc that flow stays
    # feasible, and deleting capacity cannot raise a max flow. One kernel
    # call solves, screens, re-solves and certifies every pair in turn.
    values, _, drops, counts = net._solve_pairs(pair_list, drops=True)
    baseline = float(values.sum())
    if baseline <= 0.0:
        raise ZeroBaselineError(
            "baseline total max flow is zero; the criticality index is undefined"
        )
    rows = np.empty(len(drops), dtype=ARC_ROW)
    rows["head"], rows["tail"] = net.to[0::2], net.to[1::2]  # slot 2a+1 leads to the tail
    # Deleting capacity cannot raise the total; clip float dust so the
    # reported pair (removed, index) stays exactly on the defining line.
    rows["removed_total"] = np.minimum(baseline - drops, baseline)
    rows["index"] = 1.0 - rows["removed_total"] / baseline
    # The arcs are in (tail, head) order, and a stable sort keeps it among ties.
    rows = rows[np.argsort(-rows["index"], kind="stable")]
    return ArcCriticalityReport(
        baseline_total=baseline,
        rows=rows,
        mode=mode,
        pair_count=len(pair_list) if mode == "sampled" else None,
        seed=seed if mode == "sampled" else None,
        settled_by_cut=int(counts[0]),
        settled_by_two_hop=int(counts[1]),
        resolved=int(counts[2]),
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
