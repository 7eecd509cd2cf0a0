"""In-memory span recorder that traces enflow from the outside.

Public functions are replaced by timing wrappers wherever callers look them
up: module globals of every loaded ``enflow`` module (so ``enflow.cli``'s
imported names and nested calls such as ``leontief.leontief_apply`` are both
caught) and class attributes (``SupraAdjacency.from_entries``). Nothing in
the package source changes. A target missing from the package raises
:class:`TargetMissing`: after a refactor moves or renames a traced function,
its per-layer metrics would otherwise read 0 and look like a gain.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from contextlib import contextmanager

# (module, attribute path) -> span name. Class members use "Class.member".
TARGETS = {
    ("enflow.dataio", "load_dataset"): "dataio.load_dataset",
    ("enflow.dataio", "save_dataset"): "dataio.save_dataset",
    ("enflow.dataio", "generate_synthetic"): "dataio.generate_synthetic",
    ("enflow.dataio", "load_network"): "dataio.load_network",
    ("enflow.dataio", "save_network"): "dataio.save_network",
    ("enflow.dataio", "write_csv"): "dataio.write_csv",
    ("enflow.dataio", "export_results"): "dataio.export_results",
    ("enflow.dataio", "consumption_summary"): "dataio.consumption_summary",
    ("enflow.leontief", "build_temporal_network"): "leontief.build_temporal_network",
    ("enflow.leontief", "embodied_flow_matrix"): "leontief.embodied_flow_matrix",
    ("enflow.leontief", "embodied_intensity"): "leontief.embodied_intensity",
    ("enflow.leontief", "leontief_apply"): "leontief.leontief_apply",
    ("enflow.multinet", "SupraAdjacency.from_entries"): "multinet.from_entries",
    ("enflow.multinet", "TemporalMultilayerNetwork.tensor_entries"): "multinet.tensor_entries",
    ("enflow.multinet", "aggregate_to_layers"): "multinet.aggregate_to_layers",
    ("enflow.centrality", "md_hits"): "centrality.md_hits",
    ("enflow.centrality", "md_hits_single_period"): "centrality.md_hits_single_period",
    ("enflow.centrality", "hits"): "centrality.hits",
    ("enflow.centrality", "eigenvector_centrality"): "centrality.eig",
    ("enflow.centrality", "rank"): "centrality.rank",
    ("enflow.flowcrit", "country_level_criticality"): "flowcrit.criticality",
    ("enflow.flowcrit", "arc_criticality"): "flowcrit.arc_criticality",
    ("enflow.flowcrit", "max_flow"): "flowcrit.max_flow",
}


class TargetMissing(LookupError):
    """A traced function is no longer where :data:`TARGETS` says."""


class Recorder:
    """Spans as [id, name, start, end, parent id, error type or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # span name -> hook(recorder, span record, call args, result)
        self.hooks: dict[str, Callable] = {}

    @contextmanager
    def span(self, name: str):
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        except BaseException as exc:
            record[5] = type(exc).__name__
            raise
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def parent_name(self, record) -> str | None:
        return None if record[4] is None else self.spans[record[4]][1]

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            hook = self.hooks.get(name)
            if hook is not None:
                hook(self, record, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target with a timing wrapper; undone by :meth:`uninstall`."""
        for (module_name, path), name in TARGETS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                raise TargetMissing(f"{module_name}: {exc}") from exc
            if "." in path:
                cls_name, member = path.split(".")
                cls = getattr(module, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(member)
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(name, raw.__func__))
                elif callable(raw):
                    replacement = self._wrap(name, raw)
                else:
                    raise TargetMissing(f"{module_name}.{path} is not a method")
                self._patches.append((cls, member, raw))
                setattr(cls, member, replacement)
                continue
            original = getattr(module, path, None)
            if not callable(original):
                raise TargetMissing(f"{module_name}.{path} is not a function")
            wrapper = self._wrap(name, original)
            for mod in [m for key, m in list(sys.modules.items())
                        if m is not None and (key == "enflow" or key.startswith("enflow."))]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    @contextmanager
    def installed(self):
        try:
            self.install()
        except TargetMissing:
            self.uninstall()
            raise
        try:
            yield self
        finally:
            self.uninstall()

    # -- summaries ---------------------------------------------------------

    def total(self, name: str, *, not_under: str | None = None) -> float:
        """Summed duration of spans called ``name``, optionally skipping those
        whose parent is ``not_under`` (recursive or wrapper calls)."""
        return sum(r[3] - r[2] for r in self.spans
                   if r[1] == name and (not_under is None or self.parent_name(r) != not_under))

    def calls(self, name: str, *, not_under: str | None = None, failed: bool = False) -> int:
        return sum(1 for r in self.spans
                   if r[1] == name
                   and (not_under is None or self.parent_name(r) != not_under)
                   and (not failed or r[5] is not None))

    def self_time(self, prefix: str) -> float:
        """Duration of spans whose name starts with ``prefix`` minus the time
        their direct children cover (children of one span run in sequence)."""
        child_time: dict[int, float] = defaultdict(float)
        for r in self.spans:
            if r[4] is not None:
                child_time[r[4]] += r[3] - r[2]
        return sum(r[3] - r[2] - child_time[r[0]] for r in self.spans if r[1].startswith(prefix))

    def child_total(self, parent: str, child: str) -> float:
        return sum(r[3] - r[2] for r in self.spans
                   if r[1] == child and self.parent_name(r) == parent)


def span_cost(calls: int = 20_000, batches: int = 5) -> float:
    """Seconds one traced call adds over an untraced one, measured on a no-op
    function: the cheapest of ``batches`` batches of ``calls`` calls each."""

    def noop():
        return None

    wrapped = Recorder()._wrap("noop", noop)
    best = float("inf")
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        middle = time.perf_counter()
        for _ in range(calls):
            wrapped()
        end = time.perf_counter()
        best = min(best, ((end - middle) - (middle - start)) / calls)
    return best
