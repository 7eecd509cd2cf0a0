"""Directed, weighted, node-aligned temporal multilayer networks.

A multilayer network with N nodes (sectors) and L layers (economies) is stored
as a sparse supra-adjacency matrix of order N*L: the L-by-L grid of N-square
blocks has intra-layer flows on the diagonal blocks and inter-layer flows off
the diagonal. A temporal network is an ordered sequence of such matrices over
a shared node/layer universe.

Each matrix is held as the three numpy arrays of its canonical CSR form, so
reading one from dense, COO or SciPy input, building one from entries,
aggregating it to its layers and writing it out need no SciPy;
``scipy.sparse`` is imported only where a SciPy matrix is made.
One rule makes every weight matrix canonical (:func:`canonical_csr`): repeated
entries summed in input order from 0.0, int32 indices where they fit.

Indices are 0-based throughout: sector i of economy a sits at supra position
h = a*N + i.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "NetworkShape",
    "SupraAdjacency",
    "TemporalMultilayerNetwork",
    "EntityCodes",
    "aggregate_to_layers",
    "stacked_entries",
]


@dataclass(frozen=True)
class NetworkShape:
    """Dimensions of a temporal multilayer network.

    n_nodes
        Number of nodes per layer (sectors), N >= 1.
    n_layers
        Number of layers (economies), L >= 1.
    n_periods
        Number of time instants, T >= 1.
    """

    n_nodes: int
    n_layers: int
    n_periods: int = 1

    def __post_init__(self):
        for name in ("n_nodes", "n_layers", "n_periods"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValidationError(f"{name} must be a positive integer, got {value!r}")

    @property
    def supra_dim(self) -> int:
        """Order of the supra-adjacency matrix, N*L."""
        return self.n_nodes * self.n_layers

    def single_period(self) -> "NetworkShape":
        return NetworkShape(self.n_nodes, self.n_layers, 1)


def merged(key: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``key`` (int64; ``key`` itself when they
    already ascend), each with its ``weights`` summed in input order from
    0.0, in a new array."""
    if np.any(key[1:] < key[:-1]):
        order = np.argsort(key, kind="stable")  # keeps each key's weights in input order
        key, weights = key[order], weights[order]
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    if first.all():
        return key, weights + 0.0  # a new array; a sum from 0.0 makes -0.0 0.0
    return key[first], np.bincount(np.cumsum(first) - 1, weights)


def canonical_csr(key, weights, shape: tuple[int, int], what: str) -> tuple[np.ndarray, ...]:
    """(data, indices, indptr) of the canonical CSR of the ``shape`` matrix
    whose entry at ``key`` row * n_cols + col (int64, overwritten) is the
    :func:`merged` sum of its ``weights``: zero sums are dropped, one that is
    not finite raises ValidationError, and indices are int32 where they fit."""
    n_rows, n_cols = shape
    key, weights = merged(key, weights)
    if not np.all(np.isfinite(weights)):
        raise ValidationError(f"{what} must be finite and >= 0")
    if not weights.all():
        kept = np.flatnonzero(weights)
        key, weights = key[kept], weights[kept]
    index = np.int32 if max(n_cols, key.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.searchsorted(key, np.arange(n_rows + 1) * n_cols).astype(index, copy=False)
    return weights, np.remainder(key, n_cols, out=key).astype(index, copy=False), indptr


class CsrArrays(NamedTuple):
    """The arrays of a canonical CSR matrix (see :func:`canonical_csr`) and its shape."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def scipy(self) -> sparse.csr_array:
        """A ``scipy.sparse.csr_array`` over the same arrays."""
        from scipy import sparse

        return sparse.csr_array(self[:3], shape=self.shape)


def _nonnegative_csr(matrix, what: str, shape: tuple[int, int] | None = None) -> CsrArrays:
    """``matrix`` as the float64 :func:`canonical_csr` of its stored entries,
    taken in storage order: a dense array-like stores its nonzero entries row
    by row, a ``(data, (row, col))`` COO triple its entries (its shape is
    ``shape`` when its indices fit in it, else the one they imply), and a
    SciPy sparse matrix or array the entries of its own ``tocoo()``. The
    entries must be finite and >= 0, and the shape ``shape`` when given. The
    input is never changed, and SciPy is not imported."""
    key = None
    try:
        if hasattr(matrix, "tocoo"):
            coo = matrix.tocoo()
            values, coords, size = coo.data, (coo.row, coo.col), coo.shape
        elif isinstance(matrix, tuple):
            if len(matrix) != 2:
                raise TypeError("invalid input format")
            values, coords = matrix
            coords = tuple(np.asarray(c) if len(c) else np.empty(0, np.intp) for c in coords)
            if shape is None and not all(c.size for c in coords):
                raise ValueError("cannot infer dimensions from zero sized index arrays")
            size = tuple(operator.index(c.max(initial=-1)) + 1 for c in coords)
            for axis, c in enumerate(coords):
                if c.min(initial=0) < 0:
                    raise ValueError(f"negative axis {axis} index: {c.min()}")
            if shape is not None and len(size) == 2 and np.all(np.less_equal(size, shape)):
                size = tuple(shape)
        else:
            dense = np.asarray(matrix)
            if not dense.ndim:
                raise ValueError(f"got the scalar {matrix!r}")
            flat, size = dense.reshape(-1), dense.shape
            key = np.flatnonzero(flat)  # row * n_cols + col, ascending
            values = flat[key]
        values = np.asarray(values, dtype=np.float64)
        if len(size) == 2 and key is None:
            key = np.ravel_multi_index(coords, size)
            if key.shape != values.shape or values.ndim != 1:
                raise ValueError("all index and data arrays must have the same length")
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} is not a matrix: {exc}") from None
    if len(size) != 2 or (shape is not None and size != tuple(shape)):
        raise ValidationError(f"{what} shape {size}, expected {shape or 'two axes'}")
    if values.size and (not np.all(np.isfinite(values)) or values.min() < 0):
        raise ValidationError(f"{what} must be finite and >= 0")
    return CsrArrays(*canonical_csr(key, values, size, what), size)


def stacked_entries(matrices) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(t, row, col, value) of the stored entries of ``matrices``, one or more
    :class:`CsrArrays` or :class:`SupraAdjacency`: t is a matrix's 0-based
    position, the indices are int64, and the entries come matrix by matrix,
    each in (row, col) order."""
    matrices = list(matrices)
    rows = [np.repeat(np.arange(m.indptr.size - 1), np.diff(m.indptr)) for m in matrices]
    return (np.repeat(np.arange(len(matrices), dtype=np.int64), [m.data.size for m in matrices]),
            np.concatenate(rows, dtype=np.int64),
            np.concatenate([m.indices for m in matrices], dtype=np.int64),
            np.concatenate([m.data for m in matrices]))


class SupraAdjacency:
    """Sparse nonnegative supra-adjacency matrix for one time instant.

    Stored entries are strictly positive; an absent entry means weight zero.
    The matrix is held as the ``indptr``, ``indices`` and ``data`` arrays of
    its canonical CSR form (no duplicate, column indices ascending in each
    row, no stored zero, int32 indices where they fit), which
    :func:`canonical_csr` makes however the entries arrive; ``matrix`` is a
    ``scipy.sparse.csr_array`` over the same arrays, made on first use.
    """

    def __init__(self, shape: NetworkShape, matrix):
        dim = shape.supra_dim
        self.data, self.indices, self.indptr, _ = _nonnegative_csr(
            matrix, "supra-adjacency", (dim, dim))
        self.shape = shape.single_period()

    @classmethod
    def from_entries(cls, shape: NetworkShape, key, weights) -> "SupraAdjacency":
        """From keys row * supra_dim + col (int64, overwritten) and their
        weights (float64), both checked by the caller: in range and >= 0.
        The arrays are their :func:`canonical_csr`."""
        w = cls.__new__(cls)  # canonical already: no pass through _nonnegative_csr
        w.shape = shape.single_period()
        dim = shape.supra_dim
        w.data, w.indices, w.indptr = canonical_csr(key, weights, (dim, dim), "supra-adjacency")
        return w

    @functools.cached_property
    def matrix(self) -> sparse.csr_array:
        """The matrix as a ``scipy.sparse.csr_array`` sharing the three arrays."""
        dim = self.shape.supra_dim
        return CsrArrays(self.data, self.indices, self.indptr, (dim, dim)).scipy()

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @property
    def total_weight(self) -> float:
        return float(self.data.sum())

    def __repr__(self) -> str:
        s = self.shape
        return f"SupraAdjacency(N={s.n_nodes}, L={s.n_layers}, nnz={self.nnz})"


def aggregate_to_layers(w: SupraAdjacency) -> np.ndarray:
    """Collapse sectors: entry (a, b) is the sum of all weights from layer a+1
    to layer b+1 (0-based array over ordered layer pairs). Total mass is
    preserved exactly up to float addition order.
    """
    n, n_layers = w.shape.n_nodes, w.shape.n_layers
    rows = np.repeat(np.arange(w.indptr.size - 1), np.diff(w.indptr))
    pair = rows // n * n_layers + w.indices // n
    return np.bincount(pair, w.data, n_layers * n_layers).reshape(n_layers, n_layers)


@dataclass(frozen=True)
class EntityCodes:
    """Short code labels for sectors and countries, aligned with a NetworkShape."""

    sector_codes: tuple[str, ...]
    country_codes: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "sector_codes", tuple(self.sector_codes))
        object.__setattr__(self, "country_codes", tuple(self.country_codes))
        for name, codes in (("sector", self.sector_codes), ("country", self.country_codes)):
            if not codes:
                raise ValidationError(f"{name} code list is empty")
            if len(set(codes)) != len(codes):
                raise ValidationError(f"{name} codes are not unique")

    @property
    def n_nodes(self) -> int:
        return len(self.sector_codes)

    @property
    def n_layers(self) -> int:
        return len(self.country_codes)

    @property
    def supra_labels(self) -> list[tuple[str, str]]:
        """(country, sector) codes of every 0-based supra index, sector fastest."""
        return [(country, sector) for country in self.country_codes for sector in self.sector_codes]

    def check_shape(self, shape: NetworkShape) -> None:
        if shape.n_nodes != self.n_nodes or shape.n_layers != self.n_layers:
            raise ValidationError(
                f"code lists ({self.n_nodes} sectors, {self.n_layers} countries) do not "
                f"match shape ({shape.n_nodes} nodes, {shape.n_layers} layers)"
            )


class TemporalMultilayerNetwork:
    """Ordered sequence of supra-adjacency matrices over one node/layer universe."""

    def __init__(self, periods: Sequence[tuple[int, SupraAdjacency]]):
        periods = list(periods)
        if not periods:
            raise ValidationError("a temporal network needs at least one period")
        base = periods[0][1].shape
        labels = []
        for label, matrix in periods:
            if (matrix.shape.n_nodes, matrix.shape.n_layers) != (base.n_nodes, base.n_layers):
                raise ValidationError(
                    f"period {label} has shape {matrix.shape}, expected "
                    f"(N={base.n_nodes}, L={base.n_layers})"
                )
            labels.append(int(label))
        if any(b <= a for a, b in zip(labels, labels[1:])):
            raise ValidationError(f"period labels must be strictly increasing, got {labels}")
        self.shape = NetworkShape(base.n_nodes, base.n_layers, len(periods))
        self.periods: tuple[tuple[int, SupraAdjacency], ...] = tuple(
            (int(label), matrix) for label, matrix in periods
        )

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(label for label, _ in self.periods)

    @property
    def matrices(self) -> tuple[SupraAdjacency, ...]:
        return tuple(matrix for _, matrix in self.periods)

    def tensor_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All stored arcs as (t, row, col, weight) arrays, by :func:`stacked_entries`;
        t is the 0-based period position, not the year label."""
        return stacked_entries(self.matrices)

    @property
    def total_weight(self) -> float:
        return float(sum(m.total_weight for m in self.matrices))

    def __len__(self) -> int:
        return len(self.periods)

    def __iter__(self) -> Iterator[tuple[int, SupraAdjacency]]:
        return iter(self.periods)

    def __repr__(self) -> str:
        s = self.shape
        return (
            f"TemporalMultilayerNetwork(N={s.n_nodes}, L={s.n_layers}, T={s.n_periods}, "
            f"periods={self.labels[0]}..{self.labels[-1]})"
        )
