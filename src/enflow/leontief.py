"""Embodied energy flows from multi-region input-output accounts.

Per period, the raw accounts are the intermediate-use matrix U (monetary),
the total-output vector o (monetary), the energy-use block F (TJ, one row
per carrier), and the bilateral final-demand matrix Y (monetary). The
derived objects:

* input coefficients  a_hk = u_hk / o_k  (zero where o_k = 0);
* total requirements  x = (I - A)^-1 v, never materialized as a dense
  inverse - solved iteratively, which converges because the spectral radius
  of A is below one for a productive economy;
* the embodied flow from sector i in economy alpha to sector j in economy
  beta: the energy consumed by sector i anywhere, propagated through the
  total-requirements matrix into the output of (j, alpha), times the final
  demand of sector j traded from alpha to beta.

Arc weights are stored only when strictly positive.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, NonProductiveEconomyError, ValidationError, first_failure
from .multinet import NetworkShape, SupraAdjacency, TemporalMultilayerNetwork, _nonnegative_csr

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "SourceClass",
    "RENEWABLE_SOURCES",
    "NONRENEWABLE_SOURCES",
    "ENERGY_SOURCES",
    "ENERGY_CARRIERS",
    "MrioPeriod",
    "input_coefficients",
    "leontief_apply",
    "spectral_radius_estimate",
    "embodied_intensity",
    "embodied_flow_matrix",
    "build_temporal_network",
]

RENEWABLE_SOURCES = frozenset({"biomass_waste", "hydro", "other_renewable"})
NONRENEWABLE_SOURCES = frozenset({"coal", "natural_gas", "petroleum", "nuclear"})
# The rows of the energy block F, in this (sorted) order everywhere.
ENERGY_CARRIERS = (
    "biomass_waste", "coal", "hydro", "natural_gas", "nuclear", "other_renewable", "petroleum"
)
ENERGY_SOURCES = frozenset(ENERGY_CARRIERS)


class SourceClass(enum.Enum):
    """Partition of energy carriers into renewable and non-renewable classes."""

    ALL = "all"
    RENEWABLE = "renewable"
    NONRENEWABLE = "nonrenewable"

    @property
    def carriers(self) -> frozenset[str]:
        if self is SourceClass.RENEWABLE:
            return RENEWABLE_SOURCES
        if self is SourceClass.NONRENEWABLE:
            return NONRENEWABLE_SOURCES
        return ENERGY_SOURCES

    @property
    def rows(self) -> list[int]:
        """The class's rows of the energy block F, in ``ENERGY_CARRIERS`` order."""
        return [k for k, carrier in enumerate(ENERGY_CARRIERS) if carrier in self.carriers]

    def total(self, f: np.ndarray) -> np.ndarray:
        """The one class-sum rule: the class's rows of an energy block F, (7, M)
        or a (T, 7, M) stack, added onto 0.0 in carrier order."""
        return np.add.reduce(f[..., self.rows, :], axis=-2, initial=0.0)


class MrioPeriod:
    """One period of raw multi-region input-output accounts.

    Parameters
    ----------
    label : int
        Period label (year).
    shape : NetworkShape
        Node/layer dimensions; the supra dimension M = N*L indexes all
        (economy, sector) pairs, sector fastest.
    intermediate_use : sparse or dense M-square matrix
        u[h, k]: monetary deliveries from pair h to pair k.
    total_output : length-M vector
        o[k]: total output of pair k.
    energy_consumption : (7, M) array
        f[k, h]: technical energy consumption (TJ) of pair h from carrier
        ``ENERGY_CARRIERS[k]``, the MRIO energy block F.
    final_demand : sparse or dense M x L matrix
        y[a*N + j, b]: final demand of economy b for the goods of sector j
        from economy a (0-based), the MRIO final-demand block Y.
    """

    def __init__(
        self,
        label: int,
        shape: NetworkShape,
        intermediate_use,
        total_output,
        energy_consumption,
        final_demand,
    ):
        self.label = int(label)
        self.shape = shape.single_period()
        dim = shape.supra_dim

        u = _nonnegative_csr(intermediate_use, f"period {label}: intermediate use", (dim, dim))

        o = np.asarray(total_output, dtype=np.float64).reshape(-1)
        if o.shape != (dim,):
            raise ValidationError(f"period {label}: total output length {o.size}, expected {dim}")
        if not np.all(np.isfinite(o)) or o.min(initial=0.0) < 0:
            raise ValidationError(f"period {label}: total output must be finite and >= 0")

        col_use = np.asarray(u.sum(axis=0)).reshape(-1)
        # Column use may not exceed output (allow harmless float slack), and any use needs output.
        hit = first_failure((
            (col_use > o * (1 + 1e-9) + 1e-12, lambda k: f"uses {col_use[k]} but output is {o[k]}"),
            ((o == 0) & (col_use > 0), lambda k: "has zero output but positive intermediate use"),
        ))
        if hit is not None:
            k, message = hit
            raise ValidationError(f"period {label}: column {k} {message(k)}")

        f_shape = (len(ENERGY_CARRIERS), dim)
        try:
            f = np.asarray(energy_consumption, dtype=np.float64)
        except (TypeError, ValueError):
            f = None
        if f is None or f.shape != f_shape or not np.all(np.isfinite(f)) or f.min(initial=0.0) < 0:
            raise ValidationError(
                f"period {label}: energy consumption must be a finite array >= 0 of shape "
                f"{f_shape}, one row per carrier of ENERGY_CARRIERS"
            )

        self.intermediate_use = u
        self.total_output = o
        self.energy_consumption = f
        self.final_demand = _nonnegative_csr(
            final_demand, f"period {label}: final demand", (dim, shape.n_layers)
        )

    def __repr__(self) -> str:
        s = self.shape
        return f"MrioPeriod({self.label}, N={s.n_nodes}, L={s.n_layers})"


def input_coefficients(period: MrioPeriod) -> sparse.csr_array:
    """The input coefficients A, a_hk = u_hk / o_k: intermediate use
    column-normalized by total output (0/0 treated as 0)."""
    from scipy import sparse

    o = period.total_output
    inv = np.zeros_like(o)
    np.divide(1.0, o, out=inv, where=o > 0)
    a = period.intermediate_use @ sparse.diags_array(inv, format="csr")
    a = sparse.csr_array(a)
    a.eliminate_zeros()
    return a


def spectral_radius_estimate(matrix) -> float:
    """Power-iteration estimate of the spectral radius of a nonnegative matrix.

    Iterates 200 times on (I + A), whose dominant eigenvalue is 1 + rho(A)
    for nonnegative A regardless of periodicity; deterministic uniform start.
    """
    from scipy import sparse

    m = sparse.csr_array(matrix, dtype=np.float64)
    dim = m.shape[0]
    if m.nnz == 0:
        return 0.0
    x = np.full(dim, 1.0 / dim)
    ratio = 1.0
    for _ in range(200):
        y = x + m @ x
        total = y.sum()
        if total <= 0 or not np.isfinite(total):
            return 0.0
        ratio = total
        x = y / total
    return float(ratio - 1.0)


def leontief_apply(
    a,
    rhs,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    *,
    period: int | None = None,
):
    """Solve the total-requirements system (I - a) x = v for the matrix given.

    Parameters
    ----------
    a : sparse or dense M-square matrix
        The solve requires rho(a) < 1. Pass A for the demand side (x = L v)
        and A^T for the consumption side (x = L^T v), as
        :func:`embodied_intensity` does.
    rhs : length-M vector or (M, k) array
        Right-hand side(s); multiple columns are solved together.
    tol, max_iter
        The stationary iteration x <- v + a x stops once the residual
        1-norm of every column is <= tol * (1 + ||v||_1); it is capped at
        ``max_iter`` steps.
    period : int, optional
        Period label named in the error messages.

    Raises
    ------
    ValidationError
        If ``a`` is not M x M with M the rows of ``rhs``.
    NonProductiveEconomyError
        If the iteration fails and the spectral radius estimate is >= 1.
    ConvergenceError
        If the cap is reached while the system still looks productive.
    """
    v = np.asarray(rhs, dtype=np.float64)
    squeeze = v.ndim == 1
    if squeeze:
        v = v[:, None]
    if a.shape != (v.shape[0],) * 2:
        raise ValidationError(
            f"a must be M x M with M the rows of rhs, got a {a.shape} and {v.shape[0]} rows"
        )

    v_norm = np.abs(v).sum(axis=0)
    threshold = tol * (1.0 + v_norm)
    x = v.copy()
    ax = a @ x
    residuals: deque[float] = deque(maxlen=10)
    for _ in range(max_iter):
        x_new = v + ax
        ax_new = a @ x_new
        r = v + ax_new - x_new
        r_norm = np.abs(r).sum(axis=0)
        residuals.append(float(r_norm.max()))
        if np.all(r_norm <= threshold):
            return x_new[:, 0] if squeeze else x_new
        if not np.all(np.isfinite(r_norm)) or np.any(r_norm > 1e12 * (1.0 + v_norm)):
            break
        x, ax = x_new, ax_new

    rho = spectral_radius_estimate(a)
    where = "" if period is None else f" in period {period}"
    if rho >= 1.0 - 1e-6:
        raise NonProductiveEconomyError(
            f"input coefficients{where} have spectral radius ~{rho:.6f} >= 1; "
            "the economy is not productive",
            period=period,
        )
    raise ConvergenceError(f"total-requirements solve{where}", tol, max_iter, "iterations", residuals)


def embodied_intensity(
    period: MrioPeriod,
    source: SourceClass,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> np.ndarray:
    """Energy embodied per unit of final output, for one source class: an
    (N, M) array whose entry [i, k] is the consumption of sector i (summed
    over all the economies where i consumes) propagated into the final output
    of the receiving pair k = (economy, sector).

    One multi-column consumption-side solve on A^T (x = L^T v): column i of
    the right-hand side is the class consumption masked to sector i's
    positions, so row i of the result keeps the sending sector resolved.
    """
    n = period.shape.n_nodes
    dim = period.shape.supra_dim
    c = source.total(period.energy_consumption)
    if not c.any():
        return np.zeros((n, dim))
    rhs = np.zeros((dim, n))
    sector_of = np.arange(dim) % n
    rhs[np.arange(dim), sector_of] = c
    solved = leontief_apply(
        input_coefficients(period).T.tocsr(), rhs, tol, max_iter, period=period.label
    )
    return np.ascontiguousarray(solved.T)


def embodied_flow_matrix(
    period: MrioPeriod,
    source: SourceClass,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> SupraAdjacency:
    """Assemble the supra-adjacency of embodied energy flows for one period.

    The arc from (sector i, economy a) to (sector j, economy b) weighs
    intensity(i -> (j, a)) * y[a*N + j, b]; zero products are not stored.
    """
    n = period.shape.n_nodes
    dim = period.shape.supra_dim
    by_sector = embodied_intensity(period, source, tol=tol, max_iter=max_iter)
    y = period.final_demand.tocoo()
    # Demand entry (r = a*N + j, b) reaches N arcs, one from each sector i of
    # a, at key (a*N + i) * dim + b*N + j. Made economy by economy from the
    # entries in key order, the keys ascend, so the canonical CSR needs no sort.
    base = (y.row - y.row % n).astype(np.int64) * dim + y.col * n + y.row % n  # key at i = 0
    order = np.argsort(base)
    parts = np.split(order, np.searchsorted(base[order], np.arange(1, dim // n) * n * dim))
    key = np.concatenate([(base[p] + (np.arange(n) * dim)[:, None]).ravel() for p in parts])
    weights = np.concatenate([(by_sector[:, y.row[p]] * y.data[p]).ravel() for p in parts])
    return SupraAdjacency.from_entries(period.shape, key, weights)


def build_temporal_network(
    periods: Sequence[MrioPeriod] | Iterable[MrioPeriod],
    source: SourceClass,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> TemporalMultilayerNetwork:
    """Build one supra-adjacency per period, ordered by period label."""
    return TemporalMultilayerNetwork([
        (p.label, embodied_flow_matrix(p, source, tol=tol, max_iter=max_iter))
        for p in sorted(periods, key=lambda p: p.label)
    ])
