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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .errors import ConvergenceError, NonProductiveEconomyError, ValidationError, first_failure
from .multinet import NetworkShape, SupraAdjacency, TemporalMultilayerNetwork, _nonnegative_csr

__all__ = [
    "SourceClass",
    "RENEWABLE_SOURCES",
    "NONRENEWABLE_SOURCES",
    "ENERGY_SOURCES",
    "ENERGY_CARRIERS",
    "MrioPeriod",
    "InputCoefficients",
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

    def consumption_for(self, source: SourceClass) -> np.ndarray:
        """Total consumption vector of one source class (:meth:`SourceClass.total`)."""
        return source.total(self.energy_consumption)

    def __repr__(self) -> str:
        s = self.shape
        return f"MrioPeriod({self.label}, N={s.n_nodes}, L={s.n_layers})"


@dataclass(frozen=True)
class InputCoefficients:
    """Sparse input-coefficient matrix A with a_hk = u_hk / o_k."""

    matrix: sparse.csr_array
    period_label: int | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def input_coefficients(period: MrioPeriod) -> InputCoefficients:
    """Column-normalize intermediate use by total output (0/0 treated as 0)."""
    o = period.total_output
    inv = np.zeros_like(o)
    np.divide(1.0, o, out=inv, where=o > 0)
    a = period.intermediate_use @ sparse.diags_array(inv, format="csr")
    a = sparse.csr_array(a)
    a.eliminate_zeros()
    return InputCoefficients(matrix=a, period_label=period.label)


def spectral_radius_estimate(matrix, iters: int = 200) -> float:
    """Power-iteration estimate of the spectral radius of a nonnegative matrix.

    Iterates on (I + A), whose dominant eigenvalue is 1 + rho(A) for
    nonnegative A regardless of periodicity; deterministic uniform start.
    """
    m = sparse.csr_array(matrix, dtype=np.float64)
    dim = m.shape[0]
    if m.nnz == 0:
        return 0.0
    x = np.full(dim, 1.0 / dim)
    ratio = 1.0
    for _ in range(iters):
        y = x + m @ x
        total = y.sum()
        if total <= 0 or not np.isfinite(total):
            return 0.0
        ratio = total
        x = y / total
    return float(ratio - 1.0)


def leontief_apply(
    coeffs: InputCoefficients,
    rhs,
    transpose: bool = False,
    tol: float = 1e-10,
    max_iter: int = 10_000,
):
    """Solve the total-requirements system (I - A) x = v, or (I - A^T) x = v.

    Parameters
    ----------
    coeffs : InputCoefficients
        Coefficient matrix A; the solve requires rho(A) < 1.
    rhs : length-M vector or (M, k) array
        Right-hand side(s); multiple columns are solved together.
    transpose : bool
        Solve against A^T instead of A. The transposed direction applies the
        requirements matrix on the consumption side (x = L^T v), the plain
        direction on the demand side (x = L v).
    tol, max_iter
        The stationary iteration x <- v + A x stops once the residual
        1-norm of every column is <= tol * (1 + ||v||_1); it is capped at
        ``max_iter`` steps.

    Raises
    ------
    NonProductiveEconomyError
        If the iteration fails and the spectral radius estimate is >= 1.
    ConvergenceError
        If the cap is reached while the system still looks productive.
    """
    a = coeffs.matrix.T.tocsr() if transpose else coeffs.matrix
    v = np.asarray(rhs, dtype=np.float64)
    squeeze = v.ndim == 1
    if squeeze:
        v = v[:, None]
    if v.shape[0] != coeffs.dim:
        raise ValidationError(f"rhs has {v.shape[0]} rows, expected {coeffs.dim}")

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

    rho = spectral_radius_estimate(coeffs.matrix)
    where = "" if coeffs.period_label is None else f" in period {coeffs.period_label}"
    if rho >= 1.0 - 1e-6:
        raise NonProductiveEconomyError(
            f"input coefficients{where} have spectral radius ~{rho:.6f} >= 1; "
            "the economy is not productive",
            period=coeffs.period_label,
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

    One multi-column transposed solve: column i of the right-hand side is the
    class consumption masked to sector i's positions, so row i of the result
    keeps the sending sector resolved.
    """
    n = period.shape.n_nodes
    dim = period.shape.supra_dim
    c = period.consumption_for(source)
    if not c.any():
        return np.zeros((n, dim))
    coeffs = input_coefficients(period)
    rhs = np.zeros((dim, n))
    sector_of = np.arange(dim) % n
    rhs[np.arange(dim), sector_of] = c
    solved = leontief_apply(coeffs, rhs, transpose=True, tol=tol, max_iter=max_iter)
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
    by_sector = embodied_intensity(period, source, tol=tol, max_iter=max_iter)
    y = period.final_demand.tocoo()
    # Demand entry (r = a*N + j, b) reaches N arcs, one from each sector i of a.
    rows = (y.row - y.row % n) + np.arange(n)[:, None]
    cols = np.broadcast_to(y.col * n + y.row % n, rows.shape)
    vals = by_sector[:, y.row] * y.data
    dim = period.shape.supra_dim
    m = sparse.coo_array((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(dim, dim))
    return SupraAdjacency(period.shape, m)


def build_temporal_network(
    periods: Sequence[MrioPeriod] | Iterable[MrioPeriod],
    source: SourceClass,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> TemporalMultilayerNetwork:
    """Build one supra-adjacency per period, ordered by period label."""
    period_list = sorted(periods, key=lambda p: p.label)
    if not period_list:
        raise ValidationError("no periods to build from")
    base = period_list[0].shape
    for p in period_list:
        if (p.shape.n_nodes, p.shape.n_layers) != (base.n_nodes, base.n_layers):
            raise ValidationError(
                f"period {p.label} has shape {p.shape}, expected (N={base.n_nodes}, "
                f"L={base.n_layers})"
            )
    built = [
        (p.label, embodied_flow_matrix(p, source, tol=tol, max_iter=max_iter))
        for p in period_list
    ]
    return TemporalMultilayerNetwork(built)
