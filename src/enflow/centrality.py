"""Centrality scores for weighted digraphs and temporal multilayer networks.

Three families:

* eigenvector centrality of a nonnegative matrix (a power iteration from an
  Arnoldi start vector; requires strong connectivity for a positive score
  vector);
* hub/authority scores from the alternating mutually-reinforcing recursion
  y <- W^T x, x <- W y (hubs point to good authorities, authorities are
  pointed at by good hubs); at the fixed point the hub vector is the dominant
  eigenvector of W W^T and the authority vector that of W^T W;
* a five-vector extension over a temporal multilayer weight tensor that
  scores nodes (hub x, authority y), layers (broadcast b, receive z) and
  time instants (u) through one mutually reinforcing fixed point. Each score
  update sums, over the stored arcs incident to the entity, the product of
  the arc weight with the current scores of the other four dimensions,
  raised elementwise to an exponent gamma_k in (0, 1].

All returned vectors are normalized to unit 1-norm, so scores read as
shares. The five-vector sweep updates x, y, b, z, u in that order using the
freshest values and renormalizes each vector right after its own update;
with uniform exponents this makes the scores invariant under global
rescaling of the weights. Entities with no incident arc anywhere in the
tensor keep score zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse import linalg as splinalg

from .errors import ConvergenceError, NumericalError, ReducibleNetworkError, ValidationError
from .multinet import SupraAdjacency, TemporalMultilayerNetwork, _nonnegative_csr

__all__ = [
    "EigScores",
    "HitsScores",
    "MdHitsScores",
    "RankingTable",
    "eigenvector_centrality",
    "hits",
    "md_hits",
    "md_hits_single_period",
    "rank",
]

DEFAULT_GAMMA = (0.2, 0.2, 0.2, 0.2, 0.2)


@dataclass(frozen=True)
class EigScores:
    """Dominant-eigenvector centrality plus the spectral radius it belongs to."""

    centrality: np.ndarray
    spectral_radius: float


@dataclass(frozen=True)
class HitsScores:
    """Hub and authority score vectors, each of unit 1-norm."""

    hub: np.ndarray
    authority: np.ndarray


@dataclass(frozen=True)
class MdHitsScores:
    """Five mutually reinforcing score vectors over a temporal multilayer network."""

    node_hub: np.ndarray
    node_authority: np.ndarray
    layer_broadcast: np.ndarray
    layer_receive: np.ndarray
    time: np.ndarray
    gamma: tuple[float, ...]
    iterations: int = 0

    def as_dict(self) -> dict[str, np.ndarray]:
        return {
            "node_hub": self.node_hub,
            "node_authority": self.node_authority,
            "layer_broadcast": self.layer_broadcast,
            "layer_receive": self.layer_receive,
            "time": self.time,
        }


@dataclass(frozen=True)
class RankingRow:
    rank: int
    label: str
    score: float


@dataclass(frozen=True)
class RankingTable:
    """Labels sorted by descending score; ties share a rank and sort by label."""

    rows: tuple[RankingRow, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


def _as_csr(matrix) -> sparse.csr_array:
    if isinstance(matrix, SupraAdjacency):
        return matrix.matrix
    m = _nonnegative_csr(matrix, "matrix")
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {m.shape}")
    return m


def eigenvector_centrality(
    matrix,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    *,
    largest_scc: bool = False,
) -> EigScores:
    """Eigenvector centrality of a nonnegative square matrix.

    The matrix must be strongly connected for the dominant eigenvector to be
    positive and unique. With ``largest_scc=True`` a reducible matrix is
    restricted to its largest strongly connected component; entries outside
    the component get score zero.

    The start vector is ARPACK's eigenvector for the eigenvalue of largest
    real part, which on an irreducible nonnegative matrix is the Perron root
    (uniform start for dim <= 2 or when ARPACK fails). A power iteration on
    W + sI (s = the max column sum, so periodic structures still converge;
    the shift moves the eigenvalue, not the eigenvector) then runs from it
    for at most ``max_iter`` iterations, and succeeds only when
    ||W x - rho x||_1 <= tol * rho.

    Raises
    ------
    ConvergenceError
        Iteration cap reached; carries the trailing residuals
        ||W x - rho x||_1 / rho.
    """
    w = _as_csr(matrix)
    if w.nnz == 0:
        raise NumericalError("eigenvector centrality is undefined for an all-zero matrix")
    dim = w.shape[0]
    n_comp, labels = csgraph.connected_components(w, directed=True, connection="strong")
    if n_comp > 1:
        if not largest_scc:
            raise ReducibleNetworkError(
                f"matrix is reducible ({n_comp} strongly connected components); "
                "restrict to the largest strongly connected component "
                "(largest_scc=True) or pass an irreducible matrix"
            )
        keep = np.flatnonzero(labels == np.bincount(labels).argmax())
        inner = eigenvector_centrality(w[np.ix_(keep, keep)], tol=tol, max_iter=max_iter)
        full = np.zeros(dim)
        full[keep] = inner.centrality
        return EigScores(centrality=full, spectral_radius=inner.spectral_radius)

    shift = float(np.abs(w).sum(axis=0).max())
    x = _perron_start(w)
    residuals: list[float] = []
    for _ in range(max_iter):
        wx = w @ x
        y = wx + shift * x
        norm = y.sum()
        rho = norm - shift
        residual = float(np.abs(wx - rho * x).sum())
        residuals.append(residual / rho if rho > 0 else np.inf)
        if rho > 0 and residual <= tol * rho:
            return EigScores(centrality=x, spectral_radius=float(rho))
        x = y / norm
    last = f"{residuals[-1]:.3e}" if residuals else "n/a"
    raise ConvergenceError(
        f"power iteration did not converge to tolerance {tol} in {max_iter} "
        f"iterations (last residual {last})",
        residuals=residuals[-10:],
    )


def _perron_start(w: sparse.csr_array) -> np.ndarray:
    """Unit 1-norm start vector for the power iteration on irreducible ``w``:
    |Re v| of ARPACK's eigenvector for the eigenvalue of largest real part,
    or uniform when dim <= 2 (ARPACK needs k < dim - 1) or ARPACK fails.

    ``v0`` and ``rng`` are fixed, so the start (and the scores) do not depend
    on earlier calls or on the process."""
    dim = w.shape[0]
    uniform = np.full(dim, 1.0 / dim)
    if dim <= 2:
        return uniform
    try:
        _, vectors = splinalg.eigs(w, k=1, which="LR", v0=np.ones(dim), rng=0)
    except (splinalg.ArpackNoConvergence, splinalg.ArpackError):
        return uniform
    x = np.abs(vectors[:, 0].real)
    total = x.sum()
    if not np.isfinite(total) or total <= 0:
        return uniform
    return x / total


def hits(matrix, tol: float = 1e-12, max_iter: int = 10_000) -> HitsScores:
    """Hub/authority scores by the alternating recursion with 1-norm scaling.

    Converged when both score vectors move by less than ``tol`` in 1-norm
    over a full iteration.
    """
    w = _as_csr(matrix)
    if w.nnz == 0:
        raise NumericalError("hub/authority scores are undefined for an all-zero matrix")
    wt = w.T.tocsr()
    dim = w.shape[0]
    x = np.full(dim, 1.0 / dim)
    y = np.zeros(dim)
    residuals: list[float] = []
    for _ in range(max_iter):
        y_new = wt @ x
        norm_y = y_new.sum()
        if norm_y <= 0:
            raise NumericalError("authority update collapsed to zero")
        y_new /= norm_y
        x_new = w @ y_new
        norm_x = x_new.sum()
        if norm_x <= 0:
            raise NumericalError("hub update collapsed to zero")
        x_new /= norm_x
        residual = max(np.abs(x_new - x).sum(), np.abs(y_new - y).sum())
        residuals.append(float(residual))
        x, y = x_new, y_new
        if residual <= tol:
            return HitsScores(hub=x, authority=y)
    last = f"{residuals[-1]:.3e}" if residuals else "n/a"
    raise ConvergenceError(
        f"hub/authority iteration did not reach tolerance {tol} in {max_iter} "
        f"iterations (last residual {last})",
        residuals=residuals[-10:],
    )


def _check_gamma(gamma) -> np.ndarray:
    g = np.asarray(DEFAULT_GAMMA if gamma is None else gamma, dtype=np.float64)
    if g.shape != (5,):
        raise ValidationError(f"gamma must have exactly 5 entries, got shape {g.shape}")
    if not np.all((g > 0) & (g <= 1)):
        raise ValidationError(f"every gamma entry must lie in (0, 1], got {g.tolist()}")
    return g


def md_hits(
    net: TemporalMultilayerNetwork,
    gamma: Sequence[float] | None = None,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> MdHitsScores:
    """Five-vector hub/authority/broadcast/receive/time scores of a temporal
    multilayer network.

    Sweeps the five update sums in the order x, y, b, z, u with the freshest
    values, renormalizing each vector to unit 1-norm after its own update,
    until the largest 1-norm change over a full sweep is <= ``tol``.

    Raises
    ------
    ValidationError
        Empty network (no arc in any period).
    ConvergenceError
        Sweep cap reached; carries the trailing residuals.
    """
    g = _check_gamma(gamma)
    n = net.shape.n_nodes
    n_layers = net.shape.n_layers
    n_periods = net.shape.n_periods
    t_idx, rows, cols, weights = net.tensor_entries()
    if weights.size == 0:
        raise ValidationError("cannot score an empty network (no arcs in any period)")

    src_sector = rows % n
    dst_sector = cols % n
    src_layer = rows // n
    dst_layer = cols // n

    x = np.full(n, 1.0 / n)
    y = np.full(n, 1.0 / n)
    b = np.full(n_layers, 1.0 / n_layers)
    z = np.full(n_layers, 1.0 / n_layers)
    u = np.full(n_periods, 1.0 / n_periods)

    def contract(values, out_index, out_size, exponent):
        new = np.bincount(out_index, weights=values**exponent, minlength=out_size)
        total = new.sum()
        if total <= 0 or not np.isfinite(total):
            raise NumericalError("score update collapsed to zero; weights degenerate")
        return new / total

    residuals: list[float] = []
    for sweep in range(1, max_iter + 1):
        layer_time = b[src_layer] * z[dst_layer] * u[t_idx]
        x_new = contract(weights * y[dst_sector] * layer_time, src_sector, n, g[0])
        y_new = contract(weights * x_new[src_sector] * layer_time, dst_sector, n, g[1])
        pair = weights * x_new[src_sector] * y_new[dst_sector]
        b_new = contract(pair * z[dst_layer] * u[t_idx], src_layer, n_layers, g[2])
        z_new = contract(pair * b_new[src_layer] * u[t_idx], dst_layer, n_layers, g[3])
        u_new = contract(pair * b_new[src_layer] * z_new[dst_layer], t_idx, n_periods, g[4])
        residual = max(
            np.abs(x_new - x).sum(),
            np.abs(y_new - y).sum(),
            np.abs(b_new - b).sum(),
            np.abs(z_new - z).sum(),
            np.abs(u_new - u).sum(),
        )
        residuals.append(float(residual))
        x, y, b, z, u = x_new, y_new, b_new, z_new, u_new
        if residual <= tol:
            return MdHitsScores(
                node_hub=x,
                node_authority=y,
                layer_broadcast=b,
                layer_receive=z,
                time=u,
                gamma=tuple(g.tolist()),
                iterations=sweep,
            )
    last = f"{residuals[-1]:.3e}" if residuals else "n/a"
    raise ConvergenceError(
        f"five-vector iteration did not reach tolerance {tol} in {max_iter} sweeps "
        f"(last residual {last})",
        residuals=residuals[-10:],
    )


def md_hits_single_period(
    matrix: SupraAdjacency,
    gamma: Sequence[float] | None = None,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> MdHitsScores:
    """Five-vector scores of a single period (the time vector is trivially [1])."""
    net = TemporalMultilayerNetwork([(0, matrix)])
    return md_hits(net, gamma=gamma, tol=tol, max_iter=max_iter)


def rank(scores, labels: Sequence[str]) -> RankingTable:
    """Sort labels by descending score; ties share a rank and order by label."""
    values = np.asarray(scores, dtype=np.float64).reshape(-1)
    if len(values) != len(labels):
        raise ValidationError(
            f"got {len(values)} scores for {len(labels)} labels"
        )
    order = sorted(range(len(values)), key=lambda idx: (-values[idx], labels[idx]))
    rows = []
    for position, idx in enumerate(order):
        score = float(values[idx])
        # Competition ranking: tied scores share the best position.
        if position > 0 and score == rows[-1].score:
            rank_value = rows[-1].rank
        else:
            rank_value = position + 1
        rows.append(RankingRow(rank=rank_value, label=str(labels[idx]), score=score))
    return RankingTable(rows=tuple(rows))
