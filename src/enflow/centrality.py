"""Centrality scores for weighted digraphs and temporal multilayer networks.

Three families:

* eigenvector centrality of a nonnegative matrix (requires strong
  connectivity for a positive score vector);
* hub/authority scores of the alternating mutually-reinforcing recursion
  y <- W^T x, x <- W y (hubs point to good authorities, authorities are
  pointed at by good hubs); at the fixed point the hub vector is the dominant
  eigenvector of W W^T and the authority vector W^T times it;
* a five-vector extension over a temporal multilayer weight tensor that
  scores nodes (hub x, authority y), layers (broadcast b, receive z) and
  time instants (u) through one mutually reinforcing fixed point. Each score
  update sums, over the stored arcs incident to the entity, the product of
  the arc weight with the current scores of the other four dimensions,
  raised elementwise to an exponent gamma_k in (0, 1]. That power factorises
  into sparse mat-vecs on weights powered once: 8 bytes per arc per distinct gamma_k.

The first two share one power iteration, started from an ARPACK estimate of
its limit and certified by ||M x - lam x||_1 <= tol * lam.

All returned vectors are normalized to unit 1-norm, so scores read as
shares. The five-vector sweep updates x, y, b, z, u in that order using the
freshest values and renormalizes each vector right after its own update;
with uniform exponents this makes the scores invariant under global
rescaling of the weights. Entities with no incident arc anywhere in the
tensor keep score zero.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConvergenceError, NumericalError, ReducibleNetworkError, ValidationError
from .multinet import SupraAdjacency, TemporalMultilayerNetwork, _nonnegative_csr

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "EigScores",
    "HitsScores",
    "MdHitsScores",
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


def _as_csr(matrix) -> sparse.csr_array:
    """A ``scipy.sparse.csr_array`` over the arrays of a SupraAdjacency, with
    no copy, or over the square :func:`_nonnegative_csr` of any other input."""
    from scipy import sparse

    if isinstance(matrix, SupraAdjacency):
        dim = matrix.shape.supra_dim
        return sparse.csr_array((matrix.data, matrix.indices, matrix.indptr), shape=(dim, dim))
    m = _nonnegative_csr(matrix, "matrix")
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {m.shape}")
    return sparse.csr_array(m[:3], shape=m.shape)


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
    restricted once, after one component pass, to its largest strongly
    connected component, among equal ones the first that has an arc; entries
    outside the component get score zero.

    A power iteration on W + sI (s = the max column sum, so periodic
    structures still converge; the shift moves the eigenvalue, not the
    eigenvector) runs from the ARPACK Perron vector (see ``_perron_start``)
    for at most ``max_iter`` iterations, and succeeds only when
    ||W x - rho x||_1 <= tol * rho.

    Raises
    ------
    ConvergenceError
        Iteration cap reached; carries the trailing residuals
        ||W x - rho x||_1 / rho.
    """
    from scipy.sparse import csgraph  # imported here: most commands never need it

    w = _as_csr(matrix)
    if w.nnz == 0:
        raise NumericalError("eigenvector centrality is undefined for an all-zero matrix")
    dim, keep = w.shape[0], slice(None)
    n_comp, labels = csgraph.connected_components(w, directed=True, connection="strong")
    if n_comp > 1:
        if not largest_scc:
            raise ReducibleNetworkError(
                f"matrix is reducible ({n_comp} strongly connected components); "
                "restrict to the largest strongly connected component "
                "(largest_scc=True) or pass an irreducible matrix"
            )
        sizes = np.bincount(labels)
        has_arc = sizes > 1
        has_arc[labels[w.diagonal() != 0]] = True  # a one-node component: only by a self-loop
        keep = np.flatnonzero(labels == np.argmax(2 * sizes + has_arc))
        w = w[np.ix_(keep, keep)]
        if w.nnz == 0:  # only a single node without a self-loop has no arc
            raise NumericalError("eigenvector centrality is undefined on the largest strongly "
                                 f"connected component: it is node {keep[0]} alone, "
                                 "without a self-loop")

    shift = float(np.abs(w).sum(axis=0).max())
    start = _perron_start(w, symmetric=False)
    x, lam = _dominant(w, start, shift, tol, max_iter, "eigenvector power iteration")
    centrality = np.zeros(dim)
    centrality[keep] = x  # zero outside the largest component
    return EigScores(centrality, lam)


def _dominant(m, x, shift, tol, max_iter, what):
    """Dominant eigenpair (x, lam) of ``m`` by power iteration on m + shift*I
    from the unit 1-norm ``x``; certified by ||m x - lam x||_1 <= tol * lam."""
    residuals: deque[float] = deque(maxlen=10)
    for _ in range(max_iter):
        mx = m @ x
        y = mx + shift * x
        norm = y.sum()
        lam = norm - shift
        residual = float(np.abs(mx - lam * x).sum())
        residuals.append(residual / lam if lam > 0 else np.inf)
        if lam > 0 and residual <= tol * lam:
            return x, float(lam)
        x = y / norm
    raise ConvergenceError(what, tol, max_iter, "iterations", residuals)


def _perron_start(m, *, symmetric: bool) -> np.ndarray:
    """Unit 1-norm power-iteration start for ``m`` from ARPACK, whose fixed
    ``v0`` and ``rng`` keep it independent of earlier calls and the process.
    Irreducible nonnegative ``m``: |Re v| for the eigenvalue of largest real
    part, the Perron root. Symmetric positive semidefinite ``m``: the power
    iteration from the uniform vector converges to its projection onto the
    dominant eigenspace (Farahat, Lofaro, Miller, Rae & Ward, SIAM J. Sci.
    Comput. 27(4), 2006); the start is that projection, onto those of the
    k = min(4, dim - 1) top eigenvectors whose eigenvalue is within a relative
    1e-9 of the largest. Uniform when dim <= 2, when ARPACK fails or when all
    k eigenvalues tie (the multiplicity may then exceed k)."""
    from scipy.sparse import linalg as splinalg

    dim = m.shape[0]
    uniform = np.full(dim, 1.0 / dim)
    if dim <= 2:
        return uniform
    try:
        if symmetric:
            values, vectors = splinalg.eigsh(m, min(4, dim - 1), which="LA", v0=np.ones(dim), rng=0)
        else:
            values, vectors = splinalg.eigs(m, k=1, which="LR", v0=np.ones(dim), rng=0)
    except (splinalg.ArpackNoConvergence, splinalg.ArpackError):
        return uniform
    top = values.real >= (1.0 - 1e-9) * values.real.max()
    if top.size > 1 and top.all():
        return uniform
    basis = vectors[:, top].real
    # One vector is its own projection, up to sign and scale.
    x = np.abs(basis[:, 0] if basis.shape[1] == 1 else basis @ (basis.T @ uniform))
    total = x.sum()
    if not np.isfinite(total) or total <= 0:
        return uniform
    return x / total


def hits(matrix, tol: float = 1e-12, max_iter: int = 10_000) -> HitsScores:
    """Hub/authority scores of unit 1-norm: the hub vector is the limit of the
    recursion y <- W^T x, x <- W y from the uniform vector, a dominant
    eigenvector of W W^T, and the authority vector is W^T hub. The power
    iteration on W W^T starts from that limit (see ``_perron_start``) and
    must reach ||W W^T x - lam x||_1 <= tol * lam within ``max_iter``
    iterations; ConvergenceError otherwise, with the last residuals / lam."""
    from scipy.sparse import linalg as splinalg

    w = _as_csr(matrix)
    if w.nnz == 0:
        raise NumericalError("hub/authority scores are undefined for an all-zero matrix")
    wt = w.T.tocsr()
    m = splinalg.LinearOperator(w.shape, matvec=lambda x: w @ (wt @ x), dtype=np.float64)
    # One power step from the start gives rows of W without arcs an exact zero.
    start = m @ _perron_start(m, symmetric=True)
    hub, _ = _dominant(m, start / start.sum(), 0.0, tol, max_iter, "hub/authority iteration")
    authority = wt @ hub
    return HitsScores(hub=hub, authority=authority / authority.sum())


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

    An arc's term (w y_j b_a z_c u_t)^g factorises: x = sum_t u_t^g b^g R_t
    with g = gamma[0] and R_t = W_t^(g) (z^g kron y^g) read as a (layer,
    sector) array, W_t^(g) being W_t with its weights raised to g; b and u
    contract the same arrays, y and z use the CSC view W_t^(g)T. W_t^(g) shares
    indices and indptr with W_t: 8 bytes per arc for each distinct gamma entry.

    Raises
    ------
    NumericalError
        Empty network (no arc in any period).
    ConvergenceError
        Sweep cap reached; carries the trailing residuals.
    """
    from scipy import sparse

    g = _check_gamma(gamma)
    n, n_layers = net.shape.n_nodes, net.shape.n_layers
    loaded, size = net.matrices, (net.shape.supra_dim,) * 2
    if not any(w.nnz for w in loaded):
        raise NumericalError("cannot score a network with no arcs")
    powered = {}  # distinct exponent -> ([W_t^(g)], [W_t^(g)T])
    for e in set(g.tolist()):
        mats = [sparse.csr_array((w.data**e, w.indices, w.indptr), shape=size) for w in loaded]
        powered[e] = (mats, [w.T for w in mats])

    def blocks(k, transposed, layer, sector):  # R_t per period; W_t^(g)T if transposed
        e = g[k]
        v = np.multiply.outer(layer**e, sector**e).ravel()
        for w in powered[e][transposed]:
            yield (w @ v).reshape(n_layers, n)

    def normalised(new):
        total = new.sum()
        if total <= 0 or not np.isfinite(total):
            raise NumericalError("score update collapsed to zero; weights degenerate")
        return new / total

    def over_time(k, u, terms):
        return normalised(sum(ut * term for ut, term in zip(u ** g[k], terms)))

    x, y = np.full(n, 1.0 / n), np.full(n, 1.0 / n)
    b, z = np.full(n_layers, 1.0 / n_layers), np.full(n_layers, 1.0 / n_layers)
    u = np.full(len(loaded), 1.0 / len(loaded))
    residuals: deque[float] = deque(maxlen=10)
    for sweep in range(1, max_iter + 1):
        side = b ** g[0]
        x_new = over_time(0, u, (side @ r for r in blocks(0, False, z, y)))
        side = z ** g[1]
        y_new = over_time(1, u, (side @ r for r in blocks(1, True, b, x_new)))
        side = x_new ** g[2]
        b_new = over_time(2, u, (r @ side for r in blocks(2, False, z, y_new)))
        side = y_new ** g[3]
        z_new = over_time(3, u, (r @ side for r in blocks(3, True, b_new, x_new)))
        left, right = b_new ** g[4], x_new ** g[4]
        u_new = normalised(np.array([left @ r @ right for r in blocks(4, False, z_new, y_new)]))
        new = (x_new, y_new, b_new, z_new, u_new)
        residual = max(np.abs(p - q).sum() for p, q in zip(new, (x, y, b, z, u)))
        residuals.append(float(residual))
        x, y, b, z, u = new
        if residual <= tol:
            return MdHitsScores(*new, gamma=tuple(g.tolist()), iterations=sweep)
    raise ConvergenceError("five-vector iteration", tol, max_iter, "sweeps", residuals)


def md_hits_single_period(
    matrix: SupraAdjacency,
    gamma: Sequence[float] | None = None,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> MdHitsScores:
    """Five-vector scores of a single period (the time vector is trivially [1])."""
    net = TemporalMultilayerNetwork([(0, matrix)])
    return md_hits(net, gamma=gamma, tol=tol, max_iter=max_iter)


def rank(scores, labels: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``scores`` in rank order, by descending score with ties
    ordered by label, and each one's competition rank: tied scores share the
    rank of the best position."""
    values = np.asarray(scores, dtype=np.float64).reshape(-1)
    if len(values) != len(labels):
        raise ValidationError(
            f"got {len(values)} scores for {len(labels)} labels"
        )
    # An object array orders the labels as Python compares them.
    _, by_label = np.unique(np.array(labels, dtype=object), return_inverse=True)
    order = np.lexsort((by_label, -values))
    ascending = -values[order]  # a tie's first position is where its value would insert
    return order, np.searchsorted(ascending, ascending) + 1
