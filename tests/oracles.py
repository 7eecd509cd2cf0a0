"""Independent reference implementations used to check the library.

Everything here is deliberately naive: dense explicit inverses, quintuple
Python loops, exhaustive cut enumeration and a direct LP formulation. None
of it shares code with the package under test.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

# The carrier partition, pinned independently of the package constants.
RENEWABLE = ("biomass_waste", "hydro", "other_renewable")
NONRENEWABLE = ("coal", "natural_gas", "petroleum", "nuclear")


def class_consumption(energy_consumption: dict, dim: int, carriers) -> np.ndarray:
    total = np.zeros(dim)
    for carrier in carriers:
        if carrier in energy_consumption:
            total = total + np.asarray(energy_consumption[carrier], dtype=float)
    return total


def dense_embodied_flows(
    n: int,
    n_layers: int,
    use_dense: np.ndarray,
    output: np.ndarray,
    consumption: np.ndarray,
    demand: dict,
) -> np.ndarray:
    """Termwise evaluation of the embodied-flow formula with an explicit
    dense inverse of (I - A). ``demand`` maps (sector j, economy a,
    economy b) to a value; the returned matrix is indexed h = a*n + i,
    k = b*n + j (0-based, sector fastest)."""
    dim = n * n_layers
    a = np.zeros((dim, dim))
    for k in range(dim):
        if output[k] > 0:
            a[:, k] = use_dense[:, k] / output[k]
    requirements = np.linalg.inv(np.eye(dim) - a)
    w = np.zeros((dim, dim))
    for (j, al, be), dval in demand.items():
        for i in range(n):
            bracket = 0.0
            for e in range(n_layers):
                bracket += consumption[e * n + i] * requirements[e * n + i, al * n + j]
            q = bracket * dval
            if q > 0:
                w[al * n + i, be * n + j] += q
    return w


def neumann_series(a_dense: np.ndarray, v: np.ndarray, terms: int = 60) -> np.ndarray:
    """Truncated power series sum_{p<=terms} A^p v."""
    x = v.astype(float).copy()
    term = v.astype(float).copy()
    for _ in range(terms):
        term = a_dense @ term
        x = x + term
    return x


def dense_hits(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dominant eigenvectors of W W^T (hub) and W^T W (authority) via a
    dense symmetric eigensolver, 1-norm normalized."""
    def dominant(m):
        vals, vecs = np.linalg.eigh(m)
        v = np.abs(vecs[:, -1])
        return v / v.sum()

    return dominant(w @ w.T), dominant(w.T @ w)


def dense_hits_projection(w: np.ndarray, rel: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Limit of the alternating recursion from the uniform hub vector, via a
    dense symmetric eigensolver. The hub vector is the orthogonal projection
    of the uniform vector onto the dominant eigenspace of W W^T (the
    eigenvectors whose eigenvalue lies within a relative ``rel`` of the
    largest), the authority vector W^T times it; both 1-norm normalized.
    Unlike ``dense_hits`` it holds when the top eigenvalue is repeated."""
    vals, vecs = np.linalg.eigh(w @ w.T)
    top = vecs[:, vals >= (1.0 - rel) * vals[-1]]
    uniform = np.full(w.shape[0], 1.0 / w.shape[0])
    hub = top @ (top.T @ uniform)
    authority = w.T @ hub
    return hub / hub.sum(), authority / authority.sum()


def naive_md_hits(
    n: int,
    n_layers: int,
    n_periods: int,
    weights: np.ndarray,
    gamma,
    tol: float = 1e-12,
    max_iter: int = 5000,
):
    """Plain-loop fixed point of the five-vector recursion.

    ``weights`` is the dense (T, N*L, N*L) stack of supra matrices. The sweep
    order, the use of fresh values and the per-vector 1-norm normalization
    match the documented iteration contract; everything else is naive.
    """
    g1, g2, g3, g4, g5 = gamma
    x = [1.0 / n] * n
    y = [1.0 / n] * n
    b = [1.0 / n_layers] * n_layers
    z = [1.0 / n_layers] * n_layers
    u = [1.0 / n_periods] * n_periods

    entries = []
    for t in range(n_periods):
        for h in range(n * n_layers):
            for k in range(n * n_layers):
                wv = weights[t, h, k]
                if wv > 0:
                    entries.append((t, h // n, h % n, k // n, k % n, wv))

    def norm1(vec):
        total = sum(vec)
        return [v / total for v in vec]

    for sweep in range(max_iter):
        x_new = [0.0] * n
        for t, a, i, be, j, wv in entries:
            x_new[i] += (wv * y[j] * b[a] * z[be] * u[t]) ** g1
        x_new = norm1(x_new)
        y_new = [0.0] * n
        for t, a, i, be, j, wv in entries:
            y_new[j] += (wv * x_new[i] * b[a] * z[be] * u[t]) ** g2
        y_new = norm1(y_new)
        b_new = [0.0] * n_layers
        for t, a, i, be, j, wv in entries:
            b_new[a] += (wv * x_new[i] * y_new[j] * z[be] * u[t]) ** g3
        b_new = norm1(b_new)
        z_new = [0.0] * n_layers
        for t, a, i, be, j, wv in entries:
            z_new[be] += (wv * x_new[i] * y_new[j] * b_new[a] * u[t]) ** g4
        z_new = norm1(z_new)
        u_new = [0.0] * n_periods
        for t, a, i, be, j, wv in entries:
            u_new[t] += (wv * x_new[i] * y_new[j] * b_new[a] * z_new[be]) ** g5
        u_new = norm1(u_new)

        delta = max(
            sum(abs(p - q) for p, q in zip(x_new, x)),
            sum(abs(p - q) for p, q in zip(y_new, y)),
            sum(abs(p - q) for p, q in zip(b_new, b)),
            sum(abs(p - q) for p, q in zip(z_new, z)),
            sum(abs(p - q) for p, q in zip(u_new, u)),
        )
        x, y, b, z, u = x_new, y_new, b_new, z_new, u_new
        if delta <= tol:
            break
    return (np.array(x), np.array(y), np.array(b), np.array(z), np.array(u))


def min_cut_value(node_count: int, arcs, source: int, target: int) -> float:
    """Exhaustive enumeration of s-t cuts; the minimum equals the max flow."""
    others = [v for v in range(node_count) if v not in (source, target)]
    best = np.inf
    for bits in range(1 << len(others)):
        side = {source}
        for i, v in enumerate(others):
            if bits >> i & 1:
                side.add(v)
        cut = sum(c for a, b, c in arcs if a in side and b not in side)
        best = min(best, cut)
    return float(best)


def lp_max_flow(node_count: int, arcs, source: int, target: int) -> float:
    """Max flow as a linear program: maximize the net outflow of the source
    subject to conservation at the interior nodes and the capacity bounds."""
    m = len(arcs)
    if m == 0:
        return 0.0
    c = np.zeros(m)
    for e, (tail, head, _) in enumerate(arcs):
        if tail == source:
            c[e] -= 1.0
        if head == source:
            c[e] += 1.0
    rows = []
    for v in range(node_count):
        if v in (source, target):
            continue
        row = np.zeros(m)
        for e, (tail, head, _) in enumerate(arcs):
            if head == v:
                row[e] += 1.0
            if tail == v:
                row[e] -= 1.0
        rows.append(row)
    a_eq = np.vstack(rows) if rows else None
    b_eq = np.zeros(len(rows)) if rows else None
    bounds = [(0.0, cap) for _, _, cap in arcs]
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(-res.fun)
