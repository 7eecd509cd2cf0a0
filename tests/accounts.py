"""Final demand and energy use in the oracles' form, small supra-adjacency
matrices from their entries, and SciPy matrices over held arrays."""

import numpy as np
from scipy import sparse

from enflow.leontief import ENERGY_CARRIERS
from enflow.multinet import SupraAdjacency


def demand_dict(period) -> dict[tuple[int, int, int], float]:
    """Stored entries of ``period.y`` as {(sector j, economy a, economy b): value},
    the form of ``oracles.dense_embodied_flows``: y[a*N + j, b] is the demand of b for the
    goods of sector j from economy a."""
    y = csr(period.y).tocoo()
    a, j = divmod(y.row, period.shape.n_nodes)
    return dict(zip(zip(j.tolist(), a.tolist(), y.col.tolist()), y.data.tolist()))


def energy_dict(period) -> dict[str, np.ndarray]:
    """Energy use as {carrier: length-M vector} over the carriers with any
    use, the form of ``oracles.class_consumption``."""
    return {carrier: row for carrier, row in zip(ENERGY_CARRIERS, period.energy_consumption)
            if row.any()}


def energy_array(dim: int, **use) -> np.ndarray:
    """The (7, dim) energy block with the named carriers' rows, zero elsewhere."""
    f = np.zeros((len(ENERGY_CARRIERS), dim))
    for carrier, row in use.items():
        f[ENERGY_CARRIERS.index(carrier)] = row
    return f


def supra(shape, entries) -> SupraAdjacency:
    """``SupraAdjacency(shape, coo)`` of the (row, col, weight) ``entries``."""
    dim = shape.supra_dim
    r, c, x = np.array(entries, dtype=np.float64).reshape(-1, 3).T
    return SupraAdjacency(shape, sparse.coo_array((x, (r.astype(int), c.astype(int))),
                                                  shape=(dim, dim)))


def csr(m) -> sparse.csr_array:
    """A ``SupraAdjacency`` or ``CsrArrays`` as a ``scipy.sparse.csr_array`` over its arrays."""
    shape = (m.shape.supra_dim,) * 2 if isinstance(m, SupraAdjacency) else m.shape
    return sparse.csr_array((m.data, m.indices, m.indptr), shape=shape)
