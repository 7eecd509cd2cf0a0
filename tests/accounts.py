"""Final demand in the oracles' form."""


def demand_dict(period) -> dict[tuple[int, int, int], float]:
    """Stored entries of ``period.final_demand`` as {(sector j, economy a, economy b): value},
    the form of ``oracles.dense_embodied_flows``: y[a*N + j, b] is the demand of b for the
    goods of sector j from economy a."""
    y = period.final_demand.tocoo()
    a, j = divmod(y.row, period.shape.n_nodes)
    return dict(zip(zip(j.tolist(), a.tolist(), y.col.tolist()), y.data.tolist()))
