import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from enflow import (
    MrioPeriod,
    NetworkShape,
    SupraAdjacency,
    TemporalMultilayerNetwork,
    EntityCodes,
    ValidationError,
    aggregate_to_layers,
    eigenvector_centrality,
    hits,
)

from enflow.centrality import _as_csr
from enflow.errors import first_failure
from enflow.flowcrit import FlowNetwork
from enflow.multinet import merged, stacked_entries

from accounts import energy_array, supra


def test_shape_validation():
    with pytest.raises(ValidationError):
        NetworkShape(0, 1, 1)
    assert NetworkShape(26, 189, 27).supra_dim == 26 * 189


def test_supra_rejects_negative_and_drops_zeros():
    shape = NetworkShape(2, 2)
    with pytest.raises(ValidationError):
        supra(shape, [(0, 1, -1.0)])
    w = supra(shape, [(0, 1, 0.0), (1, 2, 3.0)])
    assert w.nnz == 1
    assert w.matrix[0, 1] == 0.0
    assert w.matrix[1, 2] == 3.0


NO_ENERGY = energy_array(1)
WEIGHT_MATRIX_TAKERS = {
    "intermediate use":
        lambda m: MrioPeriod(2000, NetworkShape(1, 1), m, [1.0], NO_ENERGY, [[0.0]]),
    "final demand": lambda m: MrioPeriod(2000, NetworkShape(1, 1), [[0.0]], [1.0], NO_ENERGY, m),
    "supra-adjacency": lambda m: SupraAdjacency(NetworkShape(1, 1), m),
    "hits": hits,
    "eig": eigenvector_centrality,
}


@pytest.mark.parametrize("taker", WEIGHT_MATRIX_TAKERS)
@pytest.mark.parametrize("matrix", [{}, {(0, 0, 1): 1.0}, None, "abc", [[1, 2], [3]], np.ones(2)],
                         ids=["empty-dict", "key-dict", "none", "str", "ragged", "1d"])
def test_non_matrix_weights_are_validation_errors(taker, matrix):
    with pytest.raises(ValidationError):
        WEIGHT_MATRIX_TAKERS[taker](matrix)


def tangled_csr():
    """[[0, 2], [1, 0]] as a CSR with unsorted indices and a stored zero."""
    return sparse.csr_array(
        (np.array([2.0, 0.0, 1.0]), np.array([1, 0, 0]), np.array([0, 2, 3])), shape=(2, 2)
    )


TWO_LAYERS = NetworkShape(1, 2)
TWO_BY_TWO_TAKERS = {
    "intermediate use": lambda m: MrioPeriod(2000, TWO_LAYERS, m, [9.0, 9.0], energy_array(2),
                                              np.zeros((2, 2))),
    "final demand": lambda m: MrioPeriod(2000, TWO_LAYERS, np.zeros((2, 2)), [1.0, 1.0],
                                          energy_array(2), m),
    "supra-adjacency": lambda m: SupraAdjacency(TWO_LAYERS, m),
    "hits": hits,
    "eig": eigenvector_centrality,
}


@pytest.mark.parametrize("taker", TWO_BY_TWO_TAKERS)
def test_weight_matrix_input_is_left_unchanged(taker):
    m = tangled_csr()
    TWO_BY_TWO_TAKERS[taker](m)
    assert m.data.tolist() == [2.0, 0.0, 1.0]
    assert m.indices.tolist() == [1, 0, 0]
    assert m.indptr.tolist() == [0, 2, 3]


def from_csr_entries(m):
    """``from_entries`` on the keys and weights of the CSR ``m``'s stored
    entries, in storage order."""
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    return SupraAdjacency.from_entries(TWO_LAYERS, rows * m.shape[1] + m.indices, m.data)


@pytest.mark.parametrize("taker", [*TWO_BY_TWO_TAKERS.values(), from_csr_entries],
                         ids=[*TWO_BY_TWO_TAKERS, "from entries"])
def test_duplicates_that_sum_past_the_float_range_are_rejected(taker):
    m = sparse.csr_array(([1e308, 1e308], [1, 1], [0, 2, 2]), shape=(2, 2))
    names = r"(period 2000: intermediate use|period 2000: final demand|supra-adjacency|matrix)"
    with pytest.raises(ValidationError, match=f"^{names} must be finite and >= 0$"):
        taker(m)


def test_weight_matrix_is_canonical_and_a_supra_adjacency_is_scored_as_held():
    w = SupraAdjacency(TWO_LAYERS, tangled_csr())
    m = w.matrix
    assert m.has_canonical_format and m.data.tolist() == [2.0, 1.0]
    assert m.toarray().tolist() == [[0.0, 2.0], [1.0, 0.0]]
    assert m.indptr.dtype == m.indices.dtype == np.int32
    assert _as_csr(w) is m


def input_order_sums(keys, values):
    """Each key's values summed in input order from 0.0, by plain Python."""
    sums = {}
    for key, x in zip(keys, values):
        sums[key] = sums.get(key, 0.0) + x
    return sums


def test_one_summation_order_for_every_entry_point():
    """20 entries in one row: more than SciPy's sort keeps stable."""
    rng = np.random.default_rng(0)
    cols = rng.integers(0, 6, 20)
    weights = rng.choice([0.1, 0.2, 0.3, 0.7, 1 / 3, 1e-9, 1e9], 20)
    sums = input_order_sums(cols.tolist(), weights.tolist())
    expected = [sums[c] for c in sorted(sums)]
    shape = NetworkShape(6, 1)
    coo = sparse.coo_array((weights, (np.zeros(20, dtype=int), cols)), shape=(6, 6))
    period = MrioPeriod(2000, shape, coo, np.full(6, 1e11), energy_array(6), np.zeros((6, 1)))
    network = FlowNetwork(7, np.column_stack((np.full(20, 6), cols, weights)))
    assert SupraAdjacency(shape, coo).data.tolist() == expected
    assert period.intermediate_use.data.tolist() == expected
    assert SupraAdjacency.from_entries(shape, cols.copy(), weights).data.tolist() == expected
    assert [capacity for _, _, capacity in network.arcs] == expected


def input_order_csr(dim, entries):
    """The canonical CSR lists of ``entries`` by plain Python: each key's
    weights summed in input order from 0.0, sums of zero dropped, keys sorted."""
    sums = input_order_sums([(r, c) for r, c, _ in entries], [x for _, _, x in entries])
    keys = sorted(key for key, total in sums.items() if total)
    row_sizes = np.bincount([r for r, _ in keys], minlength=dim)
    return [0, *np.cumsum(row_sizes).tolist()], [c for _, c in keys], [sums[k] for k in keys]


def parent_fold(matrix, n, n_layers):
    """``aggregate_to_layers`` as it read the matrix through ``tocoo()``."""
    coo = matrix.tocoo()
    pair = np.ravel_multi_index((coo.row // n, coo.col // n), (n_layers, n_layers))
    return np.bincount(pair, coo.data, n_layers * n_layers).reshape(n_layers, n_layers)


def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def supra_entries(draw):
    """A shape and its entries: keys repeated 1-5 times, weights of zero or
    from 1e-9 to 1e9, in any order, possibly none."""
    shape = NetworkShape(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    cell = st.integers(0, shape.supra_dim - 1)
    weight = st.just(0.0) | st.floats(1e-9, 1e9) | st.floats(-9, 9).map(lambda e: 10.0**e)
    keys = draw(st.lists(st.tuples(cell, cell, st.integers(1, 5)), max_size=12))
    entries = [(r, c, draw(weight)) for r, c, repeats in keys for _ in range(repeats)]
    return shape, draw(st.permutations(entries))


@settings(max_examples=300, deadline=None)
@given(case=supra_entries())
def test_from_entries_and_a_coo_build_the_input_order_csr(case):
    shape, entries = case
    dim = shape.supra_dim
    r, c, x = np.array(entries, dtype=np.float64).reshape(-1, 3).T
    r, c = r.astype(np.int64), c.astype(np.int64)
    w = SupraAdjacency.from_entries(shape, r * dim + c, x)
    indptr, indices, data = input_order_csr(dim, entries)
    assert w.indptr.tolist() == indptr and w.indices.tolist() == indices
    assert [x.hex() for x in w.data.tolist()] == [x.hex() for x in data]
    assert w.indptr.dtype == w.indices.dtype == np.int32
    assert w.total_weight.hex() == float(w.matrix.sum()).hex()
    coo = sparse.coo_array((x, (r, c)), shape=(dim, dim))
    from_coo = SupraAdjacency(shape, coo)
    for name in ("indptr", "indices", "data"):
        assert same_array(getattr(from_coo, name), getattr(w, name))
    assert same_array(aggregate_to_layers(w), parent_fold(w.matrix, shape.n_nodes, shape.n_layers))


def test_matrix_is_a_cached_view_of_the_arrays():
    keys = np.array([3 * 4 + 0, 0 * 4 + 2, 3 * 4 + 0])
    w = SupraAdjacency.from_entries(NetworkShape(2, 2), keys, np.array([1.0, 2.0, 4.0]))
    assert w.indptr.tolist() == [0, 1, 1, 1, 2] and w.indices.tolist() == [2, 0]
    assert w.data.tolist() == [2.0, 5.0] and w.total_weight == 7.0
    m = w.matrix
    assert m is w.matrix and m.shape == (4, 4)
    for name in ("indptr", "indices", "data"):
        assert np.shares_memory(getattr(m, name), getattr(w, name))


def test_from_entries_does_not_share_the_callers_array():
    weights = np.array([2.0])
    w = SupraAdjacency.from_entries(NetworkShape(2, 1), np.array([0 * 2 + 1]), weights)
    weights[0] = 5.0
    assert w.data.tolist() == [2.0]


def test_supra_entry_out_of_range():
    # COO triples without a shape take it from their largest indices.
    with pytest.raises(ValidationError,
                       match=r"^supra-adjacency shape \(5, 1\), expected \(4, 4\)$"):
        SupraAdjacency(NetworkShape(2, 2), ([1.0], ([4], [0])))


@pytest.mark.parametrize("matrix, message", [
    ("abc", r"^supra-adjacency is not a matrix: "),
    (np.ones(4), r"^supra-adjacency shape \(4,\), expected \(2, 2\)$"),
    ([[0.0, 1.0], [float("nan"), 0.0]], r"^supra-adjacency must be finite and >= 0$"),
    (([1.0, -2.0], ([0, 1], [1, 0])), r"^supra-adjacency must be finite and >= 0$"),
], ids=["not-a-matrix", "1d", "nan", "negative-triple"])
def test_supra_adjacency_names_what_is_wrong_with_its_matrix(matrix, message):
    with pytest.raises(ValidationError, match=message):
        SupraAdjacency(NetworkShape(1, 2), matrix)


def test_from_entries_keeps_self_loops():
    w = SupraAdjacency.from_entries(NetworkShape(2, 1), np.array([1 * 2 + 1]), np.array([2.0]))
    assert w.matrix[1, 1] == 2.0


def test_aggregate_single_entry():
    # weight 5.0 from (layer 1, node 2) to (layer 0, node 0)
    shape = NetworkShape(4, 3)
    w = supra(shape, [(4 * 1 + 2, 0, 5.0)])
    agg = aggregate_to_layers(w)
    assert agg[1, 0] == 5.0
    assert agg.sum() == 5.0


def test_aggregate_empty():
    agg = aggregate_to_layers(supra(NetworkShape(2, 3), []))
    assert agg.shape == (3, 3)
    assert not agg.any()


def test_aggregate_conserves_mass():
    rng = np.random.default_rng(7)
    shape = NetworkShape(4, 3)
    dense = rng.uniform(0, 2, (12, 12)) * (rng.random((12, 12)) < 0.5)
    w = SupraAdjacency(shape, dense)
    agg = aggregate_to_layers(w)
    # independent direct summation over raw entries
    expected = np.zeros((3, 3))
    for h in range(12):
        for k in range(12):
            expected[h // 4, k // 4] += dense[h, k]
    assert np.allclose(agg, expected, rtol=1e-12, atol=0)
    assert abs(agg.sum() - w.total_weight) <= 1e-12 * max(1.0, w.total_weight)


def test_aggregate_exact_on_integer_weights():
    # integer-valued weights: every partial sum is exact in float64
    rng = np.random.default_rng(12)
    shape = NetworkShape(3, 4)
    dense = rng.integers(0, 50, (12, 12)).astype(float)
    w = SupraAdjacency(shape, dense)
    assert aggregate_to_layers(w).sum() == w.total_weight


def test_temporal_network_checks():
    shape = NetworkShape(2, 2)
    a = supra(shape, [(0, 1, 1.0)])
    b = supra(NetworkShape(2, 3), [])
    with pytest.raises(ValidationError):
        TemporalMultilayerNetwork([(1990, a), (1991, b)])
    with pytest.raises(ValidationError):
        TemporalMultilayerNetwork([(1991, a), (1990, a)])
    with pytest.raises(ValidationError):
        TemporalMultilayerNetwork([(1990, a), (1990, a)])
    with pytest.raises(ValidationError):
        TemporalMultilayerNetwork([])
    net = TemporalMultilayerNetwork([(1990, a), (1995, a)])
    assert net.shape.n_periods == 2
    assert net.labels == (1990, 1995)
    assert net.matrices == (a, a)
    ts, rows, cols, vals = net.tensor_entries()
    assert ts.tolist() == [0, 1]
    assert rows.tolist() == [0, 0] and cols.tolist() == [1, 1]
    assert vals.tolist() == [1.0, 1.0]


def test_stacked_entries_come_matrix_by_matrix_in_row_col_order():
    rng = np.random.default_rng(5)
    matrices = [sparse.random_array((4, 3), density=d, rng=rng, format="csr")
                for d in (0.5, 0.0, 0.9)]
    t, rows, cols, values = stacked_entries(matrices)
    assert all(a.dtype == np.int64 for a in (t, rows, cols))
    for k, m in enumerate(matrices):
        coo = m.tocoo()
        assert np.array_equal(rows[t == k], coo.row) and np.array_equal(cols[t == k], coo.col)
        assert np.array_equal(values[t == k], coo.data)
    assert np.all(np.diff(t) >= 0) and np.all(np.diff(t * 12 + rows * 3 + cols) > 0)


def test_first_failure_names_the_first_position_and_its_first_check():
    low, high = np.array([False, True, True]), np.array([False, False, True])
    assert first_failure([(high, "high"), (low, "low")]) == (1, "low")
    assert first_failure([(low, "low"), (high, "high")]) == (1, "low")
    assert first_failure([(high[:1], "high")]) is None
    assert first_failure([(np.zeros(0, dtype=bool), "empty")]) is None


def test_entity_codes():
    with pytest.raises(ValidationError):
        EntityCodes(("A", "A"), ("X",))
    codes = EntityCodes(("A", "B"), ("X", "Y", "Z"))
    codes.check_shape(NetworkShape(2, 3))
    with pytest.raises(ValidationError):
        codes.check_shape(NetworkShape(3, 3))


def test_entity_codes_of_supra_indices():
    codes = EntityCodes(("A", "B"), ("X", "Y", "Z"))
    labels = codes.supra_labels
    assert len(labels) == 6
    assert [labels[h] for h in (5, 0, 3, 3)] == [("Z", "B"), ("X", "A"), ("Y", "B"), ("Y", "B")]


def test_entries_in_row_col_order_from_unsorted_csr():
    # Row 0 stores columns 3, 1: the matrix is kept canonical, so arcs come
    # back sorted, as the network writer needs.
    m = sparse.csr_array(([1.0, 2.0, 3.0], [3, 1, 0], [0, 2, 3, 3, 3]), shape=(4, 4))
    _, rows, cols, vals = stacked_entries([SupraAdjacency(NetworkShape(2, 2), m).matrix])
    assert rows.tolist() == [0, 0, 1] and cols.tolist() == [1, 3, 0]
    assert vals.tolist() == [2.0, 1.0, 3.0]


@pytest.mark.parametrize("keys", ["unsorted", "ascending", "distinct", "empty"])
def test_merged_sums_each_key_in_input_order(keys):
    rng = np.random.default_rng(0)
    key = {
        "unsorted": rng.integers(0, 6, 40),
        "ascending": np.sort(rng.integers(0, 6, 40)),  # merged without a sort
        "distinct": np.arange(40) * 3,  # neither sorted nor merged
        "empty": np.zeros(0, dtype=np.int64),
    }[keys]
    weights = rng.choice([0.1, 0.2, 0.3, 0.7, 1 / 3, 1e-9, 1e9, -0.0], key.size)
    weights[:1] = -0.0  # summed from 0.0 to 0.0 on every path
    sums = input_order_sums(key.tolist(), weights.tolist())
    before = weights.copy()
    got_keys, totals = merged(key.copy(), weights)
    assert got_keys.tolist() == sorted(sums)
    assert [x.hex() for x in totals.tolist()] == [sums[k].hex() for k in sorted(sums)]
    assert totals.dtype == np.float64 and not np.shares_memory(totals, weights)
    assert weights.tobytes() == before.tobytes()
