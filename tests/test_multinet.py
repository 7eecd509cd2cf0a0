import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import sparse

from enflow import (
    NetworkShape,
    SupraAdjacency,
    TemporalMultilayerNetwork,
    EntityCodes,
    ValidationError,
    aggregate_to_layers,
    block_view,
    flat_index,
    unflat_index,
)


def test_flat_index_identity_corner():
    assert flat_index(1, 1, 26) == 1


def test_flat_index_direct_substitution():
    assert flat_index(2, 3, 26) == 29


def test_unflat_examples():
    assert unflat_index(29, 26) == (2, 3)
    assert unflat_index(26, 26) == (1, 26)
    assert unflat_index(27, 26) == (2, 1)


def test_flat_unflat_round_trip_grid():
    n, n_layers = 3, 4
    seen = set()
    for alpha in range(1, n_layers + 1):
        for i in range(1, n + 1):
            h = flat_index(alpha, i, n)
            assert 1 <= h <= n * n_layers
            assert unflat_index(h, n, n_layers) == (alpha, i)
            seen.add(h)
    assert seen == set(range(1, n * n_layers + 1))  # bijection


@given(
    n=st.integers(1, 40),
    n_layers=st.integers(1, 40),
    data=st.data(),
)
def test_flat_unflat_inverse_property(n, n_layers, data):
    alpha = data.draw(st.integers(1, n_layers))
    i = data.draw(st.integers(1, n))
    h = flat_index(alpha, i, n)
    assert unflat_index(h, n, n_layers) == (alpha, i)


def test_index_range_errors():
    with pytest.raises(ValidationError):
        flat_index(1, 0, 26)
    with pytest.raises(ValidationError):
        flat_index(0, 1, 26)
    with pytest.raises(ValidationError):
        flat_index(1, 27, 26)
    with pytest.raises(ValidationError):
        unflat_index(0, 26)
    with pytest.raises(ValidationError):
        unflat_index(53, 26, 2)


def test_shape_validation():
    with pytest.raises(ValidationError):
        NetworkShape(0, 1, 1)
    assert NetworkShape(26, 189, 27).supra_dim == 26 * 189


def test_supra_rejects_negative_and_drops_zeros():
    shape = NetworkShape(2, 2)
    with pytest.raises(ValidationError):
        SupraAdjacency.from_entries(shape, [(0, 1, -1.0)])
    w = SupraAdjacency.from_entries(shape, [(0, 1, 0.0), (1, 2, 3.0)])
    assert w.nnz == 1
    assert w.weight(0, 1) == 0.0
    assert w.weight(1, 2) == 3.0


def test_supra_entry_out_of_range():
    with pytest.raises(ValidationError):
        SupraAdjacency.from_entries(NetworkShape(2, 2), [(4, 0, 1.0)])


def test_block_view_single_entry():
    # 1-based supra position (29, 1) with N=26 lives in block (2, 1) at (3, 1).
    shape = NetworkShape(26, 2)
    w = SupraAdjacency.from_entries(shape, [(28, 0, 5.0)])
    block = block_view(w, 2, 1)
    assert block[2, 0] == 5.0
    assert block.nnz == 1
    for alpha in (1, 2):
        for beta in (1, 2):
            if (alpha, beta) != (2, 1):
                assert block_view(w, alpha, beta).nnz == 0


def test_block_view_empty_and_partition():
    shape = NetworkShape(4, 3)
    empty = SupraAdjacency.empty(shape)
    assert all(
        block_view(empty, a, b).nnz == 0 for a in range(1, 4) for b in range(1, 4)
    )
    rng = np.random.default_rng(1)
    dense = rng.uniform(0, 1, (12, 12)) * (rng.random((12, 12)) < 0.4)
    w = SupraAdjacency(shape, dense)
    total = sum(block_view(w, a, b).nnz for a in range(1, 4) for b in range(1, 4))
    assert total == w.nnz


def test_block_view_bad_layer():
    w = SupraAdjacency.empty(NetworkShape(2, 2))
    with pytest.raises(ValidationError):
        block_view(w, 0, 1)
    with pytest.raises(ValidationError):
        block_view(w, 1, 3)


def test_aggregate_single_entry():
    # weight 5.0 from (layer 2, node 3) to (layer 1, node 1), 1-based
    shape = NetworkShape(4, 3)
    w = SupraAdjacency.from_entries(shape, [(4 * 1 + 2, 0, 5.0)])
    agg = aggregate_to_layers(w)
    assert agg[1, 0] == 5.0
    assert agg.sum() == 5.0


def test_aggregate_empty():
    agg = aggregate_to_layers(SupraAdjacency.empty(NetworkShape(2, 3)))
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


def test_pruned_and_self_loops():
    shape = NetworkShape(2, 2)
    w = SupraAdjacency.from_entries(shape, [(0, 0, 0.5), (0, 1, 2.0), (1, 0, 0.1)])
    assert w.pruned(0.0) is w
    pruned = w.pruned(0.5)
    assert pruned.nnz == 2 and pruned.weight(1, 0) == 0.0
    no_loops = w.without_self_loops()
    assert no_loops.weight(0, 0) == 0.0 and no_loops.nnz == 2
    with pytest.raises(ValidationError):
        w.pruned(-1.0)


def test_temporal_network_checks():
    shape = NetworkShape(2, 2)
    a = SupraAdjacency.from_entries(shape, [(0, 1, 1.0)])
    b = SupraAdjacency.empty(NetworkShape(2, 3))
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
    assert net.period(1995) is a
    ts, rows, cols, vals = net.tensor_entries()
    assert ts.tolist() == [0, 1]
    assert rows.tolist() == [0, 0] and cols.tolist() == [1, 1]
    assert vals.tolist() == [1.0, 1.0]


def test_entity_codes():
    with pytest.raises(ValidationError):
        EntityCodes(("A", "A"), ("X",))
    codes = EntityCodes(("A", "B"), ("X", "Y", "Z"))
    codes.check_shape(NetworkShape(2, 3))
    with pytest.raises(ValidationError):
        codes.check_shape(NetworkShape(3, 3))


def test_entity_codes_of_supra_indices():
    codes = EntityCodes(("A", "B"), ("X", "Y", "Z"))
    assert codes.supra_codes(np.array([5, 0, 3, 3])) == (["Z", "X", "Y", "Y"], ["B", "A", "B", "B"])
    assert codes.supra_codes(np.array([], dtype=np.int32)) == ([], [])


def test_entries_in_row_col_order_from_unsorted_csr():
    # Row 0 stores columns 3, 1: the matrix is kept canonical, so arcs come
    # back sorted, as the network writer needs.
    m = sparse.csr_array(([1.0, 2.0, 3.0], [3, 1, 0], [0, 2, 3, 3, 3]), shape=(4, 4))
    rows, cols, vals = SupraAdjacency(NetworkShape(2, 2), m).entries()
    assert rows.tolist() == [0, 0, 1] and cols.tolist() == [1, 3, 0]
    assert vals.tolist() == [2.0, 1.0, 3.0]
