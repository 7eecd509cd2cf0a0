import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse import csgraph, linalg as splinalg

from enflow import (
    ConvergenceError,
    NetworkShape,
    NumericalError,
    ReducibleNetworkError,
    SourceClass,
    SupraAdjacency,
    TemporalMultilayerNetwork,
    ValidationError,
    build_temporal_network,
    eigenvector_centrality,
    hits,
    md_hits,
    md_hits_single_period,
    rank,
)
from enflow.centrality import EigScores, _as_csr, _dominant, _perron_start
from enflow.dataio import SyntheticSpec, generate_synthetic

from oracles import dense_hits, dense_hits_projection, naive_md_hits


def net_from_dense(stack, n, n_layers, labels=None):
    shape = NetworkShape(n, n_layers)
    labels = labels or list(range(len(stack)))
    return TemporalMultilayerNetwork(
        [(label, SupraAdjacency(shape, m)) for label, m in zip(labels, stack)]
    )


# ---------------------------------------------------------------------------
# eigenvector centrality
# ---------------------------------------------------------------------------


def test_eigenvector_symmetric_swap():
    scores = eigenvector_centrality(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(scores.centrality, [0.5, 0.5], atol=1e-12)
    assert scores.spectral_radius == pytest.approx(1.0, abs=1e-12)


def test_eigenvector_cycle_uniform():
    w = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    scores = eigenvector_centrality(w)
    assert np.allclose(scores.centrality, [1 / 3] * 3, atol=1e-12)
    assert scores.spectral_radius == pytest.approx(1.0, abs=1e-10)


def test_eigenvector_two_by_two_hand_solution():
    # characteristic polynomial x^2 - 2 = 0: rho = sqrt(2), x ~ (sqrt(2), 1)
    scores = eigenvector_centrality(np.array([[0.0, 2.0], [1.0, 0.0]]))
    root2 = math.sqrt(2.0)
    assert scores.spectral_radius == pytest.approx(root2, rel=1e-10)
    expected = np.array([root2, 1.0])
    expected /= expected.sum()
    assert np.allclose(scores.centrality, expected, atol=1e-10)


def test_eigenvector_reducible_raises_and_fallback():
    w = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ReducibleNetworkError, match="strongly connected"):
        eigenvector_centrality(w)
    # largest component of a 3-node graph with a 2-cycle plus a pendant node
    w = np.array([[0, 1, 1], [1, 0, 0], [0, 0, 0]], dtype=float)
    scores = eigenvector_centrality(w, largest_scc=True)
    assert scores.centrality[2] == 0.0
    assert np.allclose(scores.centrality[:2], [0.5, 0.5], atol=1e-10)
    assert scores.spectral_radius == pytest.approx(1.0, abs=1e-10)


def test_eigenvector_zero_matrix():
    with pytest.raises(NumericalError):
        eigenvector_centrality(np.zeros((2, 2)))


def test_largest_scc_of_one_node_without_a_self_loop_is_named():
    # The arc 0 -> 1 leaves two one-node components; neither has an arc.
    with pytest.raises(NumericalError, match="^eigenvector centrality is undefined on the largest "
                       "strongly connected component: it is node 1 alone, without a self-loop$"):
        eigenvector_centrality(np.array([[0.0, 3.99], [0.0, 0.0]]), largest_scc=True)


@pytest.mark.parametrize("w, expected", [
    ([[2.0, 1.0], [0.0, 0.0]], [1.0, 0.0]),
    ([[0.0, 1.0], [0.0, 2.0]], [0.0, 1.0]),
])
def test_largest_scc_tie_prefers_a_component_with_an_arc(w, expected):
    # Two one-node components; only the one with the self-loop has an arc.
    scores = eigenvector_centrality(np.array(w), largest_scc=True)
    assert scores.centrality.tolist() == expected
    assert scores.spectral_radius == 2.0


def reference_eigenvector_centrality(matrix, tol=1e-12, max_iter=10_000, *, largest_scc=False):
    """The recursive restriction that ``eigenvector_centrality`` replaced: it
    read the largest component's submatrix again and ran a second component
    pass on it."""
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
        sizes = np.bincount(labels)
        has_arc = sizes > 1
        has_arc[labels[w.diagonal() != 0]] = True
        keep = np.flatnonzero(labels == np.argmax(2 * sizes + has_arc))
        inner = w[np.ix_(keep, keep)]
        if inner.nnz == 0:
            raise NumericalError("eigenvector centrality is undefined on the largest strongly "
                                 f"connected component: it is node {keep[0]} alone, "
                                 "without a self-loop")
        inner = reference_eigenvector_centrality(inner, tol=tol, max_iter=max_iter)
        full = np.zeros(dim)
        full[keep] = inner.centrality
        return EigScores(centrality=full, spectral_radius=inner.spectral_radius)
    shift = float(np.abs(w).sum(axis=0).max())
    start = _perron_start(w, symmetric=False)
    return EigScores(*_dominant(w, start, shift, tol, max_iter, "eigenvector power iteration"))


def _two_components():
    # A 5-cycle with chords and a 3-cycle, joined by one arc 4 -> 5.
    rng = np.random.default_rng(7)
    w = np.zeros((8, 8))
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (3, 1), (5, 6), (6, 7), (7, 5),
                 (4, 5)]:
        w[a, b] = rng.uniform(0.5, 3.0)
    return w


_REFERENCE_CASES = {
    "irreducible": np.random.default_rng(3).uniform(0.1, 1.0, (9, 9)),
    "two components": _two_components(),
    "two components, reordered": _two_components()[::-1, ::-1].copy(),
    "tie, self-loop first": np.array([[2.0, 1.0], [0.0, 0.0]]),
    "tie, self-loop second": np.array([[0.0, 1.0], [0.0, 2.0]]),
    "self-loop singleton": np.array([[0.0, 1.0, 0.0], [0.0, 2.5, 1.0], [0.0, 0.0, 0.0]]),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_CASES))
def test_eig_matches_the_recursive_restriction_bit_for_bit(name):
    w = _REFERENCE_CASES[name]
    got = eigenvector_centrality(w, largest_scc=True)
    expected = reference_eigenvector_centrality(w, largest_scc=True)
    assert got.centrality.tobytes() == expected.centrality.tobytes()
    assert type(got.spectral_radius) is float
    assert np.float64(got.spectral_radius).tobytes() == np.float64(expected.spectral_radius).tobytes()


def test_eig_matches_the_recursive_restriction_on_built_periods():
    spec = SyntheticSpec(shape=NetworkShape(6, 4, 3), density=0.2, seed=5)
    net = build_temporal_network(generate_synthetic(spec).periods, SourceClass.RENEWABLE)
    for matrix in net.matrices:
        got = eigenvector_centrality(matrix, largest_scc=True)
        expected = reference_eigenvector_centrality(matrix, largest_scc=True)
        assert got.centrality.tobytes() == expected.centrality.tobytes()
        assert got.spectral_radius == expected.spectral_radius


@pytest.mark.parametrize("w", [np.array([[0.0, 3.99], [0.0, 0.0]]), np.zeros((3, 3))])
def test_eig_errors_match_the_recursive_restriction(w):
    with pytest.raises(NumericalError) as got:
        eigenvector_centrality(w, largest_scc=True)
    with pytest.raises(NumericalError) as expected:
        reference_eigenvector_centrality(w, largest_scc=True)
    assert type(got.value) is type(expected.value) and str(got.value) == str(expected.value)


def test_largest_scc_takes_one_component_pass(monkeypatch):
    calls = []
    passes = csgraph.connected_components

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return passes(*args, **kwargs)

    monkeypatch.setattr(csgraph, "connected_components", counted)
    scores = eigenvector_centrality(_two_components(), largest_scc=True)
    assert calls == [(8, 8)]
    assert np.count_nonzero(scores.centrality) == 5


def test_eigenvector_matches_dense_eigensolver():
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = rng.uniform(0.1, 1.0, (6, 6))  # strictly positive: irreducible
        scores = eigenvector_centrality(w, tol=1e-13)
        vals = np.linalg.eigvals(w)
        assert scores.spectral_radius == pytest.approx(np.abs(vals).max(), rel=1e-9)
        residual = np.abs(w @ scores.centrality - scores.spectral_radius * scores.centrality)
        assert residual.sum() <= 1e-10 * scores.spectral_radius


WEIGHTS = st.floats(0.1, 10.0)


@st.composite
def irreducible_matrices(draw):
    """Sparse strongly connected matrices: a weighted Hamiltonian cycle (period
    dim), a bipartite graph (period 2) or a cycle plus random chords."""
    dim = draw(st.integers(1, 3) | st.integers(4, 12))
    kind = draw(st.sampled_from(["cycle", "bipartite", "chords"]))
    w = np.zeros((dim, dim))
    if kind == "bipartite" and dim >= 2:
        side = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
        side[0], side[1] = True, False
        for node in range(2, dim):
            other = 1 if side[node] else 0  # node 0 or 1 across the cut
            w[node, other] = draw(WEIGHTS)
            w[other, node] = draw(WEIGHTS)
        w[0, 1], w[1, 0] = draw(WEIGHTS), draw(WEIGHTS)
        for i in range(dim):
            for j in range(dim):
                if side[i] != side[j] and w[i, j] == 0 and draw(st.booleans()):
                    w[i, j] = draw(WEIGHTS)
        return w
    order = draw(st.permutations(range(dim)))
    for tail, head in zip(order, order[1:] + order[:1]):
        w[tail, head] = draw(WEIGHTS)
    if kind == "chords":
        for _ in range(draw(st.integers(0, 2 * dim))):
            w[draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))] = draw(WEIGHTS)
    return w


def dense_perron(w):
    values, vectors = np.linalg.eig(w)
    top = np.argmax(values.real)
    vector = np.abs(vectors[:, top].real)
    return values[top].real, vector / vector.sum(), np.abs(values).max()


@settings(max_examples=150, deadline=None)
@given(w=irreducible_matrices())
def test_eigenvector_matches_dense_eig_on_sparse_irreducible(w):
    scores = eigenvector_centrality(sparse.csr_array(w))
    rho, vector, modulus = dense_perron(w)
    assert scores.spectral_radius == pytest.approx(rho, rel=1e-9)
    assert rho == pytest.approx(modulus, rel=1e-9)
    assert np.abs(scores.centrality - vector).max() <= 1e-9
    residual = np.abs(w @ scores.centrality - scores.spectral_radius * scores.centrality)
    assert residual.sum() <= 1e-11 * scores.spectral_radius


ARPACK_FAILURES = pytest.mark.parametrize("outcome", [
    splinalg.ArpackNoConvergence("no convergence", np.array([]), np.zeros((0, 0))),
    splinalg.ArpackError(-9999),
    0.0,
    np.nan,
], ids=["no-convergence", "error", "zero-vector", "nan-vector"])


def sparse_cycle_with_chords():
    rng = np.random.default_rng(3)
    return rng.uniform(0.1, 1.0, (9, 9)) * (rng.random((9, 9)) < 0.3) + np.roll(np.eye(9), 1, axis=1)


@ARPACK_FAILURES
def test_eigenvector_uniform_start_when_arpack_fails(monkeypatch, outcome):
    w = sparse_cycle_with_chords()
    expected = eigenvector_centrality(w)
    calls = []

    def eigs(matrix, **kwargs):
        calls.append(kwargs)
        if isinstance(outcome, Exception):
            raise outcome
        return np.array([1.0]), np.full((matrix.shape[0], 1), outcome, dtype=complex)

    monkeypatch.setattr(splinalg, "eigs", eigs)
    fallback = eigenvector_centrality(w)
    assert len(calls) == 1
    assert np.abs(fallback.centrality - expected.centrality).max() <= 1e-10
    assert fallback.spectral_radius == pytest.approx(expected.spectral_radius, rel=1e-10)


def test_eigenvector_cycle_longer_than_the_arnoldi_basis():
    # The all-ones start is already an eigenvector, so the Arnoldi process
    # breaks down at once and restarts from random vectors.
    scores = eigenvector_centrality(sparse.csr_array(np.roll(np.eye(40), 1, axis=1)))
    assert np.allclose(scores.centrality, 1 / 40, atol=1e-12)
    assert scores.spectral_radius == pytest.approx(1.0, abs=1e-12)


def test_eigenvector_max_iter_zero_raises():
    w = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
    with pytest.raises(ConvergenceError, match=r"in 0 iterations \(last residual n/a\)") as err:
        eigenvector_centrality(w, max_iter=0)
    assert err.value.residuals == []


def test_eigenvector_max_iter_error_carries_residuals():
    w = np.random.default_rng(1).uniform(0.1, 1.0, (5, 5))
    with pytest.raises(ConvergenceError) as err:
        eigenvector_centrality(w, tol=1e-30, max_iter=25)
    residuals = err.value.residuals
    assert len(residuals) == 10 and all(0 < r < 1e-12 for r in residuals)
    assert f"last residual {residuals[-1]:.3e}" in str(err.value)


# ---------------------------------------------------------------------------
# hub/authority scores
# ---------------------------------------------------------------------------


def test_hits_single_arc():
    w = np.array([[0.0, 1.0], [0.0, 0.0]])
    scores = hits(w)
    assert np.allclose(scores.hub, [1.0, 0.0], atol=1e-12)
    assert np.allclose(scores.authority, [0.0, 1.0], atol=1e-12)


def test_hits_star():
    w = np.zeros((3, 3))
    w[0, 1] = w[0, 2] = 1.0
    scores = hits(w)
    assert np.allclose(scores.hub, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(scores.authority, [0.0, 0.5, 0.5], atol=1e-12)


def test_hits_weighted_digraph_matches_eigen_oracle():
    w = np.zeros((3, 3))
    w[0, 1] = 2.0
    w[2, 1] = 1.0
    w[0, 2] = 1.0
    scores = hits(w, tol=1e-14)
    hub, authority = dense_hits(w)
    assert np.allclose(scores.hub, hub, atol=1e-9)
    assert np.allclose(scores.authority, authority, atol=1e-9)


def test_hits_spectral_equivalence_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        w = rng.uniform(0.05, 1.0, (5, 5))
        scores = hits(w, tol=1e-14)
        hub, authority = dense_hits(w)
        assert np.allclose(scores.hub, hub, atol=1e-8)
        assert np.allclose(scores.authority, authority, atol=1e-8)


def test_hits_zero_matrix():
    with pytest.raises(NumericalError):
        hits(np.zeros((3, 3)))


def test_hits_max_iter_error_carries_residual():
    rng = np.random.default_rng(1)
    w = rng.uniform(0.1, 1.0, (5, 5))
    with pytest.raises(ConvergenceError) as err:
        hits(w, tol=1e-16, max_iter=2)
    assert err.value.residuals


def test_hits_small_spectral_gap_matches_dense_eigensolver():
    # Two copies of one 3-node block, the second scaled so that
    # (sigma2/sigma1)^2 is about 0.999, joined by one weak arc. From the
    # uniform vector the alternating recursion needs about 28,000 steps.
    block = np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 3.0], [2.0, 1.0, 0.0]])
    w = np.zeros((6, 6))
    w[:3, :3] = block
    w[3:, 3:] = math.sqrt(0.999) * block
    w[2, 3] = 1e-3
    sigma = np.linalg.svd(w, compute_uv=False)
    assert (sigma[1] / sigma[0]) ** 2 == pytest.approx(0.999, abs=1e-5)
    scores = hits(w)
    hub, authority = dense_hits(w)
    assert np.abs(scores.hub - hub).max() <= 1e-10
    assert np.abs(scores.authority - authority).max() <= 1e-10


@st.composite
def repeated_top_singular_value(draw):
    """Equal-weight copies of one positive block, so its top singular value
    repeats once per copy (up to more copies than the four eigenpairs the
    start asks ARPACK for), beside an optional block with at most half that
    singular value, under a random node order."""
    size = draw(st.integers(1, 4))
    block = np.array(draw(st.lists(st.floats(1.0, 10.0), min_size=size * size,
                                   max_size=size * size))).reshape(size, size)
    copies = draw(st.integers(2, 7))
    w = np.kron(np.eye(copies), block)
    extra = draw(st.integers(0, 2))
    if extra:
        weak = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=extra * extra,
                                      max_size=extra * extra))).reshape(extra, extra)
        scale = 0.5 * np.linalg.norm(block, 2) / max(np.linalg.norm(weak, 2), 1.0)
        w = np.block([[w, np.zeros((len(w), extra))], [np.zeros((extra, len(w))), scale * weak]])
    order = np.array(draw(st.permutations(range(len(w)))))
    return w[np.ix_(order, order)]


@settings(max_examples=150, deadline=None)
@given(w=repeated_top_singular_value())
def test_hits_repeated_top_singular_value_is_the_projection_of_uniform(w):
    scores = hits(sparse.csr_array(w))
    hub, authority = dense_hits_projection(w)
    assert np.abs(scores.hub - hub).max() <= 1e-10
    assert np.abs(scores.authority - authority).max() <= 1e-10


@ARPACK_FAILURES
def test_hits_uniform_start_when_arpack_fails(monkeypatch, outcome):
    w = sparse_cycle_with_chords()
    expected = hits(w)
    calls = []

    def eigsh(matrix, k, **kwargs):
        calls.append(k)
        if isinstance(outcome, Exception):
            raise outcome
        return np.arange(k, 0.0, -1.0), np.full((matrix.shape[0], k), outcome)

    monkeypatch.setattr(splinalg, "eigsh", eigsh)
    # lambda2/lambda1 of W W^T is 0.43 here, so the unshifted iteration from
    # the uniform start stops after 33 steps; a shift would slow it down.
    fallback = hits(w, max_iter=40)
    assert calls == [4]
    assert np.abs(fallback.hub - expected.hub).max() <= 1e-10
    assert np.abs(fallback.authority - expected.authority).max() <= 1e-10


def test_hits_rows_without_arcs_have_zero_hub():
    # On this matrix ARPACK's top eigenvector carries rounding noise (about
    # 1e-17) in the rows without arcs; the hub must still be exactly zero.
    rng = np.random.default_rng(35)
    dim = int(rng.integers(3, 40))
    w = rng.uniform(0, 1, (dim, dim)) * (rng.random((dim, dim)) < rng.uniform(0.05, 0.5))
    w[rng.random(dim) < 0.3, :] = 0
    empty = ~w.any(axis=1)
    assert empty.any() and not empty.all()
    assert np.all(hits(w).hub[empty] == 0.0)


# ---------------------------------------------------------------------------
# five-vector temporal scores
# ---------------------------------------------------------------------------


def test_md_hits_singleton():
    net = net_from_dense([np.array([[1.0]])], 1, 1)
    scores = md_hits(net)
    for vec in scores.as_dict().values():
        assert np.allclose(vec, [1.0])


def test_md_hits_two_node_symmetric():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    net = net_from_dense([w], 2, 1)
    scores = md_hits(net)
    assert np.allclose(scores.node_hub, [0.5, 0.5], atol=1e-12)
    assert np.allclose(scores.node_authority, [0.5, 0.5], atol=1e-12)
    assert np.allclose(scores.layer_broadcast, [1.0])
    assert np.allclose(scores.layer_receive, [1.0])
    assert np.allclose(scores.time, [1.0])


def test_md_hits_matches_naive_oracle():
    rng = np.random.default_rng(17)
    for _ in range(5):
        n, n_layers, n_periods = 2, 2, 2
        dim = n * n_layers
        stack = rng.uniform(0.05, 1.0, (n_periods, dim, dim)) * (
            rng.random((n_periods, dim, dim)) < 0.7
        )
        if not stack.any():
            continue
        net = net_from_dense(list(stack), n, n_layers)
        scores = md_hits(net, tol=1e-13)
        expected = naive_md_hits(n, n_layers, n_periods, stack, scores.gamma, tol=1e-12)
        for got, want in zip(
            (scores.node_hub, scores.node_authority, scores.layer_broadcast,
             scores.layer_receive, scores.time),
            expected,
        ):
            assert np.allclose(got, want, atol=1e-8)


def test_md_hits_matches_naive_oracle_with_mixed_gamma_and_empty_period():
    gamma = (0.3, 0.5, 0.2, 1.0, 0.7)
    rng = np.random.default_rng(29)
    n, n_layers, n_periods = 3, 2, 3
    dim = n * n_layers
    idle = np.arange(dim) % n == n - 1  # the last sector of every layer
    for _ in range(30):
        stack = rng.uniform(0.05, 1.0, (n_periods, dim, dim)) * (
            rng.random((n_periods, dim, dim)) < 0.6
        )
        stack[1] = 0.0
        stack[:, idle, :] = 0.0
        stack[:, :, idle] = 0.0
        if not stack.any():
            continue
        scores = md_hits(net_from_dense(list(stack), n, n_layers), gamma=gamma, tol=1e-13)
        expected = naive_md_hits(n, n_layers, n_periods, stack, gamma, tol=1e-13)
        assert scores.time[1] == 0.0
        assert scores.node_hub[-1] == scores.node_authority[-1] == 0.0
        for got, want in zip(
            (scores.node_hub, scores.node_authority, scores.layer_broadcast,
             scores.layer_receive, scores.time),
            expected,
        ):
            assert np.allclose(got, want, rtol=0, atol=1e-14)


def test_md_hits_traces_at_most_16_bytes_per_arc():
    rng = np.random.default_rng(37)
    shape = NetworkShape(26, 12)
    dim = shape.supra_dim
    net = TemporalMultilayerNetwork([
        (t, SupraAdjacency(shape, sparse.random_array((dim, dim), density=0.4, rng=rng)))
        for t in range(3)
    ])
    arcs = sum(m.nnz for m in net.matrices)
    assert arcs >= 100_000
    md_hits(net)
    tracemalloc.start()
    try:
        md_hits(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * arcs, peak / arcs


def test_md_hits_stops_at_its_sweep_cap():
    rng = np.random.default_rng(3)
    net = net_from_dense([rng.uniform(0.1, 1.0, (4, 4))], 2, 2)
    with pytest.raises(ConvergenceError,
                       match=r"^five-vector iteration did not reach tolerance 1e-300 in 2 sweeps "
                             r"\(last residual \d\.\d{3}e[-+]\d\d\)$") as err:
        md_hits(net, tol=1e-300, max_iter=2)
    assert len(err.value.residuals) == 2


def test_md_hits_update_that_underflows_to_zero_is_a_numerical_error():
    # The one weight is the least subnormal: half of it rounds to 0.0.
    net = net_from_dense([np.array([[0.0, 5e-324], [0.0, 0.0]])], 1, 2)
    with pytest.raises(NumericalError,
                       match="^score update collapsed to zero; weights degenerate$"):
        md_hits(net, gamma=[1.0] * 5)


def test_md_hits_single_period_wrapper():
    rng = np.random.default_rng(23)
    shape = NetworkShape(26, 3)
    dense = rng.uniform(0, 1, (78, 78)) * (rng.random((78, 78)) < 0.1)
    matrix = SupraAdjacency(shape, dense)
    single = md_hits_single_period(matrix)
    assert np.allclose(single.time, [1.0])
    wrapped = md_hits(TemporalMultilayerNetwork([(0, matrix)]))
    assert np.array_equal(single.node_hub, wrapped.node_hub)
    assert np.array_equal(single.node_authority, wrapped.node_authority)
    assert np.array_equal(single.layer_broadcast, wrapped.layer_broadcast)
    assert np.array_equal(single.layer_receive, wrapped.layer_receive)


def test_md_hits_scale_invariance():
    rng = np.random.default_rng(5)
    stack = rng.uniform(0.1, 1.0, (2, 6, 6)) * (rng.random((2, 6, 6)) < 0.8)
    base = md_hits(net_from_dense(list(stack), 3, 2), tol=1e-12)
    for lam in (1e-3, 1e3):
        scaled = md_hits(net_from_dense([lam * m for m in stack], 3, 2), tol=1e-12)
        for key, vec in base.as_dict().items():
            assert np.allclose(scaled.as_dict()[key], vec, atol=1e-8), key


def test_md_hits_gamma_one_reduces_to_hits():
    rng = np.random.default_rng(31)
    for _ in range(5):
        w = rng.uniform(0.05, 1.0, (6, 6))
        net = net_from_dense([w], 6, 1)
        scores = md_hits(net, gamma=(1.0,) * 5, tol=1e-12, max_iter=20_000)
        classic = hits(w, tol=1e-14)
        assert np.allclose(scores.node_hub, classic.hub, atol=1e-6)
        assert np.allclose(scores.node_authority, classic.authority, atol=1e-6)
        assert np.array_equal(
            np.argsort(-scores.node_hub), np.argsort(-classic.hub)
        )


def test_md_hits_permutation_equivariance():
    rng = np.random.default_rng(13)
    n, n_layers, n_periods = 3, 2, 2
    dim = n * n_layers
    stack = rng.uniform(0.1, 1.0, (n_periods, dim, dim)) * (
        rng.random((n_periods, dim, dim)) < 0.7
    )
    perm = np.array([2, 0, 1])  # sector permutation
    permuted = np.zeros_like(stack)
    for t in range(n_periods):
        for a in range(n_layers):
            for b in range(n_layers):
                block = stack[t, a * n : (a + 1) * n, b * n : (b + 1) * n]
                permuted[t, a * n : (a + 1) * n, b * n : (b + 1) * n] = block[
                    np.ix_(perm, perm)
                ]
    base = md_hits(net_from_dense(list(stack), n, n_layers), tol=1e-13)
    other = md_hits(net_from_dense(list(permuted), n, n_layers), tol=1e-13)
    assert np.allclose(other.node_hub, base.node_hub[perm], atol=1e-10)
    assert np.allclose(other.node_authority, base.node_authority[perm], atol=1e-10)
    assert np.allclose(other.layer_broadcast, base.layer_broadcast, atol=1e-10)
    assert np.allclose(other.layer_receive, base.layer_receive, atol=1e-10)
    assert np.allclose(other.time, base.time, atol=1e-10)


def test_md_hits_outputs_are_unit_shares():
    rng = np.random.default_rng(2)
    stack = rng.uniform(0, 1, (3, 6, 6)) * (rng.random((3, 6, 6)) < 0.5)
    scores = md_hits(net_from_dense(list(stack), 2, 3))
    for vec in scores.as_dict().values():
        assert np.isfinite(vec).all()
        assert vec.min() >= 0
        assert vec.sum() == pytest.approx(1.0, abs=1e-12)


def test_md_hits_structural_zero_entity():
    # sector 1 never appears as a source: its hub score is pinned to zero
    w = np.zeros((2, 2))
    w[0, 1] = 2.0
    scores = md_hits(net_from_dense([w], 2, 1))
    assert scores.node_hub[1] == 0.0
    assert scores.node_hub[0] == 1.0
    assert scores.node_authority[0] == 0.0


def test_md_hits_validation():
    net = net_from_dense([np.zeros((2, 2))], 2, 1)
    with pytest.raises(NumericalError, match="cannot score a network with no arcs"):
        md_hits(net)
    good = net_from_dense([np.eye(2)], 2, 1)
    with pytest.raises(ValidationError):
        md_hits(good, gamma=(0.2, 0.2))
    with pytest.raises(ValidationError):
        md_hits(good, gamma=(0.0, 0.2, 0.2, 0.2, 0.2))
    with pytest.raises(ValidationError):
        md_hits(good, gamma=(1.1, 0.2, 0.2, 0.2, 0.2))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="every gamma entry must lie in"):
            md_hits(good, gamma=(bad, 0.2, 0.2, 0.2, 0.2))


# ---------------------------------------------------------------------------
# rankings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankingRow:
    rank: int
    label: str
    score: float


def sorted_rows(scores, labels) -> list[RankingRow]:
    """The rows that ``rank`` returned before it returned arrays, built as it did."""
    values = np.asarray(scores, dtype=np.float64).reshape(-1)
    order = sorted(range(len(values)), key=lambda idx: (-values[idx], labels[idx]))
    rows = []
    for position, idx in enumerate(order):
        score = float(values[idx])
        if position > 0 and score == rows[-1].score:
            rank_value = rows[-1].rank
        else:
            rank_value = position + 1
        rows.append(RankingRow(rank=rank_value, label=str(labels[idx]), score=score))
    return rows


def ranked_rows(scores, labels) -> list[RankingRow]:
    order, ranks = rank(scores, labels)
    values = np.asarray(scores, dtype=np.float64)
    return [RankingRow(r, str(labels[i]), float(values[i]))
            for i, r in zip(order.tolist(), ranks.tolist())]


def test_rank_basic():
    order, ranks = rank([0.2, 0.5, 0.3], ["A", "B", "C"])
    assert order.tolist() == [1, 2, 0]
    assert ranks.tolist() == [1, 2, 3]


def test_rank_ties_alphabetical():
    order, ranks = rank([0.5, 0.5, 0.5], ["C", "A", "B"])
    assert order.tolist() == [1, 2, 0]
    assert ranks.tolist() == [1, 1, 1]


def test_rank_matches_sort_oracle():
    rng = np.random.default_rng(3)
    scores = rng.uniform(0, 1, 10)
    labels = [f"N{i}" for i in range(10)]
    order, _ = rank(scores, labels)
    assert order.tolist() == sorted(range(10), key=lambda i: (-scores[i], labels[i]))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rank_matches_the_old_sort(data):
    scores = data.draw(st.lists(
        st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(allow_nan=False), min_size=1, max_size=12
    ))
    labels = data.draw(st.lists(st.sampled_from(["A", "B", "a", ""]) | st.text(max_size=3),
                                min_size=len(scores), max_size=len(scores)))
    got, want = ranked_rows(scores, labels), sorted_rows(scores, labels)
    # ``hex`` tells -0.0 from 0.0, so tied zeros must keep the old order too.
    assert [(r.rank, r.label, r.score.hex()) for r in got] == \
           [(r.rank, r.label, r.score.hex()) for r in want]


def test_rank_length_mismatch():
    with pytest.raises(ValidationError):
        rank([0.1], ["A", "B"])


@given(
    scores=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=12
    )
)
def test_rank_is_sorted_permutation(scores):
    labels = [f"L{i:02d}" for i in range(len(scores))]
    table = ranked_rows(scores, labels)
    assert sorted([r.label for r in table]) == labels
    values = [r.score for r in table]
    assert values == sorted(values, reverse=True)
    assert all(r.rank >= 1 for r in table)
