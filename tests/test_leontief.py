from collections import deque

import numpy as np
import pytest
from scipy import sparse

from enflow import (
    ENERGY_CARRIERS,
    ConvergenceError,
    MrioPeriod,
    NetworkShape,
    NonProductiveEconomyError,
    SourceClass,
    ValidationError,
    build_temporal_network,
    embodied_flow_matrix,
    embodied_intensity,
    input_coefficients,
    leontief_apply,
    spectral_radius_estimate,
)
from enflow.dataio import (
    DatasetManifest,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from enflow.multinet import CsrArrays

from accounts import csr, demand_dict, energy_array, energy_dict
from oracles import NONRENEWABLE, RENEWABLE, class_consumption, dense_embodied_flows, neumann_series


def scalar_period(u=2.0, o=4.0, c=3.0, d=5.0, label=2000):
    shape = NetworkShape(1, 1)
    return MrioPeriod(
        label=label,
        shape=shape,
        intermediate_use=np.array([[u]]),
        total_output=np.array([o]),
        energy_consumption=energy_array(1, coal=c),
        final_demand=np.array([[d]]),
    )


def test_input_coefficients_zero_use():
    period = scalar_period(u=0.0)
    assert input_coefficients(period).nnz == 0


def test_input_coefficients_direct_division():
    a = input_coefficients(scalar_period(u=2.0, o=4.0))
    assert a[0, 0] == 0.5


def test_input_coefficients_columnwise_oracle():
    rng = np.random.default_rng(3)
    u = rng.uniform(0.5, 2.0, (2, 2))
    o = u.sum(axis=0) * 2
    period = MrioPeriod(
        label=2000,
        shape=NetworkShape(2, 1),
        intermediate_use=u,
        total_output=o,
        energy_consumption=energy_array(2),
        final_demand=np.zeros((2, 1)),
    )
    a = input_coefficients(period).toarray()
    assert np.allclose(a, u / o[None, :], rtol=1e-15, atol=0)


def test_input_coefficients_scale_us_stored_values_in_canonical_order():
    # Column 2 has zero output and no use; 5e-324 / 6.0 underflows to zero.
    u = np.array([[1.0, 0.0, 0.0, 3.0],
                  [2.0, 5.0, 0.0, 0.0],
                  [0.0, 5e-324, 0.0, 1.0],
                  [4.0, 0.0, 0.0, 2.0]])
    o = np.array([8.0, 6.0, 0.0, 7.0])
    period = MrioPeriod(2000, NetworkShape(2, 2), u, o, energy_array(4), np.zeros((4, 2)))
    a = input_coefficients(period)
    assert a.has_canonical_format and a.nnz == 7
    inv = np.zeros(4)
    np.divide(1.0, o, out=inv, where=o > 0)
    assert a.toarray().tobytes() == (u @ np.diag(inv)).tobytes()
    assert period.u.indices.tolist() == [0, 3, 0, 1, 1, 3, 0, 3]  # U's arrays are left as read


def test_mrio_period_invariants():
    shape = NetworkShape(1, 1)
    no_demand = np.zeros((1, 1))
    with pytest.raises(ValidationError):  # column use exceeds output
        MrioPeriod(2000, shape, np.array([[5.0]]), np.array([4.0]), energy_array(1), no_demand)
    with pytest.raises(ValidationError):  # zero output but positive use
        MrioPeriod(2000, shape, np.array([[1.0]]), np.array([0.0]), energy_array(1), no_demand)


def test_mrio_period_names_the_first_column_that_fails_either_check():
    # Column 0 has zero output and a use within the float slack; column 1 uses
    # more than its output. The first failing column is named, as load_dataset does.
    use = np.array([[1e-13, 2.0], [0.0, 0.0]])
    with pytest.raises(ValidationError,
                       match="^period 2000: column 0 has zero output but positive intermediate use$"):
        MrioPeriod(2000, NetworkShape(2, 1), use, np.array([0.0, 1.0]), energy_array(2),
                   np.zeros((2, 1)))
    with pytest.raises(ValidationError, match="^period 2000: column 1 uses 2.0 but output is 1.0$"):
        MrioPeriod(2000, NetworkShape(2, 1), use, np.array([1.0, 1.0]), energy_array(2),
                   np.zeros((2, 1)))


@pytest.mark.parametrize("output, message", [
    (np.ones(3), "^period 2000: total output length 3, expected 2$"),
    (np.array([1.0, np.nan]), "^period 2000: total output must be finite and >= 0$"),
    (np.array([np.inf, 1.0]), "^period 2000: total output must be finite and >= 0$"),
    (np.array([1.0, -1.0]), "^period 2000: total output must be finite and >= 0$"),
])
def test_mrio_period_rejects_a_bad_total_output(output, message):
    with pytest.raises(ValidationError, match=message):
        MrioPeriod(2000, NetworkShape(2, 1), np.zeros((2, 2)), output, energy_array(2),
                   np.zeros((2, 1)))


def test_mrio_period_sums_column_use_in_row_order_whatever_the_entry_order():
    # 0.1 + 0.2 + 0.3 exceeds the output's slack, 0.3 + 0.2 + 0.1 does not; the
    # entries of column 0 are summed in row order however they are given.
    values, rows, output = np.array([0.1, 0.2, 0.3]), np.arange(3), np.array([0.599999999399, 1, 1])
    for order in (slice(None), slice(None, None, -1)):
        use = sparse.coo_array((values[order], (rows[order], [0, 0, 0])), shape=(3, 3))
        with pytest.raises(ValidationError, match="^period 1990: column 0 uses 0.6000000000000001 "
                                                  "but output is 0.599999999399$"):
            MrioPeriod(1990, NetworkShape(1, 3), use, output, energy_array(3), np.zeros((3, 3)))


def test_energy_carriers_are_the_sorted_carrier_names():
    assert ENERGY_CARRIERS == tuple(sorted(RENEWABLE + NONRENEWABLE))


def test_mrio_period_holds_the_energy_block():
    f = energy_array(2, coal=[1.0, 2.0], hydro=[0.0, 3.0])
    period = MrioPeriod(2000, NetworkShape(2, 1), np.zeros((2, 2)), np.ones(2), f.tolist(),
                        np.zeros((2, 1)))
    assert period.energy_consumption.dtype == np.float64
    assert np.array_equal(period.energy_consumption, f)


def poisoned(value):
    f = energy_array(2)
    f[3, 1] = value
    return f


@pytest.mark.parametrize("energy", [
    {"coal": np.array([1.0, 2.0])},
    {},
    np.zeros((6, 2)),
    np.zeros((7, 3)),
    np.zeros(14),
    poisoned(np.nan),
    poisoned(np.inf),
    poisoned(-1.0),
    "coal",
    None,
], ids=["mapping", "empty-mapping", "six-rows", "three-columns", "flat", "nan", "inf", "negative",
        "str", "none"])
def test_mrio_period_rejects_bad_energy(energy):
    with pytest.raises(ValidationError, match=r"period 2000: energy .* shape \(7, 2\)"):
        MrioPeriod(2000, NetworkShape(2, 1), np.zeros((2, 2)), np.ones(2), energy,
                   np.zeros((2, 1)))


@pytest.mark.parametrize("demand, message", [
    (np.array([[1.0, 1.0]]), r"final demand shape \(1, 2\), expected \(1, 1\)"),
    (np.ones((2, 1)), r"final demand shape \(2, 1\), expected \(1, 1\)"),
    (np.array([[-1.0]]), "final demand must be finite and >= 0"),
    (np.array([[np.nan]]), "final demand must be finite and >= 0"),
    (sparse.csr_array(np.array([[np.inf]])), "final demand must be finite and >= 0"),
])
def test_mrio_period_rejects_bad_demand(demand, message):
    with pytest.raises(ValidationError, match=message):
        MrioPeriod(2000, NetworkShape(1, 1), np.array([[0.0]]), np.array([1.0]), energy_array(1),
                   demand)


def test_mrio_period_demand_layout():
    # y[a*N + j, b], N = 2 sectors, L = 3 economies: economy 2 buys sector
    # 0's goods from economy 1. The explicit zero at (0, 0) is not stored.
    y = sparse.coo_array(([4.0, 0.0], ([1 * 2 + 0, 0], [2, 0])), shape=(6, 3))
    period = MrioPeriod(2000, NetworkShape(2, 3), np.zeros((6, 6)), np.ones(6), energy_array(6), y)
    assert isinstance(period.y, CsrArrays)
    assert period.y.shape == (6, 3) and period.y.data.size == 1
    assert demand_dict(period) == {(0, 1, 2): 4.0}


def test_leontief_apply_identity():
    period = scalar_period(u=0.0)
    a = input_coefficients(period)
    v = np.array([7.0])
    assert np.allclose(leontief_apply(a, v), v)


def test_leontief_apply_geometric():
    a = input_coefficients(scalar_period(u=2.0, o=4.0))
    x = leontief_apply(a, np.array([1.0]))
    assert np.allclose(x, [2.0], rtol=1e-10)


def test_leontief_apply_matches_neumann_series():
    rng = np.random.default_rng(11)
    a = rng.uniform(0, 0.29, (3, 3))  # 1-norm below 0.9
    assert np.abs(a).sum(axis=0).max() < 0.9
    v = np.zeros(3)
    v[0] = 1.0
    for m in (a, a.T):  # the demand and the consumption side
        expected = neumann_series(m, v, terms=60)
        assert np.allclose(leontief_apply(sparse.csr_array(m), v), expected, atol=1e-9, rtol=0)


def test_leontief_apply_residual_contract():
    rng = np.random.default_rng(5)
    spec = SyntheticSpec(shape=NetworkShape(3, 2, 1), density=0.7, seed=2, rho_cap=0.85)
    period = generate_synthetic(spec).periods[0]
    a = input_coefficients(period)
    v = rng.uniform(0, 2, 6)
    x = leontief_apply(a, v)
    a = a.toarray()
    residual = v - (np.eye(6) - a) @ x
    assert np.abs(residual).sum() <= 1e-10 * (1 + np.abs(v).sum())


def test_non_productive_economy_detected():
    # a_11 = 1 exactly: the requirements series diverges
    period_matrix = sparse.csr_array(np.array([[1.0]]))
    with pytest.raises(NonProductiveEconomyError) as err:
        leontief_apply(period_matrix, np.array([1.0]), max_iter=200, period=1999)
    assert err.value.period == 1999
    assert spectral_radius_estimate(period_matrix) == pytest.approx(1.0, abs=1e-9)


class CountedMatrix(np.ndarray):
    """A dense matrix that counts its products."""

    products = 0

    def __matmul__(self, other):
        CountedMatrix.products += 1
        return np.asarray(self) @ other


def test_a_diverging_solve_stops_long_before_its_cap():
    # The residual passes 1e12 (1 + ||v||_1) after about 70 steps of 1.5x.
    a, CountedMatrix.products = np.array([[1.5]]).view(CountedMatrix), 0
    with pytest.raises(NonProductiveEconomyError,
                       match=r"^input coefficients in period 7 have spectral radius "
                             r"~1\.500000 >= 1; the economy is not productive$"):
        leontief_apply(a, np.array([1.0]), max_iter=10_000, period=7)
    assert CountedMatrix.products < 100


def test_slow_but_productive_raises_convergence_error():
    with pytest.raises(ConvergenceError):
        leontief_apply(sparse.csr_array(np.array([[0.9]])), np.array([1.0]), max_iter=3)


@pytest.mark.parametrize("a, rhs", [
    (np.ones((2, 3)), np.ones(2)),  # not square
    (np.ones(2), np.ones(2)),  # not a matrix
    (sparse.csr_array((2, 2)), np.ones((3, 1))),  # square, but not the rows of rhs
])
def test_leontief_apply_rejects_a_matrix_of_the_wrong_shape(a, rhs):
    with pytest.raises(ValidationError, match="a must be M x M with M the rows of rhs"):
        leontief_apply(a, rhs)


def reference_leontief_apply(a, rhs, tol=1e-10, max_iter=10_000, *, period=None):
    """The two-iterate loop that ``leontief_apply`` replaced: it kept x, a x,
    their successors and the residual v + a x_new - x_new apart."""
    v = np.asarray(rhs, dtype=np.float64)
    squeeze = v.ndim == 1
    if squeeze:
        v = v[:, None]
    v_norm = np.abs(v).sum(axis=0)
    threshold = tol * (1.0 + v_norm)
    x = v.copy()
    ax = a @ x
    residuals = deque(maxlen=10)
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
    raise ConvergenceError(f"total-requirements solve{where}", tol, max_iter, "iterations",
                           residuals)


def consumption_side_matrix(seed):
    """A^T of a synthetic 26-sector, 3-economy period, as ``embodied_intensity`` solves it."""
    spec = SyntheticSpec(shape=NetworkShape(26, 3, 1), density=0.1, seed=seed)
    return input_coefficients(generate_synthetic(spec).periods[0]).T.tocsr()


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("columns", [None, 26, "strided"])
def test_leontief_apply_matches_the_two_iterate_loop_bit_for_bit(seed, dense, columns):
    a = consumption_side_matrix(seed)
    if dense:
        a = a.toarray()
    rng = np.random.default_rng(seed)
    dim = a.shape[0]
    if columns is None:
        rhs = rng.uniform(0, 5, dim)
    elif columns == "strided":
        rhs = rng.uniform(0, 5, (dim, 52))[:, ::2]
    else:
        rhs = np.zeros((dim, columns))
        rhs[np.arange(dim), np.arange(dim) % columns] = rng.uniform(0, 5, dim)
    got, expected = leontief_apply(a, rhs, period=1990), reference_leontief_apply(a, rhs)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dense", [False, True])
def test_a_capped_solve_keeps_the_two_iterate_loops_residuals(dense):
    a = consumption_side_matrix(9)
    if dense:
        a = a.toarray()
    rhs = np.ones((a.shape[0], 4))
    with pytest.raises(ConvergenceError) as got:
        leontief_apply(a, rhs, max_iter=5, period=1991)
    with pytest.raises(ConvergenceError) as expected:
        reference_leontief_apply(a, rhs, max_iter=5, period=1991)
    assert str(got.value) == str(expected.value)
    assert np.array(got.value.residuals).tobytes() == np.array(expected.value.residuals).tobytes()
    assert len(got.value.residuals) == 5


@pytest.mark.parametrize("a", [
    sparse.csr_array(np.array([[1.0]])),  # a_11 = 1: stops at the cap
    np.array([[0.0, 1.5], [1.5, 0.0]]),  # diverges past 1e12 (1 + ||v||_1)
])
def test_a_non_productive_matrix_keeps_the_two_iterate_loops_message(a):
    with pytest.raises(NonProductiveEconomyError) as got:
        leontief_apply(a, np.ones(a.shape[0]), max_iter=300, period=2001)
    with pytest.raises(NonProductiveEconomyError) as expected:
        reference_leontief_apply(a, np.ones(a.shape[0]), max_iter=300, period=2001)
    assert str(got.value) == str(expected.value) and got.value.period == 2001


def test_embodied_flow_zero_consumption():
    period = scalar_period(c=0.0)
    w = embodied_flow_matrix(period, SourceClass.ALL)
    assert w.nnz == 0


def test_embodied_flow_scalar_instance():
    # requirements = 2, consumption 3, demand 5 -> weight 3*2*5 = 30
    w = embodied_flow_matrix(scalar_period(), SourceClass.ALL, tol=1e-14)
    assert csr(w)[0, 0] == pytest.approx(30.0, rel=1e-12)
    assert w.nnz == 1


def test_embodied_flow_identity_requirements_two_layers():
    # A = 0 collapses the propagation: q_11^{ab} = c^a * d^{ab}
    shape = NetworkShape(1, 2)
    c = np.array([3.0, 7.0])
    demand = np.array([[2.0, 4.0], [5.0, 6.0]])
    period = MrioPeriod(
        label=2000,
        shape=shape,
        intermediate_use=np.zeros((2, 2)),
        total_output=np.array([1.0, 1.0]),
        energy_consumption=energy_array(2, hydro=c),
        final_demand=demand,
    )
    w = embodied_flow_matrix(period, SourceClass.ALL)
    for (j, a, b), d in demand_dict(period).items():
        assert csr(w)[a, b] == pytest.approx(c[a] * d, rel=1e-12)


def test_build_single_period():
    net = build_temporal_network([scalar_period()], SourceClass.ALL)
    assert net.shape.n_periods == 1


def test_build_identical_periods_deterministic():
    periods = [scalar_period(label=1990 + t) for t in range(3)]
    net = build_temporal_network(periods, SourceClass.ALL)
    assert net.shape.n_periods == 3
    first = csr(net.matrices[0]).toarray()
    for m in net.matrices[1:]:
        assert np.array_equal(csr(m).toarray(), first)


def test_build_consumption_linearity_across_periods():
    p1 = MrioPeriod(
        1990,
        NetworkShape(1, 1),
        np.array([[0.0]]),
        np.array([4.0]),
        energy_array(1, coal=3.0),
        np.array([[5.0]]),
    )
    p2 = MrioPeriod(
        1991,
        NetworkShape(1, 1),
        np.array([[0.0]]),
        np.array([4.0]),
        energy_array(1, coal=6.0),
        np.array([[5.0]]),
    )
    net = build_temporal_network([p1, p2], SourceClass.ALL)
    assert np.allclose(
        csr(net.matrices[1]).toarray(), 2 * csr(net.matrices[0]).toarray(), rtol=1e-12
    )


def test_build_shape_mismatch():
    p1 = scalar_period(label=1990)
    p2 = MrioPeriod(
        1991,
        NetworkShape(1, 2),
        np.zeros((2, 2)),
        np.ones(2),
        energy_array(2),
        np.zeros((2, 2)),
    )
    with pytest.raises(ValidationError, match=r"period 1991 has shape .*, expected \(N=1, L=1\)"):
        build_temporal_network([p1, p2], SourceClass.ALL)


def test_build_needs_a_period():
    with pytest.raises(ValidationError, match="a temporal network needs at least one period"):
        build_temporal_network([], SourceClass.ALL)


def _dense_oracle_for(period, source):
    dim = period.shape.supra_dim
    carriers = {
        SourceClass.ALL: RENEWABLE + NONRENEWABLE,
        SourceClass.RENEWABLE: RENEWABLE,
        SourceClass.NONRENEWABLE: NONRENEWABLE,
    }[source]
    c = class_consumption(energy_dict(period), dim, carriers)
    return dense_embodied_flows(
        period.shape.n_nodes,
        period.shape.n_layers,
        csr(period.u).toarray(),
        period.total_output,
        c,
        demand_dict(period),
    )


@pytest.mark.parametrize("seed", range(8))
def test_embodied_flow_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    n_layers = int(rng.integers(1, 4))
    spec = SyntheticSpec(
        shape=NetworkShape(n, n_layers, 1), density=0.6, seed=seed, rho_cap=0.85
    )
    period = generate_synthetic(spec).periods[0]
    for source in SourceClass:
        got = csr(embodied_flow_matrix(period, source)).toarray()
        want = _dense_oracle_for(period, source)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_homogeneity_in_consumption():
    spec = SyntheticSpec(shape=NetworkShape(2, 2, 1), density=0.8, seed=4)
    period = generate_synthetic(spec).periods[0]
    scaled = MrioPeriod(
        period.label,
        period.shape,
        csr(period.u),
        period.total_output,
        3.0 * period.energy_consumption,
        csr(period.y),
    )
    w = csr(embodied_flow_matrix(period, SourceClass.ALL)).toarray()
    w3 = csr(embodied_flow_matrix(scaled, SourceClass.ALL)).toarray()
    assert np.allclose(w3, 3.0 * w, rtol=1e-9)


def test_monotonicity_in_demand():
    spec = SyntheticSpec(shape=NetworkShape(2, 2, 1), density=0.8, seed=9)
    period = generate_synthetic(spec).periods[0]
    bumped_demand = csr(period.y).copy()
    bumped_demand.data[0] = bumped_demand.data[0] + 1.5
    bumped = MrioPeriod(
        period.label,
        period.shape,
        csr(period.u),
        period.total_output,
        period.energy_consumption,
        bumped_demand,
    )
    w = csr(embodied_flow_matrix(period, SourceClass.ALL)).toarray()
    wb = csr(embodied_flow_matrix(bumped, SourceClass.ALL)).toarray()
    assert np.all(wb >= w - 1e-15)


def test_source_additivity():
    spec = SyntheticSpec(shape=NetworkShape(3, 2, 1), density=0.7, seed=21)
    period = generate_synthetic(spec).periods[0]
    total = csr(embodied_flow_matrix(period, SourceClass.ALL)).toarray()
    ren = csr(embodied_flow_matrix(period, SourceClass.RENEWABLE)).toarray()
    non = csr(embodied_flow_matrix(period, SourceClass.NONRENEWABLE)).toarray()
    assert np.allclose(ren + non, total, rtol=1e-12, atol=1e-14)


def test_class_total_partition():
    spec = SyntheticSpec(shape=NetworkShape(2, 2, 1), density=0.9, seed=2)
    f = generate_synthetic(spec).periods[0].energy_consumption
    total = SourceClass.ALL.total(f)
    split = SourceClass.RENEWABLE.total(f) + SourceClass.NONRENEWABLE.total(f)
    assert np.allclose(total, split, rtol=1e-15)


def test_class_total_absent_carriers_matches_the_oracle(tmp_path):
    # Four of the seven carriers have no use at all; a class sum skips them
    # exactly as the oracle does, bit for bit, before and after a file round trip.
    spec = SyntheticSpec(shape=NetworkShape(3, 2, 1), density=0.6, seed=5,
                         source_mix={"coal": 1.0, "hydro": 0.5, "other_renewable": 0.25})
    drawn = generate_synthetic(spec)
    loaded = load_dataset(DatasetManifest.from_json(save_dataset(drawn, tmp_path)))
    for period in (drawn.periods[0], loaded.periods[0]):
        energy = energy_dict(period)
        assert sorted(energy) == ["coal", "hydro", "other_renewable"]
        dim = period.shape.supra_dim
        for source, carriers in ((SourceClass.ALL, RENEWABLE + NONRENEWABLE),
                                 (SourceClass.RENEWABLE, RENEWABLE),
                                 (SourceClass.NONRENEWABLE, NONRENEWABLE)):
            want = class_consumption(energy, dim, sorted(carriers))
            assert np.array_equal(source.total(period.energy_consumption), want)


@pytest.mark.parametrize("seed", range(4))
def test_flow_assembly_matches_per_entry_loop(seed):
    # The gather over Y's entries multiplies the same numbers as a loop over
    # demand entries, so the arcs agree bit for bit.
    spec = SyntheticSpec(shape=NetworkShape(4, 3, 1), density=0.5, seed=seed)
    period = generate_synthetic(spec).periods[0]
    n, dim = period.shape.n_nodes, period.shape.supra_dim
    for source in SourceClass:
        by_sector = embodied_intensity(period, source)
        want = np.zeros((dim, dim))
        for (j, a, b), value in demand_dict(period).items():
            for i in range(n):
                want[a * n + i, b * n + j] = by_sector[i, a * n + j] * value
        got = embodied_flow_matrix(period, source)
        assert np.array_equal(csr(got).toarray(), want)
        assert got.nnz == np.count_nonzero(want)
