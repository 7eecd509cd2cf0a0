import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enflow import (
    FlowCertificateError,
    FlowNetwork,
    NetworkShape,
    SupraAdjacency,
    ValidationError,
    ZeroBaselineError,
    aggregate_to_layers,
    all_pairs_total,
    arc_criticality,
    country_level_criticality,
    max_flow,
)
from enflow.flowcrit import _BlockingFlowEngine, _pair_set

from oracles import lp_max_flow, min_cut_value


def diamond():
    # a->b(3), a->c(2), b->d(2), c->d(3); min cut {a->c, b->d} = 4
    return FlowNetwork(4, [(0, 1, 3.0), (0, 2, 2.0), (1, 3, 2.0), (2, 3, 3.0)])


def random_network(rng, max_nodes=8, max_cap=10):
    n = int(rng.integers(2, max_nodes + 1))
    arcs = []
    for tail in range(n):
        for head in range(n):
            if tail != head and rng.random() < 0.45:
                arcs.append((tail, head, float(rng.integers(0, max_cap + 1))))
    return FlowNetwork(n, arcs)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_parallel_arcs_merge():
    net = FlowNetwork(2, [(0, 1, 2.0), (0, 1, 3.5)])
    assert net.arcs == ((0, 1, 5.5),)


def test_self_loop_rejected():
    with pytest.raises(ValidationError):
        FlowNetwork(2, [(0, 0, 1.0)])


def test_bad_arcs_rejected():
    with pytest.raises(ValidationError):
        FlowNetwork(2, [(0, 2, 1.0)])
    with pytest.raises(ValidationError):
        FlowNetwork(2, [(0, 1, -1.0)])
    with pytest.raises(ValidationError):
        FlowNetwork(2, [(0, 1, float("inf"))])


def test_from_matrix_drops_diagonal():
    m = np.array([[5.0, 1.0], [2.0, 7.0]])
    net = FlowNetwork.from_matrix(m)
    assert net.arcs == ((0, 1, 1.0), (1, 0, 2.0))


# ---------------------------------------------------------------------------
# max flow
# ---------------------------------------------------------------------------


def test_max_flow_path_bottleneck():
    net = FlowNetwork(3, [(0, 1, 3.0), (1, 2, 2.0)])
    assert max_flow(net, 0, 2) == 2.0


def test_max_flow_no_path():
    net = FlowNetwork(3, [(0, 1, 3.0)])
    assert max_flow(net, 1, 0) == 0.0
    assert max_flow(net, 0, 2) == 0.0


def test_max_flow_diamond():
    assert max_flow(diamond(), 0, 3) == 4.0


def test_max_flow_source_equals_target():
    with pytest.raises(ValidationError):
        max_flow(diamond(), 1, 1)
    with pytest.raises(ValidationError):
        max_flow(diamond(), 0, 9)


def test_max_flow_equals_min_cut_exhaustive():
    rng = np.random.default_rng(0)
    for _ in range(60):
        net = random_network(rng)
        s, t = rng.choice(net.node_count, size=2, replace=False)
        got = max_flow(net, int(s), int(t))
        want = min_cut_value(net.node_count, net.arcs, int(s), int(t))
        assert got == want  # integer capacities: exact


def test_max_flow_matches_linear_program():
    rng = np.random.default_rng(1)
    for _ in range(25):
        net = random_network(rng, max_nodes=6)
        s, t = rng.choice(net.node_count, size=2, replace=False)
        got = max_flow(net, int(s), int(t))
        want = lp_max_flow(net.node_count, net.arcs, int(s), int(t))
        assert got == pytest.approx(want, abs=1e-7)


def test_max_flow_degree_bound():
    rng = np.random.default_rng(2)
    for _ in range(20):
        net = random_network(rng)
        s, t = rng.choice(net.node_count, size=2, replace=False)
        out_cap = sum(c for a, _, c in net.arcs if a == s)
        in_cap = sum(c for _, b, c in net.arcs if b == t)
        assert max_flow(net, int(s), int(t)) <= min(out_cap, in_cap) + 1e-12


def test_max_flow_real_capacities():
    net = FlowNetwork(3, [(0, 1, 0.3), (1, 2, 0.7), (0, 2, 0.25)])
    assert max_flow(net, 0, 2) == pytest.approx(0.55, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 6),
    edges=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 9)), max_size=20
    ),
    data=st.data(),
)
def test_max_flow_capacity_bound_property(n, edges, data):
    arcs = [(a % n, b % n, float(c)) for a, b, c in edges if a % n != b % n]
    net = FlowNetwork(n, arcs)
    s = data.draw(st.integers(0, n - 1))
    t = data.draw(st.integers(0, n - 1).filter(lambda v: v != s))
    value = max_flow(net, s, t)
    out_cap = sum(c for a, _, c in net.arcs if a == s)
    in_cap = sum(c for _, b, c in net.arcs if b == t)
    assert 0.0 <= value <= min(out_cap, in_cap) + 1e-12
    assert value == min_cut_value(net.node_count, net.arcs, s, t)


# ---------------------------------------------------------------------------
# all-pairs totals
# ---------------------------------------------------------------------------


def test_all_pairs_single_arc():
    net = FlowNetwork(2, [(0, 1, 4.0)])
    flows, total = all_pairs_total(net)
    assert flows.matrix[0, 1] == 4.0
    assert flows.matrix[1, 0] == 0.0
    assert total == 4.0


def test_all_pairs_symmetric_pair():
    net = FlowNetwork(2, [(0, 1, 4.0), (1, 0, 4.0)])
    _, total = all_pairs_total(net)
    assert total == 8.0


def test_all_pairs_matches_per_pair_oracle():
    net = diamond()
    flows, total = all_pairs_total(net)
    expected = 0.0
    for s in range(4):
        for t in range(4):
            if s != t:
                value = lp_max_flow(net.node_count, net.arcs, s, t)
                assert flows.matrix[s, t] == pytest.approx(value, abs=1e-9)
                expected += value
    assert total == pytest.approx(expected, abs=1e-9)
    assert np.all(np.diag(flows.matrix) == 0)


# ---------------------------------------------------------------------------
# arc criticality
# ---------------------------------------------------------------------------


def test_bridge_removal_scores_one():
    net = FlowNetwork(2, [(0, 1, 7.0)])
    report = arc_criticality(net)
    assert report.baseline_total == 7.0
    assert len(report.rows) == 1
    assert report.rows[0].removed_total == 0.0
    assert report.rows[0].index == 1.0


def test_redundant_zero_capacity_arc_scores_zero():
    net = FlowNetwork(3, [(0, 1, 3.0), (1, 2, 2.0), (0, 2, 0.0)])
    report = arc_criticality(net)
    row = next(r for r in report.rows if (r.tail, r.head) == (0, 2))
    assert row.index == 0.0
    assert row.removed_total == report.baseline_total


def test_criticality_diamond_against_per_pair_oracle():
    net = diamond()
    report = arc_criticality(net)
    for row in report.rows:
        remaining = [a for a in net.arcs if (a[0], a[1]) != (row.tail, row.head)]
        removed = 0.0
        for s in range(4):
            for t in range(4):
                if s != t:
                    removed += lp_max_flow(4, remaining, s, t)
        assert row.removed_total == pytest.approx(removed, abs=1e-9)
        assert row.index == pytest.approx(1 - removed / report.baseline_total, abs=1e-12)


def test_criticality_bounds_and_identity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        net = random_network(rng, max_nodes=6)
        try:
            report = arc_criticality(net)
        except ZeroBaselineError:
            continue
        for row in report.rows:
            assert 0.0 <= row.index <= 1.0
            assert row.index == pytest.approx(
                1 - row.removed_total / report.baseline_total, abs=1e-12
            )
        indexes = [r.index for r in report.rows]
        assert indexes == sorted(indexes, reverse=True)


def test_zero_baseline_raises():
    net = FlowNetwork(2, [(0, 1, 0.0)])
    with pytest.raises(ZeroBaselineError):
        arc_criticality(net)


def test_mode_validation():
    with pytest.raises(ValidationError):
        arc_criticality(diamond(), "fast")
    with pytest.raises(ValidationError):
        arc_criticality(diamond(), "sampled", pairs=0)


def test_exact_mode_bitwise_deterministic():
    net = diamond()
    a = arc_criticality(net)
    b = arc_criticality(net)
    assert a == b


def test_sampled_mode_deterministic_and_recorded():
    rng = np.random.default_rng(9)
    net = random_network(rng, max_nodes=8)
    a = arc_criticality(net, "sampled", pairs=10, seed=123)
    b = arc_criticality(net, "sampled", pairs=10, seed=123)
    assert a == b
    assert a.mode == "sampled"
    assert a.pair_count == min(10, net.node_count * (net.node_count - 1))
    assert a.seed == 123
    c = arc_criticality(net, "sampled", pairs=10, seed=124)
    assert c.seed == 124  # different seed allowed to differ in rows


def test_sampled_covers_all_pairs_when_budget_large():
    net = diamond()
    sampled = arc_criticality(net, "sampled", pairs=10_000, seed=5)
    exact = arc_criticality(net, "exact")
    assert sampled.baseline_total == exact.baseline_total
    assert [
        (r.tail, r.head, r.removed_total, r.index) for r in sampled.rows
    ] == [(r.tail, r.head, r.removed_total, r.index) for r in exact.rows]


def test_scale_covariance():
    net = diamond()
    base = arc_criticality(net)
    lam = 3.7
    scaled_net = FlowNetwork(4, [(a, b, lam * c) for a, b, c in net.arcs])
    scaled = arc_criticality(scaled_net)
    assert scaled.baseline_total == pytest.approx(lam * base.baseline_total, rel=1e-12)
    by_arc = {(r.tail, r.head): r for r in scaled.rows}
    for r0 in base.rows:
        r1 = by_arc[(r0.tail, r0.head)]
        assert r1.removed_total == pytest.approx(lam * r0.removed_total, rel=1e-12)
        assert r1.index == pytest.approx(r0.index, abs=1e-12)


def test_redundant_flowless_arcs_score_exactly_zero():
    # (0, 2) has zero capacity; (3, 0) has capacity but only pairs leaving
    # node 3 can use it, and the sample below holds none of them.
    net = FlowNetwork(4, [(0, 1, 3.0), (1, 2, 2.0), (0, 2, 0.0), (3, 0, 1.5)])
    seed = next(s for s in range(100) if {p[0] for p in _pair_set(4, "sampled", 5, s)} == {0, 1, 2})
    report = arc_criticality(net, "sampled", pairs=5, seed=seed)
    for arc in ((0, 2), (3, 0)):
        row = next(r for r in report.rows if (r.tail, r.head) == arc)
        assert row.index == 0.0
        assert row.removed_total == report.baseline_total


def test_flow_far_below_arc_capacity_is_rescored():
    # 1e-70 units cross (1, 2), yet 1.0 - (1.0 - 1e-70) == 0.0: the flow must
    # be read where it does not round away, or (1, 2) looks flowless.
    net = FlowNetwork(3, [(0, 1, 1e-70), (1, 2, 1.0)])
    seed = next(s for s in range(100) if _pair_set(3, "sampled", 1, s) == [(0, 2)])
    report = arc_criticality(net, "sampled", pairs=1, seed=seed)
    assert [(r.tail, r.head, r.index) for r in report.rows] == [(0, 1, 1.0), (1, 2, 1.0)]


# ---------------------------------------------------------------------------
# warm-started re-solves against from-scratch solves
# ---------------------------------------------------------------------------


def from_scratch_totals(net, pair_list):
    """Removal totals by brute force: rebuild the network without each arc."""
    totals = []
    for i in range(len(net.arcs)):
        without = FlowNetwork(net.node_count, net.arcs[:i] + net.arcs[i + 1 :])
        totals.append(sum(max_flow(without, s, t) for s, t in pair_list))
    return totals


def drawn_case(data, capacity):
    """A drawn network, its pair list, and its report (None for a zero baseline)."""
    n = data.draw(st.integers(2, 6), label="n")
    edges = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), capacity), max_size=20),
        label="edges",
    )
    net = FlowNetwork(n, [(a, b, c) for a, b, c in edges if a != b])
    mode, pairs, seed = "exact", 0, 0
    if data.draw(st.booleans(), label="sampled"):
        mode = "sampled"
        pairs = data.draw(st.integers(1, n * (n - 1)), label="pairs")
        seed = data.draw(st.integers(0, 2**16), label="seed")
    try:
        report = arc_criticality(net, mode, pairs=pairs, seed=seed)
    except ZeroBaselineError:
        report = None
    return net, _pair_set(n, mode, pairs, seed), report


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_removed_totals_match_from_scratch_real(data):
    capacity = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
    net, pair_list, report = drawn_case(data, capacity)
    if report is None:
        return
    want = dict(zip(((t, h) for t, h, _ in net.arcs), from_scratch_totals(net, pair_list)))
    for row in report.rows:
        assert abs(row.removed_total - want[(row.tail, row.head)]) <= 1e-12 * report.baseline_total


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_removed_totals_and_order_match_from_scratch_integer(data):
    capacity = st.integers(0, 9).map(float)
    net, pair_list, report = drawn_case(data, capacity)
    if report is None:
        return
    baseline = sum(max_flow(net, s, t) for s, t in pair_list)
    assert report.baseline_total == baseline
    want = sorted(
        (
            (1.0 - min(removed, baseline) / baseline, t, h, removed)
            for (t, h, _), removed in zip(net.arcs, from_scratch_totals(net, pair_list))
        ),
        key=lambda r: (-r[0], r[1], r[2]),
    )
    got = [(r.index, r.tail, r.head, r.removed_total) for r in report.rows]
    assert got == want


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 4),
    edges=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 9)), max_size=10
    ),
)
def test_removed_totals_match_min_cut_oracle(n, edges):
    net = FlowNetwork(n, [(a % n, b % n, float(c)) for a, b, c in edges if a % n != b % n])
    try:
        report = arc_criticality(net)
    except ZeroBaselineError:
        return
    pair_list = [(s, t) for s in range(n) for t in range(n) if s != t]
    for row in report.rows:
        remaining = [a for a in net.arcs if (a[0], a[1]) != (row.tail, row.head)]
        assert row.removed_total == sum(min_cut_value(n, remaining, s, t) for s, t in pair_list)


def warm_start_trace(monkeypatch, net, source, target, arc):
    """Value after deleting ``arc`` and the (from, to, limit) of every push."""
    engine = net.engine
    value, cap = engine.solve(source, target)
    calls = []
    augment = _BlockingFlowEngine._augment

    def traced(self, cap, s, t, limit=math.inf):
        calls.append((s, t, limit))
        return augment(self, cap, s, t, limit)

    monkeypatch.setattr(_BlockingFlowEngine, "_augment", traced)
    arc_id = next(i for i, (a, b, _) in enumerate(net.arcs) if (a, b) == arc)
    return engine.value_without(cap, source, target, value, arc_id), calls


def test_warm_start_full_reroute(monkeypatch):
    # 0->1->2->4 carries the unit; 1->3->2 takes all of it when (1, 2) goes.
    net = FlowNetwork(5, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0), (3, 2, 1.0), (2, 4, 1.0)])
    value, calls = warm_start_trace(monkeypatch, net, 0, 4, (1, 2))
    assert value == 1.0
    assert calls == [(1, 2, 1.0), (0, 4, math.inf)]


def test_warm_start_partial_reroute_inner_arc(monkeypatch):
    # (1, 2) carries 2; the detour 1->3->2 takes 1, the other unit is cancelled
    # from node 1 back to the source and from the target back to node 2.
    net = FlowNetwork(5, [(0, 1, 2.0), (1, 2, 2.0), (1, 3, 1.0), (3, 2, 1.0), (2, 4, 2.0)])
    value, calls = warm_start_trace(monkeypatch, net, 0, 4, (1, 2))
    assert value == 1.0
    assert calls == [(1, 2, 2.0), (1, 0, 1.0), (4, 2, 1.0), (0, 4, math.inf)]


def test_warm_start_arc_leaving_source(monkeypatch):
    net = FlowNetwork(4, [(0, 1, 2.0), (1, 3, 2.0), (0, 2, 1.0), (2, 1, 1.0)])
    value, calls = warm_start_trace(monkeypatch, net, 0, 3, (0, 1))
    assert value == 1.0
    assert calls == [(0, 1, 2.0), (3, 1, 1.0), (0, 3, math.inf)]


def test_warm_start_arc_entering_target(monkeypatch):
    net = FlowNetwork(4, [(0, 1, 2.0), (1, 2, 2.0), (1, 3, 1.0), (3, 2, 1.0)])
    value, calls = warm_start_trace(monkeypatch, net, 0, 2, (1, 2))
    assert value == 1.0
    assert calls == [(1, 2, 2.0), (1, 0, 1.0), (0, 2, math.inf)]


def test_certificate_rejects_corrupted_residual():
    engine = diamond().engine
    value, cap = engine.solve(0, 3)
    engine._certify(cap, 0, 3, value)
    with pytest.raises(FlowCertificateError, match="conservation"):
        engine._certify(cap, 0, 3, value + 0.5)
    unbalanced = list(cap)
    unbalanced[1] -= 0.5  # half a unit less on arc (0, 1), none less beyond it
    with pytest.raises(FlowCertificateError, match="conservation violated at node 0"):
        engine._certify(unbalanced, 0, 3, value)
    over = list(cap)
    over[1] = 4.0  # arc (0, 1) carries 4 > 3
    with pytest.raises(FlowCertificateError, match="arc 0 violates its capacity"):
        engine._certify(over, 0, 3, value)


# ---------------------------------------------------------------------------
# country-level aggregation
# ---------------------------------------------------------------------------


def test_country_level_single_arc():
    shape = NetworkShape(2, 2)
    w = SupraAdjacency.from_entries(shape, [(0, 3, 5.0)])  # layer 1 -> layer 2
    report = country_level_criticality(w)
    assert len(report.rows) == 1
    assert report.rows[0].index == 1.0


def test_country_level_two_independent_pairs():
    shape = NetworkShape(1, 4)
    w = SupraAdjacency.from_entries(shape, [(0, 1, 2.0), (2, 3, 2.0)])
    report = country_level_criticality(w)
    assert report.baseline_total == 4.0
    for row in report.rows:
        assert row.index == pytest.approx(0.5, abs=1e-12)


def test_exact_vs_sampled_top_arcs_eight_countries():
    rng = np.random.default_rng(4)
    matrix = rng.uniform(0, 5, (8, 8)) * (rng.random((8, 8)) < 0.5)
    np.fill_diagonal(matrix, 0.0)
    net = FlowNetwork.from_matrix(matrix)
    exact = arc_criticality(net, "exact")
    sampled = arc_criticality(net, "sampled", pairs=28, seed=0)
    top_exact = [(r.tail, r.head) for r in exact.top(3)]
    top_sampled = [(r.tail, r.head) for r in sampled.top(3)]
    assert top_exact == top_sampled
    assert top_exact == [(5, 7), (0, 6), (4, 5)]


def test_country_level_matches_manual_composition():
    rng = np.random.default_rng(8)
    shape = NetworkShape(3, 5)
    dense = rng.uniform(0, 1, (15, 15)) * (rng.random((15, 15)) < 0.3)
    w = SupraAdjacency(shape, dense)
    got = country_level_criticality(w)
    manual = arc_criticality(FlowNetwork.from_matrix(aggregate_to_layers(w)))
    assert got == manual
