import gc
import math
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from enflow import (
    FlowCertificateError,
    FlowNetwork,
    NetworkShape,
    SupraAdjacency,
    ValidationError,
    ZeroBaselineError,
    aggregate_to_layers,
    arc_criticality,
    country_level_criticality,
    flowcrit,
    max_flow,
)
from enflow.flowcrit import _pair_set
from enflow.multinet import merged

from accounts import supra
from oracles import lp_max_flow, min_cut_value
from reference_flow import ReferenceEngine


class ArcRemovalRow(NamedTuple):
    """One report row as an object, as reports held them before rows became an array."""

    tail: int
    head: int
    removed_total: float
    index: float


def rows_of(report) -> list[ArcRemovalRow]:
    return [ArcRemovalRow(*row) for row in report.rows.tolist()]


def fields_of(report) -> dict:
    """A report's fields, comparable with ``==``: the rows as a list."""
    return {**vars(report), "rows": rows_of(report)}


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
    # capacities add in input order, starting from 0.0
    forward = FlowNetwork(2, [(0, 1, 0.1), (1, 0, 1.0), (0, 1, 0.2), (0, 1, 0.3)])
    backward = FlowNetwork(2, [(0, 1, 0.3), (0, 1, 0.2), (0, 1, 0.1)])
    assert forward.arcs == ((0, 1, 0.0 + 0.1 + 0.2 + 0.3), (1, 0, 1.0))
    assert backward.arcs == ((0, 1, 0.0 + 0.3 + 0.2 + 0.1),)
    assert forward.arcs[0][2] != backward.arcs[0][2]


def test_parallel_arcs_that_sum_past_the_float_range_are_rejected():
    with pytest.raises(ValidationError,
                       match=r"parallel arcs \(0, 1\) merge to a capacity that is not finite"):
        FlowNetwork(3, [(1, 2, 1.0), (0, 1, 1e308), (0, 1, 1e308)])


def test_self_loop_rejected():
    with pytest.raises(ValidationError):
        FlowNetwork(2, [(0, 0, 1.0)])


BAD_ARCS = [  # node_count, arcs, the message naming the first offending arc
    (2, [(0, 2, 1.0)], "arc (0, 2) outside node range 0..1"),
    (2, [(0, 1, -1.0)], "arc (0, 1) capacity must be finite and >= 0, got -1.0"),
    (2, [(0, 1, float("inf"))], "arc (0, 1) capacity must be finite and >= 0, got inf"),
    (2, [(0, 1, float("nan"))], "arc (0, 1) capacity must be finite and >= 0, got nan"),
    (2, [(float("nan"), 1, 1.0)], "arc 0 endpoints (nan, 1.0) are not integers"),
    (2, [(0, 1, 1.0), (0.7, 1, 1.0)], "arc 1 endpoints (0.7, 1.0) are not integers"),
    (2, [(0, float("inf"), 1.0)], "arc 0 endpoints (0.0, inf) are not integers"),
    (2, [(0, 1, 1.0), (0, 1, "x")], "arc 1 is not a (tail, head, capacity) triple: (0, 1, 'x')"),
    (2, [(0, 1)], "arc 0 is not a (tail, head, capacity) triple: (0, 1)"),
    (2, [(0, 1, 1.0), (1, 0, 1.0, 2.0)],
     "arc 1 is not a (tail, head, capacity) triple: (1, 0, 1.0, 2.0)"),
    (2, np.zeros((2, 2)), "arc 0 is not a (tail, head, capacity) triple: array([0., 0.])"),
    (2, np.zeros((2, 4)), "arc 0 is not a (tail, head, capacity) triple: array([0., 0., 0., 0.])"),
    (2, np.zeros((0, 4)), "arc triples must form an (m, 3) array, got (0, 4)"),
    (2, [(0, 1, 1.0), (1, 0, -1.0), (0, 5, 1.0)],
     "arc (1, 0) capacity must be finite and >= 0, got -1.0"),
    # one arc failing several checks reports the first: range, self-loop, capacity
    (2, [(2, 2, -1.0)], "arc (2, 2) outside node range 0..1"),
    (2, [(1, 1, -1.0)], "self-loop arc at node 1 is not allowed"),
    (0, [], "node_count must be an int >= 1, got 0"),
    (2.0, [(0, 1, 1.0)], "node_count must be an int >= 1, got 2.0"),
    ("2", [(0, 1, 1.0)], "node_count must be an int >= 1, got '2'"),
]


def test_bad_arcs_rejected():
    for node_count, arcs, message in BAD_ARCS:
        with pytest.raises(ValidationError) as caught:
            FlowNetwork(node_count, arcs)
        assert str(caught.value) == message


def test_arcs_from_arrays_and_iterators():
    want = ((0, 1, 1.5), (1, 0, 2.0))
    assert FlowNetwork(2, np.array([[1, 0, 2.0], [0, 1, 1.5]])).arcs == want
    assert FlowNetwork(2, iter([(np.int64(1), 0, 2), (0, 1, 1.5)])).arcs == want
    assert FlowNetwork(np.int64(2), []).arcs == ()
    assert FlowNetwork(3, np.empty((0, 3))).arcs == ()


def test_from_matrix_needs_a_square_matrix():
    with pytest.raises(ValidationError) as caught:
        FlowNetwork.from_matrix(np.ones((2, 3)))
    assert str(caught.value) == "capacity matrix must be square, got shape (2, 3)"


def test_solving_and_scoring_leave_the_arc_tuple_unbuilt():
    net = diamond()
    arc_criticality(net)
    value, cap = net.solve(0, 3)
    net._certify(cap, 0, 3, value)
    assert repr(net) == "FlowNetwork(nodes=4, arcs=4)"
    w = supra(NetworkShape(1, 3), [(0, 1, 2.0), (1, 0, 1.0), (2, 0, 3.0)])
    with ThreadPoolExecutor(1) as pool:
        started = flowcrit.start_country_criticality(w, submit=pool.submit)
        country_level_criticality(w, solved=started)
    assert "arcs" not in vars(net) and "arcs" not in vars(started[0])


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


def test_kernel_keeps_the_arrays_the_network_was_built_with():
    net = diamond()
    for name in ("to", "start", "adj", "base_cap"):
        setattr(net, name, None)  # drops the public references only
    gc.collect()
    value, cap = net.solve(0, 3)
    assert value == max_flow(net, 0, 3) == 4.0
    net._certify(cap, 0, 3, value)


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
# exact-mode baseline total
# ---------------------------------------------------------------------------


def test_exact_baseline_matches_per_pair_oracle():
    net = diamond()
    expected = sum(
        lp_max_flow(net.node_count, net.arcs, s, t)
        for s in range(4)
        for t in range(4)
        if s != t
    )
    assert arc_criticality(net, "exact").baseline_total == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# arc criticality
# ---------------------------------------------------------------------------


def test_bridge_removal_scores_one():
    net = FlowNetwork(2, [(0, 1, 7.0)])
    report = arc_criticality(net)
    assert report.baseline_total == 7.0
    assert len(report.rows) == 1
    assert rows_of(report)[0].removed_total == 0.0
    assert rows_of(report)[0].index == 1.0


def test_redundant_zero_capacity_arc_scores_zero():
    net = FlowNetwork(3, [(0, 1, 3.0), (1, 2, 2.0), (0, 2, 0.0)])
    report = arc_criticality(net)
    row = next(r for r in rows_of(report) if (r.tail, r.head) == (0, 2))
    assert row.index == 0.0
    assert row.removed_total == report.baseline_total


def test_criticality_diamond_against_per_pair_oracle():
    net = diamond()
    report = arc_criticality(net)
    for row in rows_of(report):
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
        for row in rows_of(report):
            assert 0.0 <= row.index <= 1.0
            assert row.index == pytest.approx(
                1 - row.removed_total / report.baseline_total, abs=1e-12
            )
        indexes = [r.index for r in rows_of(report)]
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
    # A negative seed fails in sampled mode whether or not pairs are drawn.
    for pairs in (5, 2000):
        with pytest.raises(ValidationError, match="sampling seed must be >= 0, got -1"):
            arc_criticality(diamond(), "sampled", pairs=pairs, seed=-1)
    assert arc_criticality(diamond(), "exact", seed=-1).mode == "exact"


def test_exact_mode_bitwise_deterministic():
    net = diamond()
    a = arc_criticality(net)
    b = arc_criticality(net)
    assert fields_of(a) == fields_of(b)


def test_sampled_mode_deterministic_and_recorded():
    rng = np.random.default_rng(9)
    net = random_network(rng, max_nodes=8)
    a = arc_criticality(net, "sampled", pairs=10, seed=123)
    b = arc_criticality(net, "sampled", pairs=10, seed=123)
    assert fields_of(a) == fields_of(b)
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
        (r.tail, r.head, r.removed_total, r.index) for r in rows_of(sampled)
    ] == [(r.tail, r.head, r.removed_total, r.index) for r in rows_of(exact)]


def test_scale_covariance():
    net = diamond()
    base = arc_criticality(net)
    lam = 3.7
    scaled_net = FlowNetwork(4, [(a, b, lam * c) for a, b, c in net.arcs])
    scaled = arc_criticality(scaled_net)
    assert scaled.baseline_total == pytest.approx(lam * base.baseline_total, rel=1e-12)
    by_arc = {(r.tail, r.head): r for r in rows_of(scaled)}
    for r0 in rows_of(base):
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
        row = next(r for r in rows_of(report) if (r.tail, r.head) == arc)
        assert row.index == 0.0
        assert row.removed_total == report.baseline_total


def test_flow_far_below_arc_capacity_is_rescored():
    # 1e-70 units cross (1, 2), yet 1.0 - (1.0 - 1e-70) == 0.0: the flow must
    # be read where it does not round away, or (1, 2) looks flowless.
    net = FlowNetwork(3, [(0, 1, 1e-70), (1, 2, 1.0)])
    seed = next(s for s in range(100) if _pair_set(3, "sampled", 1, s).tolist() == [[0, 2]])
    report = arc_criticality(net, "sampled", pairs=1, seed=seed)
    assert [(r.tail, r.head, r.index) for r in rows_of(report)] == [(0, 1, 1.0), (1, 2, 1.0)]


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
    for row in rows_of(report):
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
    got = [(r.index, r.tail, r.head, r.removed_total) for r in rows_of(report)]
    assert got == want


def rows_as_built_per_arc(net, pair_list) -> list[ArcRemovalRow]:
    """The rows as ``arc_criticality`` built them, arc by arc, before they were an array."""
    values, _, drops, _ = net._solve_pairs(pair_list, drops=True)
    baseline = float(values.sum())
    rows = []
    for (tail, head, _), drop in zip(net.arcs, drops):
        removed = min(baseline - float(drop), baseline)
        rows.append(ArcRemovalRow(tail, head, removed, 1.0 - removed / baseline))
    rows.sort(key=lambda r: (-r.index, r.tail, r.head))
    return rows


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rows_keep_the_per_arc_arithmetic_and_order(data):
    capacity = st.integers(0, 4).map(float) | st.floats(0.0, 10.0)
    net, pair_list, report = drawn_case(data, capacity)
    if report is None:
        return
    bits = [(r.tail, r.head, r.removed_total.hex(), r.index.hex()) for r in rows_of(report)]
    assert bits == [(r.tail, r.head, r.removed_total.hex(), r.index.hex())
                    for r in rows_as_built_per_arc(net, pair_list)]


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
    for row in rows_of(report):
        remaining = [a for a in net.arcs if (a[0], a[1]) != (row.tail, row.head)]
        assert row.removed_total == sum(min_cut_value(n, remaining, s, t) for s, t in pair_list)


# ---------------------------------------------------------------------------
# the compiled kernel against the reference engine
# ---------------------------------------------------------------------------


@st.composite
def flow_networks(draw):
    """Networks with real and integer capacities, zero-capacity arcs and
    flows far below their arc's capacity."""
    n = draw(st.integers(2, 6))
    capacity = st.one_of(
        st.integers(0, 9).map(float),
        st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, 1e-70, 1.0]),
    )
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, capacity), max_size=20))
    return FlowNetwork(n, [(a, b, c) for a, b, c in edges if a != b])


@settings(max_examples=150, deadline=None)
@given(net=flow_networks())
@example(net=FlowNetwork(3, [(0, 1, 1e-70), (1, 2, 1.0)]))
@example(net=FlowNetwork(3, [(0, 1, 3.0), (1, 2, 2.0), (0, 2, 0.0)]))
# Deleting (1, 2) for the pair (0, 4) reroutes one unit and cancels the other.
@example(net=FlowNetwork(5, [(0, 1, 2.0), (1, 2, 2.0), (1, 3, 1.0), (3, 2, 1.0), (2, 4, 2.0)]))
# Deleting (1, 2) for the pair (0, 5): the first detour 1->3->2 meets the
# reroute limit exactly while a second one, 1->4->2, is still open.
@example(net=FlowNetwork(6, [(0, 1, 1.0), (1, 2, 1.0), (2, 5, 1.0), (1, 3, 1.0), (3, 2, 1.0),
                             (1, 4, 1.0), (4, 2, 1.0)]))
def test_kernel_matches_reference_engine_exactly(net):
    reference = ReferenceEngine(net.node_count, net.arcs)
    for s in range(net.node_count):
        for t in range(net.node_count):
            if s == t:
                continue
            want_value, want_cap = reference.solve(s, t)
            values, cap, drops, _ = net._solve_pairs([(s, t)], drops=True)
            assert values.tolist() == [want_value]
            assert cap.tolist() == want_cap
            assert drops.tolist() == reference.drops(s, t).tolist()
            value, cap = net.solve(s, t)
            assert value == want_value
            assert cap.tolist() == want_cap


# ---------------------------------------------------------------------------
# the kernel's screens: settled arcs keep the reference engine's bits
# ---------------------------------------------------------------------------


def screen_counts(engine, cap, source, target):
    """(cut, two-hop, re-solve): how the kernel must settle the arcs carrying
    flow in the reference residual ``cap``, derived here from S (the nodes
    the residual reaches from the source) and the dense two-hop sums."""
    n, to = engine.n, engine.to
    side, stack = {source}, [source]
    while stack:
        for e in engine.adj[stack.pop()]:
            if cap[e] > 0.0 and to[e] not in side:
                side.add(to[e])
                stack.append(to[e])
    residual = np.zeros((n, n))
    for e, c in enumerate(cap):
        residual[to[e ^ 1], to[e]] += c
    counts = [0, 0, 0]
    for a in range(len(cap) // 2):
        u, v, f = to[2 * a + 1], to[2 * a], cap[2 * a + 1]
        if not f > 0.0:
            continue
        two_hop = sum(min(residual[u, w], residual[w, v]) for w in range(n) if w not in (u, v))
        if u in side and v not in side:
            counts[0] += 1
        elif two_hop >= f * (1 + 1e-9):
            counts[1] += 1
        else:
            counts[2] += 1
    return counts


def check_screens(net, source, target):
    """Solve one pair with drops and counts; the value, residual and drops
    must equal the reference engine's bit for bit, and the counts
    :func:`screen_counts`. Returns the drops and the counts."""
    engine = ReferenceEngine(net.node_count, net.arcs)
    want_value, want_cap = engine.solve(source, target)
    values, cap, drops, counts = net._solve_pairs([(source, target)], drops=True)
    assert values.tolist() == [want_value]
    assert cap.tolist() == want_cap
    assert drops.tolist() == engine.drops(source, target).tolist()
    assert counts.tolist() == screen_counts(engine, want_cap, source, target)
    return drops, counts.tolist()


def test_screens_tight_source_star():
    # S = {0}: both out-arcs of the source are cut arcs. Their drop is the
    # re-solve's value - ((value - f) + 0.0), which for f = 1/3 is not f.
    net = FlowNetwork(4, [(0, 1, 1 / 3), (0, 2, 3.0), (1, 2, 9.0), (1, 3, 5.0), (2, 1, 9.0),
                          (2, 3, 5.0)])
    drops, counts = check_screens(net, 0, 3)
    assert counts == [2, 2, 0]  # (1, 3) and (2, 3) reroute through each other
    value = 1 / 3 + 3.0
    assert drops[0] == value - (value - 1 / 3) != 1 / 3


def test_screens_tight_target_star():
    # S is every node but the target: both in-arcs of t are cut arcs, and
    # the source's out-arcs reroute inside S.
    net = FlowNetwork(4, [(0, 1, 3.0), (0, 2, 3.0), (1, 2, 3.0), (1, 3, 1.0), (2, 1, 3.0),
                          (2, 3, 1.0)])
    drops, counts = check_screens(net, 0, 3)
    assert counts == [2, 2, 0]
    assert drops.tolist() == [0.0, 0.0, 0.0, 1.0, 0.0, 1.0]


def test_screens_cut_in_the_middle():
    # Neither star is tight: S = {0, 1, 2} and the cut is {(1, 3), (2, 4)}.
    # The arcs before and after the cut reroute on their own side.
    arcs = [(0, 1, 5.0), (0, 2, 5.0), (1, 2, 5.0), (2, 1, 5.0), (1, 3, 1.0), (2, 4, 1.0),
            (3, 4, 5.0), (4, 3, 5.0), (3, 5, 5.0), (4, 5, 5.0)]
    drops, counts = check_screens(FlowNetwork(6, arcs), 0, 5)
    assert counts == [2, 4, 0]
    assert sorted(drops.tolist()) == [0.0] * 8 + [1.0, 1.0]


@pytest.mark.parametrize("detour, counts", [(1 + 5e-10, [1, 0, 2]), (1 + 2e-9, [1, 1, 1])])
def test_two_hop_screen_needs_its_margin(detour, counts):
    # (1, 2) carries 1 and its only detour 1 -> 4 -> 2 holds `detour`: just
    # below f * (1 + 1e-9) the arc is re-solved, just above it is screened.
    net = FlowNetwork(5, [(0, 1, 1.0), (1, 2, 1.0), (1, 4, detour), (2, 3, 1.0), (4, 2, detour)])
    drops, got = check_screens(net, 0, 3)
    assert got == counts
    assert drops.tolist() == [1.0, 0.0, 0.0, 1.0, 0.0]


# Decimal capacities whose sums round: the drops of cut arcs then differ from
# their flows, and two-hop sums sit near the flows they must cover.
DECIMALS = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1 / 3, 2 / 3, 1.1, 3.0, 1e-9, 1e9])


@st.composite
def decimal_arcs(draw):
    """A node count and its arc triples, self-loops left out."""
    n = draw(st.integers(2, 12))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, DECIMALS), min_size=2 * n, max_size=5 * n))
    return n, [(a, b, c) for a, b, c in edges if a != b]


def decimal_networks():
    return decimal_arcs().map(lambda drawn: FlowNetwork(*drawn))


@settings(max_examples=100, deadline=None)
@given(drawn=decimal_arcs())
def test_arcs_are_made_on_first_read_as_the_constructor_made_them(drawn):
    # The tuple the constructor built before ``arcs`` was derived from the arrays.
    n, arcs = drawn
    key, capacity = merged(*flowcrit._checked_arcs(arcs, n))
    tails, heads = np.divmod(key, n)
    built = tuple(zip(tails.tolist(), heads.tolist(), capacity.tolist()))
    net = FlowNetwork(n, arcs)
    assert "arcs" not in vars(net)
    assert net.arcs == built
    assert [(type(t), type(h), c.hex()) for t, h, c in net.arcs] == [
        (int, int, c.hex()) for _, _, c in built]


@settings(max_examples=100, deadline=None)
@given(net=decimal_networks(), data=st.data())
def test_screens_match_reference_engine_on_decimal_capacities(net, data):
    pairs = [(s, t) for s in range(net.node_count) for t in range(net.node_count) if s != t]
    for s, t in data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12)):
        check_screens(net, s, t)


@settings(max_examples=100, deadline=None)
@given(net=st.one_of(flow_networks(), decimal_networks()), data=st.data())
def test_period_matches_reference_engine_pair_by_pair(net, data):
    """One period's report against the reference engine: every total is
    the same sum, in pair-list order, of the reference's values and drops."""
    n = net.node_count
    mode, pairs, seed = "exact", 0, 0
    if data.draw(st.booleans(), label="sampled"):
        mode = "sampled"
        pairs = data.draw(st.integers(1, n * (n - 1)), label="pairs")
        seed = data.draw(st.integers(0, 2**16), label="seed")
    engine = ReferenceEngine(n, net.arcs)
    values, drops, counts = [], np.zeros(len(net.arcs)), np.zeros(3, dtype=np.int64)
    for s, t in _pair_set(n, mode, pairs, seed).tolist():
        value, cap = engine.solve(s, t)
        values.append(value)
        drops += engine.drops(s, t)
        counts += screen_counts(engine, cap, s, t)
    baseline = np.array(values).sum()
    if not baseline > 0.0:
        with pytest.raises(ZeroBaselineError):
            arc_criticality(net, mode, pairs=pairs, seed=seed)
        return
    report = arc_criticality(net, mode, pairs=pairs, seed=seed)
    assert report.baseline_total == baseline
    want = {(a, b): min(baseline - d, baseline) for (a, b, _), d in zip(net.arcs, drops)}
    assert {(r.tail, r.head): r.removed_total for r in rows_of(report)} == want
    assert all(r.index == 1.0 - r.removed_total / baseline for r in rows_of(report))
    got = [report.settled_by_cut, report.settled_by_two_hop, report.resolved]
    assert got == counts.tolist()


def test_one_kernel_call_per_period(monkeypatch):
    kernel, calls = flowcrit._kernel(), []

    class Counted:
        def solve_pairs(self, *args):
            calls.append(args[7])  # the number of pairs
            return kernel.solve_pairs(*args)

    monkeypatch.setattr(flowcrit, "_kernel", Counted)
    arc_criticality(random_network(np.random.default_rng(3)))
    arc_criticality(diamond(), "sampled", pairs=5, seed=1)
    assert calls == [7 * 6, 5]


def test_threads_that_ask_for_the_kernel_at_once_share_one_build(monkeypatch):
    builds, compile_ = [], subprocess.run

    def slow_compile(cmd, **kwargs):
        builds.append(cmd)
        time.sleep(0.2)  # the other thread asks while this build runs
        return compile_(cmd, **kwargs)

    monkeypatch.setattr(subprocess, "run", slow_compile)
    flowcrit._kernel.cache_clear()
    together = threading.Barrier(2)

    def first_call(_):
        together.wait()
        return flowcrit._kernel()

    with ThreadPoolExecutor(2) as pool:
        kernels = list(pool.map(first_call, range(2)))
    assert len(builds) == 1 and kernels[0] is kernels[1]


def test_drops_and_counts_add_up_over_the_pairs_of_one_call():
    net = diamond()
    values, _, drops, counts = net._solve_pairs([(0, 3), (0, 3)], drops=True)
    assert values.tolist() == [4.0, 4.0]
    # per pair: (0, 2) and (1, 3) cross the cut, (0, 1) and (2, 3) have no detour
    assert counts.tolist() == [4, 0, 4]
    assert drops.tolist() == [4.0, 4.0, 4.0, 4.0]
    values, cap, drops, counts = net._solve_pairs([(0, 3), (1, 3)])
    assert values.tolist() == [4.0, 2.0]
    assert cap.tolist() == net.solve(1, 3)[1].tolist()
    assert drops is None and counts is None


def test_report_counts_every_carrying_arc():
    rng = np.random.default_rng(11)
    for _ in range(5):
        net = random_network(rng)
        try:
            report = arc_criticality(net)
        except ZeroBaselineError:
            continue
        carrying = 0
        for s, t in _pair_set(net.node_count, "exact", 0, 0):
            cap = net.solve(s, t)[1]
            carrying += int((cap[1::2] > 0.0).sum())
        assert report.settled_by_cut + report.settled_by_two_hop + report.resolved == carrying


def warm_start_trace(monkeypatch, net, source, target, arc):
    """Value after deleting ``arc`` and the (from, to, limit) of every push,
    traced on the reference engine, whose push sequence the kernel follows."""
    engine = ReferenceEngine(net.node_count, net.arcs)
    value, cap = engine.solve(source, target)
    calls = []
    augment = ReferenceEngine._augment

    def traced(self, cap, s, t, limit=math.inf):
        calls.append((s, t, limit))
        return augment(self, cap, s, t, limit)

    monkeypatch.setattr(ReferenceEngine, "_augment", traced)
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
    net = diamond()
    value, cap = net.solve(0, 3)
    net._certify(cap, 0, 3, value)
    with pytest.raises(FlowCertificateError, match="conservation"):
        net._certify(cap, 0, 3, value + 0.5)
    unbalanced = list(cap)
    unbalanced[1] -= 0.5  # half a unit less on arc (0, 1), none less beyond it
    with pytest.raises(FlowCertificateError, match="conservation violated at node 0"):
        net._certify(unbalanced, 0, 3, value)
    over = list(cap)
    over[1] = 4.0  # arc (0, 1) carries 4 > 3
    with pytest.raises(FlowCertificateError, match="arc 0 violates its capacity"):
        net._certify(over, 0, 3, value)


# ---------------------------------------------------------------------------
# country-level aggregation
# ---------------------------------------------------------------------------


def test_country_level_single_arc():
    shape = NetworkShape(2, 2)
    w = supra(shape, [(0, 3, 5.0)])  # layer 1 -> layer 2
    report = country_level_criticality(w)
    assert len(report.rows) == 1
    assert rows_of(report)[0].index == 1.0


def test_country_level_two_independent_pairs():
    shape = NetworkShape(1, 4)
    w = supra(shape, [(0, 1, 2.0), (2, 3, 2.0)])
    report = country_level_criticality(w)
    assert report.baseline_total == 4.0
    for row in rows_of(report):
        assert row.index == pytest.approx(0.5, abs=1e-12)


def test_exact_vs_sampled_top_arcs_eight_countries():
    rng = np.random.default_rng(4)
    matrix = rng.uniform(0, 5, (8, 8)) * (rng.random((8, 8)) < 0.5)
    np.fill_diagonal(matrix, 0.0)
    net = FlowNetwork.from_matrix(matrix)
    exact = arc_criticality(net, "exact")
    sampled = arc_criticality(net, "sampled", pairs=28, seed=0)
    top_exact = [(r.tail, r.head) for r in rows_of(exact)[:3]]
    top_sampled = [(r.tail, r.head) for r in rows_of(sampled)[:3]]
    assert top_exact == top_sampled
    assert top_exact == [(5, 7), (0, 6), (4, 5)]


def test_country_level_matches_manual_composition():
    rng = np.random.default_rng(8)
    shape = NetworkShape(3, 5)
    dense = rng.uniform(0, 1, (15, 15)) * (rng.random((15, 15)) < 0.3)
    w = SupraAdjacency(shape, dense)
    got = country_level_criticality(w)
    manual = arc_criticality(FlowNetwork.from_matrix(aggregate_to_layers(w)))
    assert fields_of(got) == fields_of(manual)
