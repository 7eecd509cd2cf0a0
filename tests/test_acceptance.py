"""Acceptance suite: one test per release criterion, tolerances pinned inline.

Each test prints a single ``ACCEPTANCE n [name]: PASS/FAIL`` line (visible
with ``pytest -s`` or in captured output) and fails loudly otherwise.
"""

import time
from contextlib import contextmanager

import numpy as np

from enflow import (
    FlowNetwork,
    NetworkShape,
    SourceClass,
    SupraAdjacency,
    TemporalMultilayerNetwork,
    ZeroBaselineError,
    aggregate_to_layers,
    arc_criticality,
    build_temporal_network,
    bundled_codebook,
    consumption_summary,
    embodied_flow_matrix,
    generate_synthetic,
    hits,
    max_flow,
    md_hits,
)
from enflow.cli import main as cli_main
from enflow.dataio import SyntheticSpec

from accounts import demand_dict, energy_dict
from oracles import (
    NONRENEWABLE,
    RENEWABLE,
    class_consumption,
    dense_embodied_flows,
    dense_hits,
    min_cut_value,
    naive_md_hits,
)


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {num} [{name}]: PASS")


def small_shapes(seed: int) -> NetworkShape:
    options = [(2, 2, 1), (3, 2, 2), (2, 3, 1), (4, 2, 1), (1, 2, 2), (3, 3, 1)]
    n, l, t = options[seed % len(options)]
    return NetworkShape(n, l, t)


def test_acceptance_1_embodied_flow_oracle():
    """200 random instances, N*L <= 12, rho(A) <= 0.9: sparse builder matches
    the dense explicit-inverse termwise evaluation, relative tolerance 1e-9,
    in under 10 seconds."""
    with criterion(1, "embodied-flow dense oracle, rel 1e-9, <10s"):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        for case in range(200):
            n = int(rng.integers(1, 5))
            n_layers = int(rng.integers(1, 4))
            assert n * n_layers <= 12
            spec = SyntheticSpec(
                shape=NetworkShape(n, n_layers, 1),
                density=float(rng.uniform(0.3, 0.9)),
                seed=case,
                rho_cap=0.9,
            )
            period = generate_synthetic(spec).periods[0]
            source = [SourceClass.ALL, SourceClass.RENEWABLE, SourceClass.NONRENEWABLE][
                case % 3
            ]
            got = embodied_flow_matrix(period, source, tol=1e-13).matrix.toarray()
            carriers = {
                SourceClass.ALL: RENEWABLE + NONRENEWABLE,
                SourceClass.RENEWABLE: RENEWABLE,
                SourceClass.NONRENEWABLE: NONRENEWABLE,
            }[source]
            c = class_consumption(energy_dict(period), period.shape.supra_dim, carriers)
            want = dense_embodied_flows(
                n,
                n_layers,
                period.intermediate_use.toarray(),
                period.total_output,
                c,
                demand_dict(period),
            )
            scale = max(want.max(initial=0.0), 1e-30)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12 * scale)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def test_acceptance_2_source_additivity():
    """Renewable + NonRenewable equals the All network per arc, relative
    tolerance 1e-12, on 50 synthetic datasets."""
    with criterion(2, "source additivity per arc, rel 1e-12, 50 datasets"):
        for seed in range(50):
            spec = SyntheticSpec(
                shape=small_shapes(seed), density=0.6, seed=seed, rho_cap=0.8
            )
            dataset = generate_synthetic(spec)
            nets = {
                source: build_temporal_network(dataset.periods, source, tol=1e-14)
                for source in SourceClass
            }
            for m_all, m_ren, m_non in zip(
                nets[SourceClass.ALL].matrices,
                nets[SourceClass.RENEWABLE].matrices,
                nets[SourceClass.NONRENEWABLE].matrices,
            ):
                total = m_all.matrix.toarray()
                split = m_ren.matrix.toarray() + m_non.matrix.toarray()
                mask = (total != 0) | (split != 0)
                if mask.any():
                    rel = np.abs(split - total)[mask] / np.abs(total)[mask]
                    assert rel.max() <= 1e-12
                else:
                    assert not mask.any()


def test_acceptance_3_hits_spectral_equivalence():
    """Hub/authority vectors match the dominant eigenvectors of W W^T and
    W^T W to 1e-8 on 100 random 5x5 nonnegative matrices."""
    with criterion(3, "hub/authority vs dense eigensolver, 1e-8, 100 matrices"):
        rng = np.random.default_rng(7)
        for _ in range(100):
            w = rng.uniform(0.05, 1.0, (5, 5)) * (rng.random((5, 5)) < 0.9)
            if not w.any():
                continue
            scores = hits(w, tol=1e-14)
            hub, authority = dense_hits(w)
            assert np.abs(scores.hub - hub).max() <= 1e-8
            assert np.abs(scores.authority - authority).max() <= 1e-8


def test_acceptance_4_md_hits_fixed_point():
    """On 50 random tensors up to 4 nodes x 3 layers x 3 periods with uniform
    exponents, the solver matches the naive dense-loop fixed point to 1e-8
    within 1000 sweeps, and the normalized scores are invariant under global
    weight scaling by 1e-3 and 1e3 to 1e-8."""
    with criterion(4, "five-vector fixed point vs naive oracle + scale invariance"):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 50:
            n = int(rng.integers(1, 5))
            n_layers = int(rng.integers(1, 4))
            n_periods = int(rng.integers(1, 4))
            dim = n * n_layers
            stack = rng.uniform(0.05, 1.0, (n_periods, dim, dim)) * (
                rng.random((n_periods, dim, dim)) < 0.6
            )
            if not all(stack[t].any() for t in range(n_periods)):
                continue
            checked += 1
            shape = NetworkShape(n, n_layers)
            net = TemporalMultilayerNetwork(
                [(t, SupraAdjacency(shape, stack[t])) for t in range(n_periods)]
            )
            scores = md_hits(net, tol=1e-12, max_iter=1000)  # must converge in <= 1000
            want = naive_md_hits(
                n, n_layers, n_periods, stack, scores.gamma, tol=1e-12
            )
            for got, expected in zip(
                (scores.node_hub, scores.node_authority, scores.layer_broadcast,
                 scores.layer_receive, scores.time),
                want,
            ):
                assert np.abs(got - expected).max() <= 1e-8
            for lam in (1e-3, 1e3):
                scaled_net = TemporalMultilayerNetwork(
                    [(t, SupraAdjacency(shape, lam * stack[t])) for t in range(n_periods)]
                )
                scaled = md_hits(scaled_net, tol=1e-12, max_iter=1000)
                for key, vec in scores.as_dict().items():
                    assert np.abs(scaled.as_dict()[key] - vec).max() <= 1e-8


def test_acceptance_5_max_flow_equals_min_cut():
    """On 500 random graphs with <= 8 nodes and integer capacities <= 10,
    the solver value equals the exhaustively enumerated min-cut capacity,
    exactly."""
    with criterion(5, "max flow = enumerated min cut, exact, 500 graphs"):
        rng = np.random.default_rng(555)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            arcs = []
            for tail in range(n):
                for head in range(n):
                    if tail != head and rng.random() < 0.4:
                        arcs.append((tail, head, float(rng.integers(0, 11))))
            net = FlowNetwork(n, arcs)
            s, t = rng.choice(n, size=2, replace=False)
            got = max_flow(net, int(s), int(t))
            want = min_cut_value(n, net.arcs, int(s), int(t))
            assert got == want


def test_acceptance_6_criticality_bounds_and_formula():
    """Every emitted index lies in [0, 1] and satisfies
    index = 1 - removed/baseline to 1e-12; a redundant arc scores exactly 0
    and the unique bridge of a two-node network scores exactly 1."""
    with criterion(6, "criticality bounds, defining identity, pinned cases"):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            arcs = [
                (a, b, float(rng.integers(0, 8)))
                for a in range(n)
                for b in range(n)
                if a != b and rng.random() < 0.5
            ]
            net = FlowNetwork(n, arcs)
            try:
                report = arc_criticality(net)
            except ZeroBaselineError:
                continue
            for row in report.rows:
                assert 0.0 <= row.index <= 1.0
                assert abs(row.index - (1 - row.removed_total / report.baseline_total)) <= 1e-12

        redundant = FlowNetwork(3, [(0, 1, 3.0), (1, 2, 2.0), (0, 2, 0.0)])
        report = arc_criticality(redundant)
        row = next(r for r in report.rows if (r.tail, r.head) == (0, 2))
        assert row.index == 0.0

        bridge = arc_criticality(FlowNetwork(2, [(0, 1, 5.0)]))
        assert bridge.rows[0].index == 1.0


def test_acceptance_7_scale_pins_and_pipeline_budget(tmp_path):
    """The bundled code lists carry exactly 26 sectors and 189 countries, and
    a 27-period synthetic run at shape (26, 12, 27) finishes the full
    pipeline (build, whole-horizon five-vector scores, country-level sampled
    criticality) in under 10 minutes."""
    with criterion(7, "26/189 code lists + (26,12,27) pipeline < 600s"):
        book = bundled_codebook()
        assert len(book.sectors) == 26
        assert len(book.countries) == 189

        data = tmp_path / "data"
        out = tmp_path / "out"
        start = time.monotonic()
        assert cli_main([
            "synth", "--shape", "26,12,27", "--density", "0.05", "--seed", "1",
            "--out", str(data),
        ]) == 0
        assert cli_main([
            "build", "--manifest", str(data / "manifest.json"), "--out", str(out),
        ]) == 0
        assert cli_main(["mdhits", "--out", str(out)]) == 0
        assert cli_main([
            "criticality", "--out", str(out), "--mode", "sampled", "--seed", "0",
        ]) == 0
        elapsed = time.monotonic() - start
        for source in ("all", "renewable", "nonrenewable"):
            assert (out / f"network_{source}.csv").exists()
            assert (out / f"mdhits_{source}.csv").exists()
            assert (out / f"criticality_{source}_2016.csv").exists()
        assert elapsed < 600.0, f"pipeline took {elapsed:.0f}s"


def test_acceptance_8_determinism(tmp_path):
    """Reruns with identical config and seed produce byte-identical outputs,
    sampled-mode criticality included."""
    with criterion(8, "byte-identical reruns incl. sampled criticality"):
        snapshots = []
        for tag in ("first", "second"):
            data = tmp_path / tag / "data"
            out = tmp_path / tag / "out"
            assert cli_main([
                "synth", "--shape", "6,5,3", "--density", "0.4", "--seed", "11",
                "--out", str(data),
            ]) == 0
            assert cli_main([
                "build", "--manifest", str(data / "manifest.json"), "--out", str(out),
            ]) == 0
            assert cli_main(["mdhits", "--out", str(out), "--per-year"]) == 0
            assert cli_main([
                "criticality", "--out", str(out), "--mode", "sampled",
                "--pairs", "12", "--seed", "3",
            ]) == 0
            assert cli_main([
                "consumption", "--manifest", str(data / "manifest.json"),
                "--out", str(out),
            ]) == 0
            files = {}
            for base in (data, out):
                for p in sorted(base.rglob("*")):
                    if p.is_file():
                        files[p.relative_to(tmp_path / tag).as_posix()] = p.read_bytes()
            snapshots.append(files)
        assert snapshots[0].keys() == snapshots[1].keys()
        assert snapshots[0] == snapshots[1]


def test_acceptance_9_conservation_fuzz():
    """Across 500 synthetic seeds: layer aggregation conserves total mass,
    consumption aggregates conserve mass, and every five-vector score sums
    to one, all to 1e-12."""
    with criterion(9, "conservation suites over 500 seeds, 1e-12"):
        for seed in range(500):
            spec = SyntheticSpec(
                shape=small_shapes(seed),
                density=0.4 + 0.2 * (seed % 3),
                seed=seed,
                rho_cap=0.85,
            )
            dataset = generate_synthetic(spec)

            summary = consumption_summary(dataset.energy)
            by_entity = summary.reshape(*summary.shape[:2], dataset.shape.n_layers,
                                        dataset.shape.n_nodes)
            for c in range(len(SourceClass)):
                world = summary[c].sum(axis=1)
                by_country = by_entity[c].sum(axis=2).sum(axis=1)
                by_sector = by_entity[c].sum(axis=1).sum(axis=1)
                scale = np.maximum(1.0, np.abs(world))
                assert np.all(np.abs(world - by_country) <= 1e-12 * scale)
                assert np.all(np.abs(world - by_sector) <= 1e-12 * scale)

            net = build_temporal_network(dataset.periods, SourceClass.ALL)
            for matrix in net.matrices:
                total = matrix.total_weight
                agg = aggregate_to_layers(matrix).sum()
                assert abs(agg - total) <= 1e-12 * max(1.0, abs(total))

            if net.total_weight > 0:
                scores = md_hits(net)
                for vec in scores.as_dict().values():
                    assert np.isfinite(vec).all()
                    assert vec.min() >= 0.0
                    assert abs(vec.sum() - 1.0) <= 1e-12
